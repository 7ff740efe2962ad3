#!/usr/bin/env python3
"""Closed-loop benchmark of mwtrees.

    python3 perfbench/run.py --workload {trees,caterpillars,verify,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One caller on one thread issues each operation after the previous
one returns, cycling through the workload's fixed input list in whole passes
for about ``--seconds``.  Set-up (interpreter start, import, input generation
and, for ``verify``, building the drawings) runs ``SETUP_REPEATS`` times in
child processes, so it is timed as ``setup_s`` and cannot set this process's
peak RSS.  Outputs are checked after the timed loop; a wrong output exits 1
without a result.

Every time is scaled to one reference CPU speed by a fixed reference
computation timed around and inside each operation (calibrate.py), because
the host's speed drifts by tens of percent over minutes.  Cheap inputs run
several times a pass, spread over it; an input's latency is the median of
its scaled samples.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs the untraced loop for half the time, then one pass with
spans around the package's public functions and one pass that probes peak
memory, and prints the per-layer metrics of a pass.  The last line of
standard output is the result object; the line before it holds the full
record (machine, per-input outcomes and latencies, every metric with its
unit and sample count).  See perfbench/README.md.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, List, Optional  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "fail_share": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# fail_share is 0 on three workloads, so the result line carries it only as
# failed / attempted; the full record prints it with the other five.
RESULT_METRICS = [m for m in END_TO_END_UNITS if m != "fail_share"]


@dataclass
class Loop:
    """Per-input latency samples and first outputs of one closed loop."""

    samples: List[List[float]]
    outcomes: List[str] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    passes: int = 0
    executions: int = 0
    raw: List[List[float]] = field(default_factory=list)

    def latencies(self, raw: bool = False) -> List[float]:
        """Each input's latency: the median of its samples, scaled to the
        reference CPU speed unless ``raw``."""
        return [statistics.median(s) for s in (self.raw if raw else self.samples)]


def schedule(cases) -> List[int]:
    """Case indices in the order of one pass: case k runs ``weight`` times,
    at evenly spaced slots offset by its place in the list."""
    slots = [((r + (k + 0.5) / len(cases)) / c.weight, k)
             for k, c in enumerate(cases) for r in range(c.weight)]
    return [k for _, k in sorted(slots)]


def closed_loop(wl, cases, budget_s: float, *, passes: Optional[int] = None,
                weighted: bool = True, tracer=None, expect: Optional[Loop] = None) -> Loop:
    """Whole passes over ``cases``: ``passes`` of them, or the whole number
    nearest to what fits in ``budget_s`` (at least one).

    A pass runs the ``schedule`` of the cases, or with ``weighted`` unset
    each case once in list order.  Every execution must reproduce the
    outcome and output of the case's first run, or of ``expect``.  A timed
    ``calibrate.reference()`` runs before every execution, after the last
    and, untraced, every ``calibrate.INTERVAL_S`` inside one; each sample
    is scaled by the reference speed around and inside it (calibrate.py).
    """
    from mwtrees import MWTreesError
    from workloads import CheckFailed

    loop = Loop(samples=[[] for _ in cases], raw=[[] for _ in cases],
                outcomes=[None] * len(cases), results=[None] * len(cases))
    timings = []  # (case, op time, reference times inside it)
    refs = []  # reference time before each execution, and after the last
    first = expect or loop
    order = schedule(cases) if weighted else range(len(cases))
    # a traced pass takes no samples inside its spans
    sampler = calibrate.Sampler()
    start = time.perf_counter()
    with contextlib.nullcontext() if tracer else sampler.running():
        while True:
            pass_start = time.perf_counter()
            for k in order:
                refs.append(calibrate.timed_reference())
                span = tracer.begin("op") if tracer else None
                sampler.start()
                try:
                    result, outcome = wl.op(cases[k].payload), "ok"
                except MWTreesError as exc:
                    result, outcome = None, type(exc).__name__
                op_s, inside = sampler.stop()
                if tracer:
                    tracer.end(span)
                timings.append((k, op_s, inside))
                loop.executions += 1
                if first.outcomes[k] is None:
                    loop.outcomes[k], loop.results[k] = outcome, result
                elif (outcome, result) != (first.outcomes[k], first.results[k]):
                    raise CheckFailed(f"{cases[k].id}: output differs from its first run")
            loop.passes += 1
            now = time.perf_counter()
            if passes is not None:
                if loop.passes >= passes:
                    break
            elif budget_s - (now - start) < (now - pass_start) / 2:
                break
    refs.append(calibrate.timed_reference())
    for j, (k, op_s, inside) in enumerate(timings):
        loop.raw[k].append(op_s)
        loop.samples[k].append(op_s * calibrate.scale(refs[j], inside, refs[j + 1]))
    return loop


def tail(latencies: List[float], pct: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def machine() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def set_up(args) -> tuple:
    """Time ``SETUP_REPEATS`` set-ups in child processes, each scaled by
    reference bursts just before and after it; return the median scaled
    time, the scaled and raw samples, and the inputs the last one generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times, raw, blob = [], [], b""
    before = calibrate.burst()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
        after = calibrate.burst()
        raw.append(elapsed)
        times.append(elapsed * calibrate.scale(before, [], after))
        before, blob = after, proc.stdout
    # the bytes come from this script's own child process
    return statistics.median(times), times, raw, pickle.loads(blob)


def measure(args, wl, cases) -> dict:
    from workloads import TAIL_PERCENTILE
    import tracing
    import mwtrees

    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    loop = closed_loop(wl, cases, budget)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat, raw_lat = loop.latencies(), loop.latencies(raw=True)
    fails = sum(o != "ok" for o in loop.outcomes)
    failed_executions = sum(len(s) for s, o in zip(loop.samples, loop.outcomes) if o != "ok")
    record = {
        "passes": loop.passes,
        "samples": len(lat),
        "executions": loop.executions,
        "tail_percentile": TAIL_PERCENTILE,
        "end_to_end": {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail(lat, TAIL_PERCENTILE) * 1e3,
            "fail_share": fails / len(cases),
            "peak_rss_mib": peak_rss_mib,
        },
        "outcomes": {c.id: o for c, o in zip(cases, loop.outcomes)},
        "latency_ms": {c.id: round(x * 1e3, 3) for c, x in zip(cases, lat)},
        "raw_latency_ms": {c.id: round(x * 1e3, 3) for c, x in zip(cases, raw_lat)},
        "reference_s": calibrate.NOMINAL_S * sum(raw_lat) / sum(lat),
    }
    attempted, failed = loop.executions, failed_executions
    if args.trace:
        timed, probe = tracing.Tracer(), tracing.Tracer(memory=True)
        with timed.instrument(mwtrees):
            closed_loop(wl, cases, budget, passes=1, weighted=False, tracer=timed, expect=loop)
        with probe.instrument(mwtrees):
            closed_loop(wl, cases, budget, passes=1, weighted=False, tracer=probe, expect=loop)
        attempted += 2 * len(cases)
        failed += 2 * fails
        written = sum(getattr(r, "bytes_written", 0) for r in loop.results)
        # spans hold unscaled times, so the overhead base is unscaled too
        layers = tracing.layer_metrics(timed.spans, probe.spans, sum(raw_lat),
                                       float(written))
        record["layers"] = layers
        record["layer_shares_of_traced_op_time"] = {
            k: v / layers["trace.op_s"] for k, v in layers.items()
            if tracing.LAYER_UNITS[k] == "s" and k != "trace.op_s"}
    record["attempted"] = attempted
    record["failed"] = failed
    for case, outcome, result in zip(cases, loop.outcomes, loop.results):
        if outcome == "ok":
            wl.check(case, result)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["trees", "caterpillars", "verify", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the harness smoke test")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "mwtrees" / "__init__.py").is_file():
        print(f"error: no mwtrees sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mwtrees
    import workloads
    if Path(mwtrees.__file__).resolve().parent != SRC / "mwtrees":
        print(f"error: imported mwtrees from {mwtrees.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_child:
        cases = cls.build(args.seed, args.tiny)
        pickle.dump(cases, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
        return 0

    setup_s, setup_samples, setup_raw, cases = set_up(args)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        wl = cls(workdir) if cls is workloads.Cli else cls()
        record = measure(args, wl, cases)
    except workloads.CheckFailed as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["end_to_end"]["setup_s"] = setup_s
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup_samples,
                  setup_raw_s=setup_raw, machine=machine())

    import tracing
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]}
                   for k, v in record["layers"].items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": END_TO_END_UNITS[k]}
                   for k in RESULT_METRICS}
    record["units"] = END_TO_END_UNITS
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
