"""Spans around the public entry points of ``mwtrees`` and the per-layer
metrics computed from them.

The traced run replaces, for its duration only, every reference that the
``mwtrees`` modules hold to a wrapped function, so calls made inside the
package are recorded too.  Nothing under ``src/`` is edited.  Each span
records name, start, end and parent span; the per-layer metrics are derived
from that tree after the run.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List

MIB = 1024.0 * 1024.0

# Public functions left unwrapped: vector arithmetic called millions of times
# per drawing, where a span would measure the tracer instead of the layer.
_UNWRAPPED = {
    "geometry": {"dot", "cross", "vsub", "norm", "dist", "unit", "perp",
                 "midpoint", "region_scale"},
}
LAYER_MODULES = ("tree_model", "geometry", "proximity", "construct", "cli_io")

KERNEL = "proximity.pair_witness_margins"
VERIFY = "proximity.verify"
NUDGE = "construct.compute_safe_perturbation"
REGION_MARGIN = "geometry.region_margin"
GATE_PARENTS = {"construct.draw_tree_pair", "construct.draw_pruned_tree_pair"}
JSON_SPANS = {"cli_io." + f for f in (
    "tree_to_json", "tree_from_json", "drawing_to_json", "drawing_from_json",
    "save_tree", "load_tree", "save_drawing", "load_drawing")}
SVG = "cli_io.render_svg"
OP = "op"
# Spans whose peak traced allocation is recorded.
MEMORY_SPANS = {VERIFY, NUDGE}


@dataclass
class Spans:
    """Span tree of one traced run, kept in parallel lists."""

    names: List[str] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    parents: List[int] = field(default_factory=list)
    attrs: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def add(self, name: str, start: float, end: float, parent: int = -1,
            **attrs: float) -> int:
        """Append a finished span (used by tests and by ``Tracer``)."""
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        if attrs:
            self.attrs[idx] = dict(attrs)
        return idx

    def __len__(self) -> int:
        return len(self.names)


def self_times(spans: Spans) -> List[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: List[List[int]] = [[] for _ in range(len(spans))]
    for i, p in enumerate(spans.parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(spans)):
        s, e = spans.starts[i], spans.ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children[i], key=lambda c: spans.starts[c]):
            cs, ce = max(spans.starts[c], s), min(spans.ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


class _Memory:
    """Peak traced allocation inside possibly nested memory spans.

    ``tracemalloc`` runs only while a memory span is open, because it slows
    the allocation-heavy verifier about threefold.  It keeps one peak, so
    entering a nested span folds the current peak into the open spans before
    resetting it, and leaving one folds it back.
    """

    def __init__(self):
        self._open: List[List[int]] = []  # [baseline, peak so far]

    def enter(self) -> None:
        if not self._open:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._open.append([cur, cur])

    def leave(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._open.pop()
        for frame in self._open:
            frame[1] = max(frame[1], peak, seen)
        if not self._open:
            tracemalloc.stop()
        return (max(seen, peak) - base) / MIB


class Tracer:
    """Records spans; ``instrument`` wraps the package's entry points.

    With ``memory`` set, a span in ``MEMORY_SPANS`` also records its peak
    traced allocation when its drawing's pair-witness table is larger than
    that of every such span probed before; the peak over all spans
    is then measured on the calls that can set it, provided memory grows with
    the table, while the pass costs little more than an untraced one.  Probed
    spans are slowed by ``tracemalloc``, so their times are not used.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = Spans()
        self._stack: List[int] = []
        self._memory = _Memory()
        self._largest: Dict[str, int] = {}

    def _worth_probing(self, name: str, d) -> bool:
        n0, n1 = len(d.points0), len(d.points1)
        cells = n0 * (n0 - 1) // 2 * n1 + n1 * (n1 - 1) // 2 * n0
        if cells <= self._largest.get(name, -1):
            return False
        self._largest[name] = cells
        return True

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = self.spans.add(name, 0.0, 0.0, parent)
        self._stack.append(idx)
        self.spans.starts[idx] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        memory = self.memory and name in MEMORY_SPANS
        is_kernel = name == KERNEL
        is_verify = name == VERIFY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            probe = memory and self._worth_probing(name, args[0])
            if probe:
                self._memory.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                peak = self._memory.leave() if probe else None
                self.end(idx)
                if peak is not None:
                    self.spans.attrs.setdefault(idx, {})["peak_mib"] = peak
            if is_kernel:
                # pairs x witnesses, from the shapes of P and W
                self.spans.attrs[idx] = {"cells": float(len(args[0]) * len(args[2]))}
            elif is_verify:
                self.spans.attrs.setdefault(idx, {})["ok"] = float(result.ok)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self, package):
        """Wrap the layer modules' public functions while the block runs."""
        originals: Dict[int, Callable] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, value in vars(mod).items():
                if (callable(value) and not isinstance(value, type)
                        and not attr.startswith("_")
                        and getattr(value, "__module__", None) == mod.__name__
                        and attr not in _UNWRAPPED.get(short, ())):
                    originals[id(value)] = value
        wrappers = {key: self._wrap(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", fn)
                    for key, fn in originals.items()}
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__
                                   or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)]:
                    setattr(mod, attr, wrappers[id(value)])
                    patched.append((mod, attr, value))

        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def _outermost(spans: Spans, member: Callable[[str], bool]) -> Iterable[int]:
    """Spans in a group that have no ancestor in the same group."""
    for i, name in enumerate(spans.names):
        if not member(name):
            continue
        p = spans.parents[i]
        while p >= 0 and not member(spans.names[p]):
            p = spans.parents[p]
        if p < 0:
            yield i


def _has_ancestor(spans: Spans, i: int, name: str) -> bool:
    p = spans.parents[i]
    while p >= 0:
        if spans.names[p] == name:
            return True
        p = spans.parents[p]
    return False


def layer_metrics(spans: Spans, memory: Spans, untraced_op_s: float,
                  bytes_written: float) -> Dict[str, float]:
    """Per-layer metrics of one pass over the input list.

    ``spans`` cover one timed pass; ``memory`` is a second pass traced with
    ``Tracer(memory=True)``, which gives only the ``peak_mib`` metrics.
    ``untraced_op_s`` is the untraced op time of a pass, the base of
    ``trace.overhead_share``; ``bytes_written`` is per pass as well.
    """
    selfs = self_times(spans)
    dur = [e - s for s, e in zip(spans.starts, spans.ends)]
    names = spans.names
    attrs = spans.attrs

    def idx(name: str) -> List[int]:
        return [i for i, n in enumerate(names) if n == name]

    def total(indices: Iterable[int], values: List[float]) -> float:
        return sum(values[i] for i in indices)

    def attr_sum(indices: Iterable[int], key: str) -> float:
        return sum(attrs.get(i, {}).get(key, 0.0) for i in indices)

    def peak(name: str) -> float:
        return max((memory.attrs.get(i, {}).get("peak_mib", 0.0)
                    for i, n in enumerate(memory.names) if n == name), default=0.0)

    verify = idx(VERIFY)
    kernel = idx(KERNEL)
    nudge = idx(NUDGE)
    gate = [i for i in verify if spans.parents[i] >= 0
            and names[spans.parents[i]] in GATE_PARENTS]
    region = idx(REGION_MARGIN)
    op_s = total(idx(OP), dur)
    return {
        "proximity.verify.calls": len(verify),
        "proximity.verify.self_s": total(verify, selfs),
        "proximity.verify.peak_mib": peak(VERIFY),
        "proximity.kernel.calls": len(kernel),
        "proximity.kernel.s": total(kernel, dur),
        "proximity.kernel.cells": attr_sum(kernel, "cells"),
        "construct.gate.verify_calls": len(gate),
        "construct.gate.verify_s": total(gate, dur),
        "construct.gate.ok_ratio": (attr_sum(gate, "ok") / len(gate)) if gate else 0.0,
        "construct.nudge.calls": len(nudge),
        "construct.nudge.s": total(_outermost(spans, lambda n: n == NUDGE), dur),
        "construct.nudge.kernel_cells": attr_sum(
            (i for i in kernel if _has_ancestor(spans, i, NUDGE)), "cells"),
        "construct.nudge.peak_mib": peak(NUDGE),
        "construct.draw.self_s": total(
            (i for i, n in enumerate(names) if n.startswith("construct.") and n != NUDGE),
            selfs),
        "geometry.region_margin.calls": len(region),
        "geometry.region_margin.s": total(region, dur),
        "tree_model.s": total(_outermost(spans, lambda n: n.startswith("tree_model.")),
                              dur),
        "cli_io.json.s": total(_outermost(spans, JSON_SPANS.__contains__), dur),
        "cli_io.svg.s": total(_outermost(spans, lambda n: n == SVG), dur),
        "cli_io.bytes_written": bytes_written,
        "trace.op_s": op_s,
        "trace.overhead_share": (op_s - untraced_op_s) / untraced_op_s,
    }


# Unit of every per-layer metric; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    name: ("count" if name.endswith(("calls", "cells")) else
           "MiB" if name.endswith("_mib") else
           "ratio" if name.endswith(("ratio", "share")) else
           "bytes" if name.endswith("bytes_written") else "s")
    for name in layer_metrics(Spans(), Spans(), 1.0, 0.0)
}
