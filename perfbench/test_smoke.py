"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spans():
    s = tracing.Spans()
    op = s.add("op", 0.0, 10.0)
    draw = s.add("construct.draw_tree_pair", 1.0, 9.0, op)
    gate_ok = s.add("proximity.verify", 2.0, 4.0, draw, ok=1.0)
    s.add(tracing.KERNEL, 2.5, 3.5, gate_ok, cells=30.0)
    s.add("proximity.verify", 5.0, 6.0, draw, ok=0.0)
    nudge = s.add(tracing.NUDGE, 6.5, 8.5, draw)
    s.add(tracing.KERNEL, 7.0, 8.0, nudge, cells=12.0)
    s.add("geometry.region_margin", 8.6, 8.8, draw)
    return s


def test_self_time_subtracts_the_union_of_child_spans():
    s = tracing.Spans()
    root = s.add("op", 0.0, 10.0)
    s.add("a", 1.0, 4.0, root)
    s.add("b", 2.0, 3.0, root)  # overlaps a: covered once
    c = s.add("c", 5.0, 9.0, root)
    s.add("d", 6.0, 8.0, c)  # grandchild: counts against c only
    assert tracing.self_times(s) == pytest.approx([3.0, 3.0, 1.0, 2.0, 2.0])


def test_layer_metrics_on_a_hand_built_span_tree():
    memory = tracing.Spans()
    memory.add("proximity.verify", 0.0, 1.0, peak_mib=5.0)
    memory.add(tracing.NUDGE, 1.0, 2.0, peak_mib=7.0)
    m = tracing.layer_metrics(_spans(), memory, untraced_op_s=8.0, bytes_written=100.0)
    assert m["trace.op_s"] == pytest.approx(10.0)
    assert m["trace.overhead_share"] == pytest.approx(0.25)
    assert m["construct.gate.verify_calls"] == 2
    assert m["construct.gate.ok_ratio"] == 0.5
    assert m["construct.gate.verify_s"] == pytest.approx(3.0)
    assert m["proximity.verify.self_s"] == pytest.approx(1.0 + 1.0)
    assert m["proximity.kernel.cells"] == 42.0
    assert m["construct.nudge.kernel_cells"] == 12.0
    assert m["construct.nudge.s"] == pytest.approx(2.0)
    # draw: 8 s minus verify 2 + 1, nudge 2, region_margin 0.2
    assert m["construct.draw.self_s"] == pytest.approx(2.8)
    assert m["geometry.region_margin.calls"] == 1
    assert m["proximity.verify.peak_mib"] == 5.0
    assert m["construct.nudge.peak_mib"] == 7.0
    assert m["cli_io.bytes_written"] == 100.0


def test_units_match_the_benchmark_spec():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS


def test_scale_is_the_mean_reference_speed_around_and_inside_an_execution():
    nominal = calibrate.NOMINAL_S
    assert calibrate.scale(nominal, [], nominal) == pytest.approx(1.0)
    # half speed before, double speed inside, nominal after
    assert calibrate.scale(2 * nominal, [nominal / 2], nominal) == \
        pytest.approx((0.5 + 2.0 + 1.0) / 3)


def test_sampler_leaves_its_own_time_out_of_the_operation():
    sampler = calibrate.Sampler()
    with sampler.running():
        sampler.start()
        deadline = time.perf_counter() + 3 * calibrate.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        op_s, inside = sampler.stop()
    assert len(inside) >= 2
    assert op_s == pytest.approx(3 * calibrate.INTERVAL_S - sum(inside), abs=0.01)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    record = json.loads(proc.stdout.splitlines()[-2])
    assert set(record["end_to_end"]) == set(record["units"])
    assert record["machine"]["nproc"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "trees", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
