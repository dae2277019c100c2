"""Smoke tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# each workload cut down to well under a second, same kind and code paths
REDUCED = {
    "wide-d25": dict(dim=3, depths=(3,), samples=2, replications=2),
    "deep-d1": dict(depths=(3,), samples=2, replications=2),
    "z-sweep": dict(depths=(1, 3), samples=2, replications=2),
    "oracle-d1": dict(depths=(2,)),
}


def _all_targets():
    return ([(m, a) for m, a, _, _ in spans.TARGETS]
            + list(spans.PROBLEM_FACTORIES))


def test_patched_restores_every_attribute_also_on_error():
    originals = {(m, a): getattr(m, a) for m, a in _all_targets()}
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            for (m, a), fn in originals.items():
                assert getattr(m, a) is not fn
            raise RuntimeError("boom")
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals, _ = tracer.totals()
    total, child, calls = totals["outer"]
    assert calls == 1 and totals["inner"][2] == 3
    assert child == pytest.approx(totals["inner"][0])
    assert tracer.self_time() == pytest.approx(total)


def test_workload_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"]
                                         for w in BENCHMARK["workloads"]]
    assert all(name in workloads.load_golden() for name in workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_workload_reports_every_named_metric(name, tmp_path):
    w = replace(workloads.WORKLOADS[name], **REDUCED[name])
    golden = workloads.run_once(w, workloads.GOLDEN_SEED, tmp_path).bits
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, _, calls = run.measure(w, workloads.GOLDEN_SEED, 0.0, trace,
                                        golden)
        assert calls.failed == 0
        assert set(metrics) == {m["name"] for m in BENCHMARK[key]}
        units = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert all(unit == units[m] for m, (_, unit) in metrics.items())
    if w.kind != "oracle":
        assert metrics["sampling.normal_block.calls"][0] > 0
        assert metrics["problems.generator.calls"][0] > 0
        assert metrics["trace.coverage"][0] > 0.5


def test_check_flags_changed_bits_and_counters():
    w = workloads.WORKLOADS["deep-d1"]
    golden = workloads.load_golden()[w.name]
    assert workloads.check(w, workloads.GOLDEN_SEED, golden, golden) == []
    cell = dict(golden["cells"][0])
    mean = float.fromhex(cell["mean_y"])
    cell["mean_y"] = (mean + abs(mean) * 1e-15).hex()
    changed = {"cells": [cell]}
    assert workloads.check(w, workloads.GOLDEN_SEED, changed, golden)
    # another seed: a close mean passes, other counters fail
    assert workloads.check(w, 1, changed, golden) == []
    cell["cost"] = {**cell["cost"], "generator_evals": (1.0).hex()}
    assert workloads.check(w, 1, changed, golden)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    pct, value = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
