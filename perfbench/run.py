"""Benchmark of mlpicard: end-to-end and per-layer figures for four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide-d25 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run builds nothing: it imports the package from ``src/`` of the checkout.
With ``--trace 0`` it reports the end-to-end metrics from repeated
calls of the workload that together take ``--seconds`` seconds, each
checked bit for bit (see ``workloads.check``), and the median set-up time
of fresh processes started between the calls.
With ``--trace 1`` it alternates plain and traced calls and reports the
per-layer metrics (see ``spans.py``).  ``--workload all`` runs every
workload in its own process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine facts, the workload parameters and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the package under test is the one in this checkout
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, patched  # noqa: E402

SETUP_PROBES = 5          # at least this many set-up samples per run
TAIL_BEYOND = 10          # the tail percentile keeps this many samples beyond it
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 170


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it; with fewer than TAIL_BEYOND + 1 samples none has, and the
    maximum (percentile 100) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND - 1
    return 100.0 * k / (n - 1), ordered[k]


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    # cache sizes, read only, from sysfs; absent on some kernels
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}"] = size
    return facts


def setup_time(name: str) -> float:
    """Set-up time of ``name`` as measured by a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Calls:
    """Runs workload calls and keeps their walls, outputs and failures."""

    def __init__(self, w, seed: int, workdir: Path, golden: dict):
        self.w, self.seed, self.workdir, self.golden = w, seed, workdir, golden
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def call(self):
        """One checked call: (wall_s, Output or None on failure)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workloads.run_once(self.w, self.seed, self.workdir)
        except Exception:  # a failing call is counted and the run goes on
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        errors = workloads.check(self.w, self.seed, out.bits, self.golden)
        if self.reference is None:
            self.reference = out.bits
        elif out.bits != self.reference:
            errors.append("output bits differ from the first call of this run")
        if errors:
            print(f"{self.w.name}: " + "; ".join(errors), file=sys.stderr)
            self.failed += 1
        return wall, out


def cost_totals(w, bits: dict) -> dict:
    """Exact CostCounters of one call, summed over its cells."""
    totals = {f"mlp.{key}": 0 for key in workloads.COST_KEYS}
    for cell in bits["cells"]:
        for key, value in cell.get("cost", {}).items():
            count = round(float.fromhex(value) * w.replications)
            totals[f"mlp.{key}"] += count
    return totals


def end_to_end(w, calls: Calls, seconds: float) -> tuple[dict, dict]:
    # set-up probes are spread over the run, so that they sample the same
    # machine conditions as the calls; the calls alone fill ``seconds``
    setup, walls, cell_walls = [], [], {}
    while not walls or sum(walls) < seconds:
        setup.append(setup_time(w.name))
        wall, out = calls.call()
        walls.append(wall)
        if out is not None:
            for cell, s in out.cell_walls.items():
                cell_walls.setdefault(cell, []).append(s)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(w.name))
    wall_s = median(walls)
    pct, tail_s = tail(walls)
    cell_median = {c: median(v) for c, v in cell_walls.items()}
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "wall_tail_s": (tail_s, "s"),
        "replications_per_s": (w.total_replications() / wall_s, "1/s"),
        "time_to_tol_s": (workloads.time_to_tol(w, calls.golden, wall_s,
                                                cell_median), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }
    samples = {"setup_s": setup, "wall_s": walls,
               "wall_tail": {"percentile": pct, "samples": len(walls)},
               "cell_wall_s": cell_walls}
    return metrics, samples


def per_layer(w, calls: Calls, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    plain, traced, cell_sums, traced_cell_sums = [], [], [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        use_trace = len(traced) < len(plain)
        with patched(tracer) if use_trace else nullcontext():
            wall, out = calls.call()
        (traced if use_trace else plain).append(wall)
        if out is not None:
            cells = sum(out.cell_walls.values())
            (traced_cell_sums if use_trace else cell_sums).append(cells)
    metrics = layer_metrics(tracer, len(traced))
    metrics.update({k: (v, "count") for k, v in
                    cost_totals(w, calls.reference).items()})
    self_sum = tracer.self_time() / len(traced)
    # the sweep's main thread only waits for the pool, so its spans are
    # compared with the time the CLI measured inside its cells
    covered = (sum(traced_cell_sums) if w.kind == "sweep"
               else sum(traced)) / len(traced)
    sweep_s = median(plain) if w.kind == "sweep" else 0.0
    cell_s_sum = median(cell_sums) if w.kind == "sweep" else 0.0
    metrics.update({
        "cli.sweep_s": (sweep_s, "s"),
        "cli.cell_s_sum": (cell_s_sum, "s"),
        "cli.parallel_efficiency": (
            cell_s_sum / (w.threads * sweep_s) if sweep_s else 0.0, "ratio"),
        "trace.coverage": (self_sum / covered, "ratio"),
        "trace.overhead_s": (median(traced) - median(plain), "s"),
    })
    samples = {"plain_wall_s": plain, "traced_wall_s": traced}
    return metrics, samples


def measure(w, seed: int, seconds: float, trace: bool, golden: dict):
    """Warm up, then measure one workload: (metrics, samples, calls)."""
    # the sweep must run on the threads the workload names
    os.environ.pop("MLPICARD_THREADS", None)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workloads.warm_up(w)
        calls = Calls(w, seed, workdir, golden)
        metrics, samples = (per_layer if trace else end_to_end)(w, calls,
                                                                seconds)
    finally:
        shutil.rmtree(workdir)
    return metrics, samples, calls


def run_workload(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden()[w.name]
    metrics, samples, calls = measure(w, args.seed, args.seconds, args.trace,
                                      golden)

    print(f"{w.name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  calls={calls.attempted}  "
          f"fail_ratio={calls.failed}/{calls.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({"machine": machine_facts(), "seed": args.seed,
                      "workload": {"name": w.name, **w.params()},
                      "samples": samples}))
    print(json.dumps({
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    package = Path(workloads.analysis.__file__).resolve().parent
    if package != ROOT / "src" / "mlpicard":
        print(f"error: mlpicard was imported from {package}, not from this "
              "checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must be an unsigned 64-bit integer")
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
