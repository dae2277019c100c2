"""The four benchmark workloads: what each one runs and how its output is checked.

A workload call returns an ``Output`` whose ``bits`` hold every result as
exact text (``float.hex`` for floats), so two calls agree only if they agree
bit for bit.  ``golden.json`` holds the bits of each workload at
``GOLDEN_SEED``; for other seeds only the seed-free parts can be compared
exactly, and the means are checked against the golden ones statistically.

The package is looked up through module attributes at call time
(``problems.make_problem``, ``analysis.run_replications``, ...), so the
wrappers that ``spans.patched`` installs are seen by every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from mlpicard import analysis, cli, problems
from mlpicard.mlp import MlpConfig

GOLDEN_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")
TOLERANCE = 1e-3     # standard error that time_to_tol_s aims at
MEAN_SIGMAS = 6.0    # statistical check of a seed's mean against the golden one
COST_KEYS = ("generator_evals", "terminal_evals", "gaussian_draws", "cache_hits")


@dataclass(frozen=True)
class Workload:
    """One fixed input set: a problem, an estimator grid and a query point."""

    name: str
    kind: str                  # "replications", "sweep" or "oracle"
    problem: str
    dim: int = 1
    alpha: float = 0.3
    variants: tuple = ("modified",)
    depths: tuple = (3,)
    samples: int = 8
    quad_order: int = 4
    replications: int = 2
    estimate_z: bool = False
    threads: int = 1
    t: float = 0.0
    x: float = 0.0

    def total_replications(self) -> int:
        # a deterministic oracle evaluation counts as one replication
        if self.kind == "oracle":
            return 1
        return self.replications * len(self.variants) * len(self.depths)

    def params(self) -> dict:
        skip = {"name"}
        if self.kind == "oracle":
            skip |= {"variants", "samples", "replications", "estimate_z",
                     "threads"}
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items() if k not in skip}


# Why each workload exists is documented in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # sampling on ~14 MiB blocks dominates
    Workload(name="wide-d25", kind="replications", problem="bounded-nonlinear",
             dim=25, variants=("modified",), depths=(3,), samples=16,
             replications=32),
    # a deep tree of small blocks: recursion, keys, phi and f
    Workload(name="deep-d1", kind="replications", problem="bounded-nonlinear",
             dim=1, variants=("original",), depths=(5,), samples=4,
             replications=64),
    # the CLI thread pool, CSV writing and the z kernels
    Workload(name="z-sweep", kind="sweep", problem="z-coupled", dim=10,
             variants=("original", "modified"), depths=(2, 3), samples=8,
             replications=128, estimate_z=True, threads=2),
    # the deterministic oracle: analysis only, no sampling
    Workload(name="oracle-d1", kind="oracle", problem="linear-y", alpha=0.8,
             depths=(3,), x=0.3),
)}


@dataclass
class Output:
    bits: dict          # exact results, compared bit for bit
    cell_walls: dict    # sweep only: wall_time_s per cell as the CLI timed it


def _make_problem(w: Workload):
    return problems.make_problem(w.problem, dim=w.dim, alpha=w.alpha)


def _cell_bits(cell: str, mean_y: float, std_y: float, cost: dict) -> dict:
    return {"cell": cell, "mean_y": float(mean_y).hex(),
            "std_y": float(std_y).hex(),
            "cost": {k: float(cost[k]).hex() for k in COST_KEYS}}


def _run_replications(w: Workload, seed: int, depth: int) -> Output:
    problem = _make_problem(w)
    cells = []
    for variant in w.variants:
        cfg = MlpConfig(variant=variant, depth=depth, base_samples=w.samples,
                        quad_order=w.quad_order, seed=seed,
                        estimate_z=w.estimate_z)
        stats = analysis.run_replications(problem, cfg, w.t, w.x,
                                          w.replications)
        cells.append(_cell_bits(f"{variant}/{depth}", stats.mean_y,
                                stats.std_y, stats.mean_cost))
    return Output(bits={"cells": cells}, cell_walls={})


def _run_sweep(w: Workload, seed: int, workdir: Path) -> Output:
    config = {"schema_version": 1, "problem": w.problem,
              "overrides": {"dim": w.dim}, "variants": list(w.variants),
              "depths": list(w.depths), "samples": w.samples,
              "quad_orders": w.quad_order, "replications": w.replications,
              "estimate_z": w.estimate_z, "t": w.t, "x": w.x}
    tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=workdir))
    try:
        cfg_path = tmp / "sweep.json"
        out_path = tmp / "sweep.csv"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(cfg_path), "--out",
                         str(out_path), "--threads", str(w.threads),
                         "--seed", str(seed)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"sweep exited with code {code}")
        text = out_path.read_text(encoding="utf-8")
        if not (tmp / "sweep.csv.meta.json").is_file():
            raise RuntimeError("sweep wrote no meta.json")
    finally:
        shutil.rmtree(tmp)

    rows = list(csv.reader(io.StringIO(text)))
    wall_col = rows[0].index("wall_time_s")
    kept = io.StringIO()
    writer = csv.writer(kept, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:wall_col] + row[wall_col + 1:])
    cells, walls = [], {}
    for rec in csv.DictReader(io.StringIO(text)):
        cell = f"{rec['variant']}/{rec['depth']}"
        cells.append(_cell_bits(cell, float(rec["mean_y"]),
                                float(rec["std_y"]),
                                {k: float(rec[k]) for k in COST_KEYS}))
        walls[cell] = float(rec["wall_time_s"])
    csv_hash = hashlib.sha256(kept.getvalue().encode()).hexdigest()
    return Output(bits={"csv_sha256": csv_hash, "cells": cells},
                  cell_walls=walls)


def _run_oracle(w: Workload, depth: int) -> Output:
    value = analysis.deterministic_picard(_make_problem(w), depth,
                                          w.quad_order, w.t, w.x)
    return Output(bits={"cells": [{"cell": "oracle", "value": value.hex()}]},
                  cell_walls={})


def run_once(w: Workload, seed: int, workdir: Path) -> Output:
    """One full workload call; ``workdir`` takes the sweep's temporary files."""
    if w.kind == "replications":
        return _run_replications(w, seed, w.depths[0])
    if w.kind == "sweep":
        return _run_sweep(w, seed, workdir)
    return _run_oracle(w, w.depths[0])


def warm_up(w: Workload) -> None:
    """Untimed depth-1 call: fills the quadrature caches before timing."""
    if w.kind == "oracle":
        _run_oracle(w, 1)
        return
    _run_replications(replace(w, replications=2), GOLDEN_SEED, 1)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check(w: Workload, seed: int, bits: dict, golden: dict) -> list[str]:
    """Problems with ``bits`` against the golden bits; empty when correct.

    At GOLDEN_SEED every bit must match.  At other seeds the cost counters
    and the oracle value do not depend on the seed and must match exactly,
    and each mean must lie within MEAN_SIGMAS standard errors of the
    golden mean.
    """
    if seed == GOLDEN_SEED:
        return [] if bits == golden else ["output bits differ from golden.json"]
    errors = []
    got = {c["cell"]: c for c in bits["cells"]}
    for g in golden["cells"]:
        c = got.get(g["cell"])
        if c is None:
            errors.append(f"{g['cell']}: missing")
        elif "value" in g:
            if c != g:
                errors.append(f"{g['cell']}: oracle value differs")
        else:
            if c["cost"] != g["cost"]:
                errors.append(f"{g['cell']}: cost counters differ")
            mean, std = float.fromhex(c["mean_y"]), float.fromhex(c["std_y"])
            gmean, gstd = float.fromhex(g["mean_y"]), float.fromhex(g["std_y"])
            se = math.sqrt((std * std + gstd * gstd) / w.replications)
            if not (math.isfinite(mean) and std > 0.0
                    and abs(mean - gmean) <= MEAN_SIGMAS * se):
                errors.append(f"{g['cell']}: mean {mean!r} is not within "
                              f"{MEAN_SIGMAS} standard errors of {gmean!r}")
    if len(got) != len(golden["cells"]):
        errors.append("unexpected cells in output")
    return errors


def time_to_tol(w: Workload, golden: dict, wall_s: float,
                cell_walls: dict) -> float:
    """Seconds to bring every cell's standard error down to TOLERANCE.

    A cell needs (sigma/TOLERANCE)^2 replications, that is that many over R
    calls of its own time, and at least one call.  sigma is the golden
    std_y: a single seed's std_y over R=32 replications has a sampling
    spread of about 25%, and a change that moved the true sigma would change
    the output bits and fail the check first.  The oracle has no sampling
    error, so one call reaches any tolerance.
    """
    total = 0.0
    for g in golden["cells"]:
        sigma = float.fromhex(g["std_y"]) if "std_y" in g else 0.0
        batches = max(1.0, (sigma / TOLERANCE) ** 2 / w.replications)
        total += batches * cell_walls.get(g["cell"], wall_s)
    return total
