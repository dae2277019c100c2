"""Replication slices on a per-call pool of worker threads.

Run under ``taskset -c 0`` these tests cover the path on which every slice
runs on the calling thread; the test that needs a second core is skipped
there.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mlpicard import (MemoryBudgetError, MlpConfig, NonFiniteIntegrandError,
                      analysis, make_problem, mlp, run_replications)
from mlpicard.analysis import CORES
from mlpicard.cli import EXIT_OK, EXIT_PARTIAL, main

SRC = Path(__file__).resolve().parent.parent / "src"


def _bits(stats):
    z = None if stats.mean_z is None else [v.hex() for v in stats.mean_z]
    return stats.mean_y.hex(), stats.std_y.hex(), z, stats.mean_cost


class _Calls:
    """Wraps analysis.run_batch: counts calls, the threads they run on and
    the most calls running at once."""

    def __init__(self, monkeypatch, before=None):
        self.lock = threading.Lock()
        self.calls = self.running = self.most = 0
        self.threads = set()
        inner = analysis.run_batch

        def counted(*args):
            with self.lock:
                self.calls += 1
                self.running += 1
                self.most = max(self.most, self.running)
                self.threads.add(threading.get_ident())
            try:
                if before is not None:
                    args = before(*args)
                return inner(*args)
            finally:
                with self.lock:
                    self.running -= 1

        monkeypatch.setattr(analysis, "run_batch", counted)


def test_slices_are_bit_neutral(monkeypatch):
    # one thread, every core, more threads than cores, one row per slice on
    # one thread, and one row per slice on every core give the same bits
    p = make_problem("bounded-nonlinear", dim=2)
    R = 6
    for variant in ("modified", "original"):
        cfg = MlpConfig(variant, 2, 3, 2, seed=5, estimate_z=True)
        row, call = mlp.working_set(p, cfg)
        runs = {}
        for label, threads, budget, slices in (
                ("one thread", 1, None, 1),
                ("every core", CORES, None, min(R, CORES)),
                ("more threads than cores", CORES + 3, None, min(R, CORES)),
                ("row slices", 1, row + call, R),
                ("row slices on every core", None, CORES * (row + call), R)):
            if budget is not None:
                monkeypatch.setattr(analysis, "_SLICE_BYTES", budget)
            calls = _Calls(monkeypatch)
            runs[label] = _bits(run_replications(p, cfg, 0.1, 0.2, R,
                                                 threads=threads))
            monkeypatch.undo()
            assert calls.calls == slices, label
            assert len(calls.threads) <= min(threads or CORES, CORES), label
            if threads == 1:
                assert calls.threads == {threading.get_ident()}, label
        assert len(set(map(repr, runs.values()))) == 1, runs


def test_threads_one_runs_on_the_calling_thread(tmp_path, monkeypatch):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "schema_version": 1, "problem": "bounded-nonlinear",
        "variants": ["original", "modified"], "depths": [2, 3],
        "samples": 4, "quad_orders": 2, "replications": 16, "seed": 3}))
    for argv in (["solve", "--problem", "bounded-nonlinear", "--depth", "2",
                  "--samples", "4", "--replications", "8"],
                 ["sweep", "--config", str(config)]):
        with monkeypatch.context() as m:
            calls = _Calls(m)
            assert main(argv + ["--threads", "1",
                                "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert calls.calls >= 1, argv
        assert calls.threads == {threading.get_ident()}, argv


def test_sweep_runs_no_more_batches_than_cores(tmp_path, monkeypatch):
    # cells run one after another and --threads 2 caps each cell's slices
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "schema_version": 1, "problem": "bounded-nonlinear",
        "variants": ["original", "modified"], "depths": [2, 3],
        "samples": 4, "quad_orders": 2, "replications": 16, "seed": 3}))
    calls = _Calls(monkeypatch)
    assert main(["sweep", "--config", str(config), "--threads", "2",
                 "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert calls.calls >= 4
    assert calls.most <= min(2, CORES)


@pytest.mark.skipif(CORES < 2, reason="needs a second core")
def test_one_cell_solve_uses_spare_cores(tmp_path, monkeypatch):
    # the first two slices wait for each other, so the test fails (with a
    # broken barrier) unless a second thread takes a slice
    barrier = threading.Barrier(2, timeout=20)
    order = itertools.count(1)

    def meet(*args):
        if next(order) <= 2:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
        return args

    calls = _Calls(monkeypatch, before=meet)
    assert main(["solve", "--problem", "bounded-nonlinear", "--depth", "2",
                 "--samples", "4", "--replications", "8", "--threads", "2",
                 "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert not barrier.broken
    assert len(calls.threads) == 2


def test_failing_slice_raises_and_starts_no_new_slice(monkeypatch):
    p = make_problem("bounded-nonlinear")
    nan = dataclasses.replace(
        p, generator=lambda t, y, z: np.full(np.shape(y), np.nan))
    R = 16
    cfg = MlpConfig("modified", 2, 3, 2, seed=1)
    for threads in (1, CORES):
        # one row per slice
        monkeypatch.setattr(analysis, "_SLICE_BYTES",
                            threads * sum(mlp.working_set(p, cfg)))
        order = itertools.count(1)

        def nan_in_slice_two(problem, *rest):
            n = next(order)
            if n > 2:
                # later slices sleep without the interpreter lock, so the
                # caller cancels the rest before a worker takes another
                time.sleep(0.05)
            return (nan if n == 2 else problem,) + rest

        with monkeypatch.context() as m:
            calls = _Calls(m, before=nan_in_slice_two)
            with pytest.raises(NonFiniteIntegrandError):
                run_replications(p, cfg, 0.0, 0.0, R, threads=threads)
        # on workers, each may take one slice more before the cancel
        limit = 2 if threads == 1 else 2 + threads
        assert calls.calls <= limit, (threads, calls.calls)
        assert calls.running == 0


def test_replication_over_budget_refused_before_sampling(tmp_path,
                                                         monkeypatch):
    # about 340 MB per replication, above the 128 MiB slice budget
    p = make_problem("bounded-nonlinear", dim=100)
    cfg = MlpConfig("modified", 5, 16, 2)
    row, call = mlp.working_set(p, cfg)
    assert row + call > analysis._SLICE_BYTES

    def no_sampling(*args):
        raise AssertionError("sampled before the budget was checked")

    monkeypatch.setattr(mlp, "normal_block", no_sampling)
    with pytest.raises(MemoryBudgetError):
        run_replications(p, cfg, 0.0, 0.0, 2)
    assert main(["solve", "--problem", "bounded-nonlinear", "--dim", "100",
                 "--depth", "5", "--samples", "16", "--quad-order", "2",
                 "--replications", "2",
                 "--out", str(tmp_path / "out.csv")]) == EXIT_PARTIAL


_SPAWN = ("import subprocess, sys; "
          "sys.exit(subprocess.run(sys.argv[1:]).returncode)")
_RSS_PROBE = """
import resource, sys
# the first Gaussian draw imports scipy.special; working_set does not
# count the module, so it is loaded before the baseline is read
import scipy.special
from mlpicard import MlpConfig, analysis, make_problem, run_replications
from mlpicard.mlp import working_set
problem, dim, variant, depth, m, reps = sys.argv[1:]
p = make_problem(problem, dim=int(dim))
cfg = MlpConfig(variant, int(depth), int(m), 4, seed=3)
reps = int(reps)
row, call = working_set(p, cfg)
predicted = reps * row + min(reps, analysis.CORES) * call
assert predicted <= analysis._SLICE_BYTES  # one slice per worker
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_replications(p, cfg, 0.0, 0.0, reps)
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) * 1024
print(predicted, grown)
"""


@pytest.mark.parametrize("case", [
    "bounded-nonlinear 25 modified 3 16 32",
    "bounded-nonlinear 25 modified 3 16 128",
    "bounded-nonlinear 1 original 5 4 64",
])
def test_predicted_bytes_bound_peak_rss(case):
    # ru_maxrss is in KiB on Linux, and exec keeps the peak of the process
    # that forked: a small python in between gives the probe a clean
    # baseline instead of this test process's peak
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN, sys.executable, "-c", _RSS_PROBE,
         *case.split()],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    predicted, grown = map(int, proc.stdout.split())
    assert grown <= predicted <= 3 * grown, (case, predicted, grown)


_FIRST_DRAW = """
import sys
from mlpicard import MlpConfig, analysis, make_problem, run_replications
p = make_problem("bounded-nonlinear", dim=3)
cfg = MlpConfig("modified", 2, 4, 2, seed=11)
assert "scipy.special" not in sys.modules
for threads in (analysis.CORES, 1):
    s = run_replications(p, cfg, 0.0, 0.1, 4 * analysis.CORES,
                         threads=threads)
    print(s.mean_y.hex(), s.std_y.hex(), sorted(s.mean_cost.items()))
"""


@pytest.mark.skipif(CORES < 2, reason="needs a second core")
def test_first_draw_on_worker_threads_matches_one_thread():
    # in a fresh process the slices reach the lazy import of scipy.special
    # concurrently; the bits must be those of a one-thread run
    proc = subprocess.run([sys.executable, "-c", _FIRST_DRAW],
                          capture_output=True, text=True, check=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    threaded, serial = proc.stdout.splitlines()
    assert threaded == serial
