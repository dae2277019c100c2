"""End-to-end acceptance suite: one check per shipped guarantee.

Each test exercises one guarantee at its stated tolerance and runtime
budget, and prints a single PASS/FAIL line to the real stdout so the
verdicts are visible even under pytest's capture. Every check runs on a
fixed seed, so the statistical bands (4 sigma unless noted) are
deterministic rerun to rerun.
"""

import contextlib
import csv
import json
import math
import time

import numpy as np
import pytest

from mlpicard import (MlpConfig, build_rule, deterministic_picard, estimate,
                      integrate, make_problem, quadrature_error_bound,
                      run_replications, theorem_bound)
from mlpicard.cli import main as cli_main

EPS = np.finfo(float).eps

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    # verdict lines print through suspended capture so they reach the
    # terminal under pytest's default fd-level capture, not only with -s
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _finish(num, name, budget, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    line = (f"[acceptance {num:02d}] {name}: {verdict} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    ctx = _CAPTURE.disabled() if _CAPTURE is not None else contextlib.nullcontext()
    with ctx:
        print(line, flush=True)
    assert ok, line
    assert in_budget, line


def _one_sided_slack(q, exact):
    # absolute floor plus the resolution of the float antiderivative at
    # this magnitude; a tighter absolute tolerance is below one ulp of
    # the reference value for the large t^10 integrals
    return 1e-12 + (2 * q + 4) * EPS * abs(exact)


def test_01_quadrature_polynomial_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for q in range(1, 13):
        for _ in range(50):
            deg = int(rng.integers(0, 2 * q))
            coefs = rng.uniform(-1.0, 1.0, size=deg + 1)
            a = rng.uniform(-2.0, 0.0)
            b = a + rng.uniform(0.5, 4.0)
            poly = np.polynomial.Polynomial(coefs)
            anti = poly.integ()
            exact = anti(b) - anti(a)
            if abs(exact) < 0.5:
                coefs = coefs.copy()
                coefs[0] += (1.0 - exact) / (b - a)
                poly = np.polynomial.Polynomial(coefs)
                anti = poly.integ()
                exact = anti(b) - anti(a)
            approx = integrate(build_rule(q, a, b), poly)
            worst = max(worst, abs(approx - exact) / abs(exact))
    _finish(1, "polynomial exactness through degree 2q-1", 1.0, t0,
            worst <= 1e-10, f"max relative error {worst:.2e} <= 1e-10")


def test_02_quadrature_one_sidedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    cases = [
        (np.exp, np.exp),
        (np.cosh, np.sinh),
        (lambda t: t ** 4, lambda t: t ** 5 / 5.0),
        (lambda t: t ** 10, lambda t: t ** 11 / 11.0),
    ]
    worst = -np.inf
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(0.0, 5.0, size=2))
        if hi - lo < 1e-3:
            hi = lo + 1e-3
        for g, anti in cases:
            exact = anti(hi) - anti(lo)
            for q in range(1, 9):
                value = integrate(build_rule(q, lo, hi), g)
                worst = max(worst, value - exact - _one_sided_slack(q, exact))
    _finish(2, "one-sided quadrature for convex-derivative integrands",
            1.0, t0, worst <= 0.0,
            f"max signed excess over slacked integral {worst:.2e} <= 0")


def test_03_quadrature_error_bound_covers_measured_error():
    t0 = time.perf_counter()
    ratios = []
    for q in range(1, 7):
        exact = 1.0 / (2 * q + 3)
        approx = integrate(build_rule(q, 0.0, 1.0), lambda t: t ** (2 * q + 2))
        # 2q-th derivative of t^(2q+2) is (2q+2)!/2 * t^2, sup on [0,1]
        bound = quadrature_error_bound(q, 0.0, 1.0,
                                       math.factorial(2 * q + 2) / 2.0)
        ratios.append(bound / abs(approx - exact))
    ok = min(ratios) >= 1.0
    _finish(3, "error-bound formula covers measured error", 1.0, t0, ok,
            f"min bound/error ratio {min(ratios):.2f} >= 1 for q=1..6")


def test_04_zero_generator_collapse_and_dimension_robustness():
    t0 = time.perf_counter()
    collapse_ok = True
    for dim in (1, 10, 50):
        p = make_problem("zero-gen", dim=dim)
        for variant in ("modified", "original"):
            for depth in range(1, 5):
                cfg = MlpConfig(variant=variant, depth=depth,
                                base_samples=3, quad_order=2, seed=31)
                est = estimate(p, cfg, 0.0, np.zeros(dim))
                collapse_ok = collapse_ok and est.diff_accum == 0.0

    # accuracy cells keep the total terminal draw count M^n near 1e4
    cells = [(1, 10_000), (2, 100), (3, 21), (4, 10)]
    worst = -np.inf
    for dim in (1, 10, 50):
        p = make_problem("zero-gen", dim=dim)
        u = math.exp(-dim / 2.0)
        draw_std = math.sqrt(0.5 * (1.0 + math.exp(-2.0 * dim))
                             - math.exp(-dim))
        for variant in ("modified", "original"):
            for depth, m in cells:
                cfg = MlpConfig(variant=variant, depth=depth,
                                base_samples=m, quad_order=2, seed=31)
                est = estimate(p, cfg, 0.0, np.zeros(dim))
                band = 4.0 * draw_std / math.sqrt(float(m) ** depth)
                worst = max(worst, abs(est.y - u) - band)
    ok = collapse_ok and worst <= 0.0
    _finish(4, "zero-generator collapse, d in {1,10,50}", 60.0, t0, ok,
            "difference accumulator exactly 0.0 and worst |y-u| excess over "
            f"4-sigma band {worst:.2e} <= 0")


def test_05_linear_generator_matches_deterministic_oracle():
    t0 = time.perf_counter()
    p = make_problem("linear-y")
    worst = -np.inf
    gaps = []
    for depth in (1, 2, 3):
        cfg = MlpConfig(variant="modified", depth=depth, base_samples=16,
                        quad_order=8, seed=2024)
        stats = run_replications(p, cfg, 0.0, 0.0, 400)
        oracle = deterministic_picard(p, depth, 8, 0.0, 0.0)
        gap = abs(stats.mean_y - oracle)
        band = 4.0 * stats.std_y / math.sqrt(400.0)
        gaps.append(f"n={depth}: {gap:.1e} vs {band:.1e}")
        worst = max(worst, gap - band)
    _finish(5, "replication mean matches deterministic fixed-point oracle",
            120.0, t0, worst <= 0.0, "; ".join(gaps))


def test_06_replication_std_decays_like_inverse_sqrt_m():
    t0 = time.perf_counter()
    p = make_problem("linear-y", alpha=8.0)
    ms = (4, 16, 64)
    stds = []
    for m in ms:
        cfg = MlpConfig(variant="modified", depth=3, base_samples=m,
                        quad_order=4, seed=2024)
        stds.append(run_replications(p, cfg, 0.0, 0.0, 400).std_y)
    slope = float(np.polyfit(np.log(ms), np.log(stds), 1)[0])
    ok = abs(slope + 0.5) <= 0.15
    _finish(6, "std decays like M^-1/2 across M=4,16,64", 300.0, t0, ok,
            f"log-log slope {slope:.3f} within -0.5 +- 0.15")


def test_07_bias_bound_dominates_observed_error():
    t0 = time.perf_counter()
    cells = [(1, 16), (2, 8), (3, 4), (4, 2)]
    worst = -np.inf
    checked = 0
    for name in ("zero-gen", "linear-y"):
        p = make_problem(name)
        u = float(p.reference.u(0.0, np.zeros(1)))
        for variant in ("modified", "original"):
            for depth, m in cells:
                cfg = MlpConfig(variant=variant, depth=depth, base_samples=m,
                                quad_order=4, seed=13)
                stats = run_replications(p, cfg, 0.0, 0.0, 100)
                observed = (abs(stats.mean_y - u)
                            - 4.0 * stats.std_y / math.sqrt(100.0))
                bound = theorem_bound(p, cfg, 0.0).bias_bound
                worst = max(worst, observed - bound)
                checked += 1
    _finish(7, "a-priori bias bound dominates observed error", 300.0, t0,
            worst <= 0.0,
            f"{checked} cells, worst observed-minus-bound {worst:.2e} <= 0")


def _no_reuse_generator_evals(m, q, depth):
    # the modified scheme with a second, independent subtrahend recursion
    # at each sampled point: cost(1) = Q and cost(k) = M cost(k-1)
    # + Q M (r cost(k-1) + 2), where r = 1 at k = 2 (the subtrahend is the
    # known depth-0 value) and r = 2 from k = 3 on
    cost = q
    for k in range(2, depth + 1):
        cost = m * cost + q * m * ((1 if k == 2 else 2) * cost + 2)
    return cost


def test_08_cache_reuse_halves_generator_evals():
    t0 = time.perf_counter()
    p = make_problem("bounded-nonlinear")
    # the no-reuse costs the former cache=False mode counted at M = Q = 2
    no_reuse = {n: _no_reuse_generator_evals(2, 2, n) for n in (3, 4, 5)}
    ok = no_reuse == {3: 208, 4: 2088, 5: 20888}
    ratios = []
    for depth in (3, 4, 5):
        est = estimate(p, MlpConfig("modified", depth, 2, 2, seed=17),
                       0.0, 0.0)
        ratio = est.cost.generator_evals / no_reuse[depth]
        ratios.append(f"n={depth}: {ratio:.3f}")
        ok = ok and ratio <= 0.67
    _finish(8, "subtrahend reuse cuts generator evals against no reuse",
            120.0, t0, ok, "eval ratios " + ", ".join(ratios) + " <= 0.67")


def test_09_cost_recurrence_and_growth_rate():
    t0 = time.perf_counter()
    p = make_problem("bounded-nonlinear")
    m, q = 4, 2
    predicted = {1: q}
    for depth in range(2, 6):
        prev = predicted[depth - 1]
        predicted[depth] = m * prev + q * m * (prev + 2)
    counted = {}
    for depth in range(1, 6):
        cfg = MlpConfig(variant="modified", depth=depth, base_samples=m,
                        quad_order=q, seed=23)
        counted[depth] = estimate(p, cfg, 0.0, 0.0).cost.generator_evals
    exact = counted == predicted
    ratio = counted[5] / counted[4]
    in_band = m * q / 2.0 <= ratio <= 2.0 * m * q
    _finish(9, "generator-eval counts match the cost recurrence", 60.0, t0,
            exact and in_band,
            f"counts {list(counted.values())}, cost(5)/cost(4)="
            f"{ratio:.2f} within factor 2 of MQ={m * q}")


def test_10_thread_count_invariance(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "problem": "linear-y",
        "variants": ["original", "modified"],
        "depths": [1, 2, 3],
        "samples": [4, 8],
        "quad_orders": [2, 4],
        "replications": 4,
        "seed": 11,
    }))
    solve = ["solve", "--problem", "bounded-nonlinear", "--dim", "3",
             "--variant", "both", "--depth", "3", "--samples", "4",
             "--replications", "12", "--estimate-z", "--seed", "5"]
    outputs = {}
    # a sweep and a one-cell-per-variant solve, each on one thread and with
    # --threads unset (every core)
    for label, argv in (("sweep", ["sweep", "--config", str(config)]),
                        ("solve", solve)):
        for threads in (["--threads", "1"], []):
            out = tmp_path / "out.csv"
            assert cli_main(argv + threads + ["--out", str(out)]) == 0
            with open(out, newline="") as fh:
                # wall_time_s is the last column and the only one that differs
                outputs[label, bool(threads)] = [row[:-1]
                                                 for row in csv.reader(fh)]
    same = all(outputs[label, True] == outputs[label, False]
               for label in ("sweep", "solve"))
    _finish(10, "output invariant to worker thread count", 60.0, t0, same,
            f"{len(outputs['sweep', True]) - 1} sweep rows and "
            f"{len(outputs['solve', True]) - 1} solve rows byte-identical at "
            "--threads 1 vs unset (every core), wall time excluded")


def test_11_factorial_and_binomial_inequalities():
    t0 = time.perf_counter()
    stirling_ok = True
    for n in range(1, 21):
        fact = float(math.factorial(n))
        low = math.sqrt(2.0 * math.pi * n) * (n / math.e) ** n
        stirling_ok = stirling_ok and low <= fact <= low * math.exp(1 / 12.0)
    binom_ok = all(math.comb(n, k) < 2 ** n
                   for n in range(1, 31) for k in range(n))
    _finish(11, "factorial sandwich (n<=20) and binomial bound (n<=30)",
            1.0, t0, stirling_ok and binom_ok,
            "both inequality families hold at every index")
