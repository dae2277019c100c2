import dataclasses
import gc
import math
import types

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from mlpicard import (InvalidTimeError, MissingBoundsError, MlpConfig,
                      NonFiniteIntegrandError, OracleUnavailableError,
                      TheoremNotApplicableError, deterministic_picard,
                      estimate, make_problem, run_replications, theorem_bound)
from mlpicard import analysis, mlp
from mlpicard.analysis import (MAX_ORACLE_DEPTH, _barycentric_weights,
                               _interpolate, _reference_gauss)
from mlpicard.quadrature import quadrature_error_bound


def picard_coefficient(alpha, horizon, q, depth, t, memo=None):
    """Closed-form cosine coefficient of the quadrature Picard iterates.

    For f(y) = alpha * y in d = 1 the iterates stay in the span of cos(x):
    u_k(t, x) = a_k(t) cos(x) with a_k given by this recursion over the
    same per-interval Gauss-Legendre rules the solver uses.
    """
    if memo is None:
        memo = {}
    if depth == 0:
        return 0.0
    key = (depth, t)
    if key in memo:
        return memo[key]
    xs, ws = leggauss(q)
    nodes = (xs * (horizon - t) + (horizon + t)) / 2.0
    weights = ws * (horizon - t) / 2.0
    val = math.exp(-(horizon - t) / 2.0)
    val += alpha * sum(
        w * math.exp(-(s - t) / 2.0)
        * picard_coefficient(alpha, horizon, q, depth - 1, s, memo)
        for s, w in zip(nodes, weights))
    memo[key] = val
    return val


# --- theorem_bound ------------------------------------------------------

def test_bias_bound_is_exact_sum_of_terms():
    # linear-y with alpha < 0 used to declare f_lipschitz = alpha, which made
    # the quadrature, Picard and bias terms negative
    for alpha, n, m, q in [(0.3, 1, 8, 4), (0.3, 2, 8, 4), (0.3, 4, 8, 4),
                           (-0.5, 2, 4, 2), (-0.5, 3, 4, 2)]:
        b = theorem_bound(make_problem("linear-y", alpha=alpha),
                          MlpConfig("modified", n, m, q), 0.2)
        assert b.bias_bound == b.quadrature_term + b.mc_term + b.picard_term
        for term in (b.quadrature_term, b.mc_term, b.picard_term,
                     b.variance_bound, b.c1, b.c2):
            assert term >= 0.0 and math.isfinite(term)


def test_c1_formula():
    p = make_problem("linear-y", alpha=0.3)
    for m in (4, 25, 100):
        b = theorem_bound(p, MlpConfig("modified", 2, m, 4), 0.0)
        want = max(2.0 * (1.0 + 1.0 / math.sqrt(m)),
                   p.bounds.terminal_bound + p.bounds.f_zero_bound * 1.0)
        assert b.c1 == want


def test_c2_closed_form_at_zero_lipschitz():
    p = make_problem("zero-gen", horizon=1.5)
    for q in (2, 4):
        b = theorem_bound(p, MlpConfig("modified", 2, 8, q), 0.0)
        want = (math.exp(1.0 / 3.0) * math.sqrt(math.pi) / 2.0
                * 1.5 ** (2 * q + 1) / (2 * q + 1))
        assert b.c2 == pytest.approx(want, rel=1e-15)


def test_terms_at_final_time():
    p = make_problem("linear-y", alpha=0.4)
    m, n = 9, 3
    b = theorem_bound(p, MlpConfig("modified", n, m, 4), 1.0)
    assert b.picard_term == 0.0
    assert b.mc_term == pytest.approx((b.c1 / 3.0) ** n, rel=1e-15)
    assert b.variance_bound == pytest.approx(b.c1 / 3.0, rel=1e-15)


def test_bound_decreases_with_samples():
    zero = make_problem("zero-gen")
    vals = [theorem_bound(zero, MlpConfig("modified", 3, m, 4), 0.0).bias_bound
            for m in (4, 16, 64)]
    assert vals[0] > vals[1] > vals[2]
    # one verified regime point with a nonzero Lipschitz constant
    lin = make_problem("linear-y", alpha=0.3)
    b4 = theorem_bound(lin, MlpConfig("modified", 3, 4, 4), 0.0).bias_bound
    b8 = theorem_bound(lin, MlpConfig("modified", 3, 8, 4), 0.0).bias_bound
    assert b8 < b4


def test_quadrature_term_decreases_with_order():
    p = make_problem("linear-y", alpha=0.8)
    q4 = theorem_bound(p, MlpConfig("modified", 2, 8, 4), 0.0)
    q8 = theorem_bound(p, MlpConfig("modified", 2, 8, 8), 0.0)
    assert 0.0 < q8.quadrature_term < q4.quadrature_term


def test_variance_bound_dominates_observed_std():
    p = make_problem("linear-y", alpha=0.3)
    cfg = MlpConfig("modified", 2, 16, 8, seed=1)
    stats = run_replications(p, cfg, 0.0, 0.0, replications=50)
    bound = theorem_bound(p, cfg, 0.0).variance_bound
    assert stats.std_y <= bound


def test_theorem_bound_refusals():
    with pytest.raises(TheoremNotApplicableError):
        theorem_bound(make_problem("z-coupled"), MlpConfig("modified", 2, 4, 4),
                      0.0)
    with pytest.raises(TheoremNotApplicableError):
        theorem_bound(make_problem("linear-y"), MlpConfig("modified", 0, 4, 4),
                      0.0)
    with pytest.raises(MissingBoundsError, match="expectation_derivative"):
        theorem_bound(make_problem("bounded-nonlinear"),
                      MlpConfig("modified", 2, 4, 4), 0.0)
    # linear-y with |alpha| > 1 declares no uniform derivative envelope; at
    # alpha = -2 it used to declare -2 and give negative terms
    for alpha, n, q in [(2.0, 2, 4), (-2.0, 2, 2), (-2.0, 3, 2)]:
        with pytest.raises(MissingBoundsError):
            theorem_bound(make_problem("linear-y", alpha=alpha),
                          MlpConfig("modified", n, 4, q), 0.0)
    for t in (-0.01, 1.01):
        with pytest.raises(InvalidTimeError):
            theorem_bound(make_problem("linear-y"),
                          MlpConfig("modified", 2, 4, 4), t)
    with pytest.raises(ValueError, match="^t must be real"):
        theorem_bound(make_problem("linear-y"), MlpConfig("modified", 2, 4, 4),
                      "0.5")


def test_bound_terms_beyond_the_float_range_read_inf():
    # math.exp and tau ** n used to raise a bare OverflowError
    tb = theorem_bound(make_problem("linear-y", alpha=0.9, horizon=300.0),
                       MlpConfig("modified", 1, 4, 2), 0.0)
    # exp(0.9 * 2 * 300 * 4/3) overflows, exp(0.9 * 2 * 300) does not
    assert tb.mc_term == tb.bias_bound == math.inf
    assert math.isfinite(tb.variance_bound)
    assert math.isfinite(tb.quadrature_term)
    assert math.isfinite(tb.picard_term)
    huge = theorem_bound(make_problem("linear-y", alpha=-0.5, horizon=1e200),
                         MlpConfig("modified", 2, 4, 2), 0.0)
    assert huge.c2 == huge.quadrature_term == huge.picard_term == math.inf
    assert huge.mc_term == huge.bias_bound == math.inf
    # a zero factor keeps its term at 0.0, not inf * 0 = nan
    zero = theorem_bound(make_problem("zero-gen", horizon=1e200),
                         MlpConfig("modified", 2, 4, 2), 0.0)
    assert zero.c2 == math.inf
    assert zero.quadrature_term == zero.picard_term == 0.0
    assert zero.bias_bound == zero.mc_term and math.isfinite(zero.bias_bound)


def test_error_bound_matches_factorial_formula():
    # the lgamma-based evaluation must agree with the literal formula
    for q in range(1, 7):
        for a, b in [(0.0, 1.0), (0.2, 1.7)]:
            want = (math.factorial(q) ** 4 * (b - a) ** (2 * q + 1)
                    / ((2 * q + 1) * math.factorial(2 * q) ** 3)) * 3.0
            got = quadrature_error_bound(q, a, b, 3.0)
            assert got == pytest.approx(want, rel=1e-12)


# --- deterministic_picard -----------------------------------------------

def test_oracle_depth_zero():
    assert deterministic_picard(make_problem("linear-y"), 0, 4, 0.3, 0.1) == 0.0


def test_oracle_refusals():
    with pytest.raises(OracleUnavailableError):
        deterministic_picard(make_problem("linear-y", dim=2), 2, 4, 0.0, 0.0)
    with pytest.raises(OracleUnavailableError):
        deterministic_picard(make_problem("z-coupled"), 2, 4, 0.0, 0.0)
    p = make_problem("linear-y")
    with pytest.raises(ValueError):
        deterministic_picard(p, MAX_ORACLE_DEPTH + 1, 4, 0.0, 0.0)
    with pytest.raises(ValueError):
        deterministic_picard(p, -1, 4, 0.0, 0.0)
    for bad in (7, 200.5, 200.0, True, "200"):
        with pytest.raises(ValueError, match="space_quad"):
            deterministic_picard(p, 2, 4, 0.0, 0.0, space_quad=bad)
    # depth=1.5 used to die in a RecursionError and depth=True to run as 1
    for bad in (1.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="depth"):
            deterministic_picard(p, bad, 4, 0.0, 0.0)
    with pytest.raises(InvalidTimeError):
        deterministic_picard(p, 2, 4, 1.0, 0.0)
    # depth 0 used to return 0.0 for any quad_order
    for depth in (0, 1):
        for bad in (0, 65, 1.5, True, "4"):
            with pytest.raises(ValueError, match="quad_order"):
                deterministic_picard(p, depth, bad, 0.0, 0.0)


def test_oracle_zero_generator_is_gaussian_convolution():
    p = make_problem("zero-gen")
    for depth in (1, 2, 4):
        for t, x in [(0.0, 0.0), (0.25, 0.6), (0.9, -1.2)]:
            got = deterministic_picard(p, depth, 4, t, x)
            want = math.exp(-(1.0 - t) / 2.0) * math.cos(x)
            assert abs(got - want) < 1e-8


def test_oracle_matches_closed_form_linear_y():
    alpha, q = 0.8, 4
    p = make_problem("linear-y", alpha=alpha)
    memo = {}
    for depth in (1, 2, 3):
        for t, x in [(0.0, 0.3), (0.4, -0.2)]:
            got = deterministic_picard(p, depth, q, t, x)
            want = picard_coefficient(alpha, 1.0, q, depth, t, memo) \
                * math.cos(x)
            assert abs(got - want) < 1e-5, (depth, t)


def test_oracle_successive_iterates_contract():
    # at alpha = 7 the increment |u_6 - u_5| = alpha^5 T^5/5! e^{-T/2} cos(x)
    # sits about 1e-3 below the contraction envelope C_f^6 T^6/6! max|u|
    alpha, q, x = 7.0, 3, 0.1
    p = make_problem("linear-y", alpha=alpha)
    m5 = deterministic_picard(p, 5, q, 0.0, x)
    m6 = deterministic_picard(p, 6, q, 0.0, x)
    gap = abs(m6 - m5)
    envelope = alpha ** 6 / math.factorial(6) * p.bounds.solution_bound
    assert gap < envelope
    assert gap / envelope < 5e-3
    analytic = alpha ** 5 / math.factorial(5) * math.exp(-0.5) * math.cos(x)
    assert gap == pytest.approx(analytic, rel=1e-4)


def test_oracle_space_quad_converged():
    p = make_problem("linear-y", alpha=0.8)
    coarse = deterministic_picard(p, 2, 4, 0.0, 0.3, space_quad=150)
    fine = deterministic_picard(p, 2, 4, 0.0, 0.3, space_quad=260)
    assert abs(coarse - fine) < 1e-5


def test_oracle_bits_pinned():
    # float.hex of four oracle values; any change to the interpolation,
    # the space rule or the final evaluation that moves a bit fails here
    cases = [
        (make_problem("linear-y", alpha=0.8), 3, 4, 0.0, 0.3,
         "0x1.3a7979552c78fp+0"),
        (make_problem("zero-gen"), 4, 4, 0.0, 0.0, "0x1.368b2fc6f961bp-1"),
        (make_problem("linear-y", alpha=0.8), 3, 4, 0.4, -0.2,
         "0x1.287f97f2d57cap+0"),
        (make_problem("linear-y", alpha=7.0), 6, 3, 0.0, 0.1,
         "0x1.8e076af079f71p+7"),
    ]
    for p, depth, q, t, x, want in cases:
        got = deterministic_picard(p, depth, q, t, x).hex()
        assert got == want, (p.name, depth, q, t, x)


def test_oracle_leaves_no_cyclic_garbage():
    # the memo and the grid arrays are freed when the call returns, not
    # left for the cyclic collector
    p = make_problem("linear-y", alpha=0.8)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        deterministic_picard(p, 3, 4, 0.0, 0.3)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not [o for o in garbage if isinstance(o, types.FunctionType)]
    assert not [o for o in garbage if isinstance(o, dict) and any(
        isinstance(v, np.ndarray) for v in o.values())]


@pytest.mark.filterwarnings("error")
def test_interpolant_exact_on_polynomials_and_nodes():
    # the oracle's grid on [x0 - 12, x0 + 12]; warnings are errors, so a
    # division by zero at a node that is not masked fails the test
    x0, half = 0.3, 12.0
    rng = np.random.default_rng(3)
    for n in (200, 16):
        grid = x0 + half * _reference_gauss(n)[0]
        lam = _barycentric_weights(n)

        def interp(pts, values):
            pts = np.asarray(pts, dtype=np.float64)
            return _interpolate(grid, lam, pts, values,
                                np.empty((pts.size, n)))

        # a polynomial of degree n - 1 is reproduced to rounding
        coef = rng.standard_normal(n) / np.arange(1, n + 1)
        poly = np.polynomial.Legendre(coef, domain=[x0 - half, x0 + half])
        pts = rng.uniform(grid[0], grid[-1], 5000)
        err = np.abs(interp(pts, poly(grid)) - poly(pts)).max()
        assert err < 1e-12 * np.abs(poly(grid)).max(), n

        values = np.cos(grid)
        # grid nodes and points within 1e-13 of them take the node's value
        assert np.array_equal(interp(grid, values), values)
        for offset in (5e-14, -9e-14):
            assert np.array_equal(interp(grid + offset, values), values)
        # points clipped to the hull ends are exact hits on the end nodes
        clipped = np.clip([grid[0] - 3.0, grid[-1] + 3.0, grid[0] - 1e-9],
                          grid[0], grid[-1])
        assert np.array_equal(interp(clipped, values), values[[0, -1, 0]])


def unpruned_interpolate(grid, lam, pts, values):
    """The interpolant with one reciprocal-distance row per point, hit
    points included: the reference for the pruned _interpolate."""
    near = np.searchsorted(grid, pts).clip(1, grid.size - 1)
    near -= pts - grid[near - 1] < grid[near] - pts
    hit = np.abs(pts - grid[near]) < analysis._NODE_HIT
    inv = np.empty((pts.size, grid.size))
    inv[...] = pts[:, None]
    inv -= grid
    inv[hit] = 1.0
    np.divide(1.0, inv, out=inv)
    num, den = inv @ (lam * values), inv @ lam
    return np.divide(num, den, out=values[near], where=~hit)


@pytest.mark.filterwarnings("error")
def test_pruned_interpolant_matches_unpruned_bits():
    # the oracle's point sets: every grid node displaced by the 64
    # Gaussian nodes over tau, clipped to the hull, so every set has hit
    # rows to drop; one row buffer serves every call, as in _Oracle, and
    # starts out full of NaN
    x0 = 0.3
    u_nodes = _reference_gauss(analysis._DISPLACEMENT_NODES)[0]
    rng = np.random.default_rng(5)
    for n in (16, 17, 150, 200, 201):
        grid = x0 + 12.0 * _reference_gauss(n)[0]
        lam = _barycentric_weights(n)
        rows = np.full((n * analysis._DISPLACEMENT_NODES, n), np.nan)
        values = np.cos(grid) + 0.1 * rng.standard_normal(n)
        for tau in (0.01, 0.3, 1.0):
            u = 8.0 * math.sqrt(tau) * u_nodes
            pts = np.clip(grid[:, None] + u, grid[0], grid[-1]).ravel()
            got = _interpolate(grid, lam, pts, values, rows)
            want = unpruned_interpolate(grid, lam, pts, values)
            assert got.tobytes() == want.tobytes(), (n, tau)
        # too few hits to pad to a full block: every row is used
        pts = np.concatenate([rng.uniform(grid[0], grid[-1], 130), grid[:3]])
        got = _interpolate(grid, lam, pts, values, rows)
        assert got.tobytes() == unpruned_interpolate(
            grid, lam, pts, values).tobytes(), n


def test_oracle_skips_convolutions_of_zeros(monkeypatch):
    # at level 1 the previous iterate is 0 and f(t, 0) = 0 for every
    # builtin, so those convolutions are skipped; a generator with
    # f(t, 0) != 0 still convolves there
    calls = []

    def counting(*args):
        calls.append(1)
        return _interpolate(*args)

    monkeypatch.setattr(analysis, "_interpolate", counting)
    cases = [
        (make_problem("linear-y", alpha=0.8), 3, 20),
        (make_problem("zero-gen"), 4, 0),
        (dataclasses.replace(make_problem("zero-gen"),
                             generator=lambda t, y, z: 0.25 + 0.0 * y), 1, 4),
    ]
    for p, depth, want in cases:
        calls.clear()
        deterministic_picard(p, depth, 4, 0.0, 0.3)
        assert len(calls) == want, (p.name, depth)


@pytest.mark.filterwarnings("error")
def test_oracle_query_point_on_a_node():
    # an odd grid puts its middle node on the query point, which then
    # takes the node's value with no division by zero
    p = make_problem("zero-gen")
    want = math.exp(-0.5) * math.cos(0.3)
    for n in (201, 200):
        assert abs(deterministic_picard(p, 1, 4, 0.0, 0.3, space_quad=n)
                   - want) < 1e-12


def test_oracle_rejects_non_finite_point(monkeypatch):
    p = make_problem("linear-y", alpha=0.8)
    for x in (math.nan, math.inf):
        for depth in (0, 1):
            with pytest.raises(ValueError, match="finite"):
                deterministic_picard(p, depth, 4, 0.0, x)

    def no_sampling(*args):
        raise AssertionError("sampled before the point was checked")

    # estimate refuses the same point before any sampling
    monkeypatch.setattr(mlp, "normal_block", no_sampling)
    for variant in ("modified", "original"):
        with pytest.raises(ValueError, match="finite"):
            estimate(p, MlpConfig(variant, 2, 2, 2), 0.0, math.nan)


def test_oracle_non_finite_generator_raises():
    base = make_problem("linear-y", alpha=0.8)
    p = dataclasses.replace(
        base, generator=lambda t, y, z: np.full(np.shape(y), np.nan))
    with pytest.raises(NonFiniteIntegrandError):
        deterministic_picard(p, 1, 4, 0.0, 0.3)


# --- run_replications ---------------------------------------------------

def test_replications_validation():
    p = make_problem("zero-gen")
    cfg = MlpConfig("modified", 1, 4, 2)
    # 2.9 used to run 2 replications and "3" to run 3
    for replications in (1, 0, True, 2.9, 3.0, "3"):
        with pytest.raises(ValueError, match="replications"):
            run_replications(p, cfg, 0.0, 0.0, replications=replications)
    for threads in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match="threads"):
            run_replications(p, cfg, 0.0, 0.0, 4, threads=threads)
    assert (run_replications(p, cfg, 0.0, 0.0, np.int64(4),
                             threads=np.int64(1))
            == run_replications(p, cfg, 0.0, 0.0, 4))


def test_replications_refuse_non_real_query_before_sampling(monkeypatch):
    # t="0" used to run every slice and then fail with a bare TypeError
    def no_batch(*args):
        raise AssertionError("a slice ran")

    monkeypatch.setattr(analysis, "run_batch", no_batch)
    p = make_problem("linear-y")
    cfg = MlpConfig("modified", 1, 4, 2)
    for t, x, name in (("0", 0.3, "t"), (True, 0.3, "t"), (0.0, "0.3", "x"),
                       (0.0, True, "x")):
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            run_replications(p, cfg, t, x, 2)


def test_std_matches_analytic_scale_zero_gen():
    # single-replication std is std(cos(x + W_T)) / sqrt(M); the sample
    # estimate over 400 replications must land within a factor of 2
    p = make_problem("zero-gen")
    cfg = MlpConfig("modified", 1, 100, 2, seed=31)
    stats = run_replications(p, cfg, 0.0, 0.0, replications=400)
    var = 0.5 * (1.0 + math.exp(-2.0)) - math.exp(-1.0)
    analytic = math.sqrt(var) / 10.0
    assert 0.5 * analytic <= stats.std_y <= 2.0 * analytic
    assert abs(stats.mean_y - math.exp(-0.5)) < 4.0 * stats.std_y / 20.0


def test_abs_error_presence():
    cfg = MlpConfig("modified", 2, 8, 4, seed=2)
    with_ref = run_replications(make_problem("linear-y"), cfg, 0.0, 0.0,
                                replications=8)
    assert with_ref.abs_error is not None and with_ref.abs_error >= 0.0
    without = run_replications(make_problem("bounded-nonlinear"), cfg,
                               0.0, 0.0, replications=8)
    assert without.abs_error is None


def test_mean_z_presence_and_shape():
    p = make_problem("zero-gen", dim=3)
    base = MlpConfig("modified", 1, 30, 2, seed=4)
    stats = run_replications(p, base, 0.0, 0.0, replications=5)
    assert stats.mean_z is None
    with_z = MlpConfig("modified", 1, 30, 2, seed=4, estimate_z=True)
    stats_z = run_replications(p, with_z, 0.0, 0.0, replications=5)
    assert stats_z.mean_z.shape == (3,)


def test_mean_cost_per_replication():
    p = make_problem("zero-gen")
    cfg = MlpConfig("modified", 1, 100, 3, seed=0)
    stats = run_replications(p, cfg, 0.0, 0.0, replications=7)
    assert stats.mean_cost == {"generator_evals": 3.0, "terminal_evals": 100.0,
                               "gaussian_draws": 100.0, "cache_hits": 0.0}


def test_replication_stats_deterministic():
    p = make_problem("bounded-nonlinear")
    cfg = MlpConfig("modified", 2, 6, 3, seed=17)
    a = run_replications(p, cfg, 0.1, 0.4, replications=12)
    b = run_replications(p, cfg, 0.1, 0.4, replications=12)
    assert a.mean_y == b.mean_y and a.std_y == b.std_y


def test_both_variants_consistent_with_oracle():
    # expectation identity: for linear f both schemes target the same
    # quadrature Picard iterate, so the replication mean must straddle it
    alpha, q, depth = 0.8, 4, 3
    p = make_problem("linear-y", alpha=alpha)
    oracle = picard_coefficient(alpha, 1.0, q, depth, 0.0)
    for variant, m, reps in [("modified", 16, 200), ("original", 8, 200)]:
        cfg = MlpConfig(variant, depth, m, q, seed=2024)
        stats = run_replications(p, cfg, 0.0, 0.0, replications=reps)
        band = 4.0 * stats.std_y / math.sqrt(reps)
        assert abs(stats.mean_y - oracle) <= band + 1e-5, (variant, band)
