import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from mlpicard import (CostCounters, Estimate, InvalidTimeError, MlpConfig,
                      NonFiniteIntegrandError, estimate, make_problem)
from mlpicard import mlp, sampling
from mlpicard.mlp import MAX_DEPTH, REPLICATION_LEVEL, run_batch
from mlpicard.sampling import StreamKey, child_digests, child_key


def cfg_for(variant, depth, m=2, q=2, **kw):
    return MlpConfig(variant=variant, depth=depth, base_samples=m,
                     quad_order=q, **kw)


# --- independent counter recurrences -----------------------------------

def modified_counts(m, q, depth, cache, need_z=False):
    """Expected (generator, terminal, gaussian, cache_hit) counters.

    z propagates down the spine only: for a z-free generator the point
    subcalls never compute z, and interior corrections reuse the
    displacement draws as their kernel, so only the leaf adds kernel draws.
    """
    def rec(k, z):
        if k == 1:
            return q, m + (1 if z else 0), m + (q * m if z else 0), 0
        ga, ta, ua, ha = rec(k - 1, z)
        gb, tb, ub, hb = rec(k - 1, False)
        if k == 2 or cache:
            gen = m * ga + q * m * (gb + 2)
            term = m * ta + q * m * tb
            gauss = q * m + m * ua + q * m * ub
            hits = m * ha + q * m * hb + (q * m if k >= 3 else 0)
        else:
            gen = m * ga + q * m * (2 * gb + 2)
            term = m * ta + q * m * 2 * tb
            gauss = q * m + m * ua + q * m * 2 * ub
            hits = 0
        return gen, term, gauss, hits
    return rec(depth, need_z)


def original_counts(m, q, depth, need_z=False):
    def rec(n, z):
        if n == 0:
            return 0, 0, 0
        gen = q
        term = m ** n + (1 if z else 0)
        gauss = m ** n + (q * m ** n if z else 0)
        for level in range(1, n):
            reps = m ** (n - level)
            ga, ta, ua = rec(level, False)
            gb, tb, ub = rec(level - 1, False)
            gen += q * reps * (2 + ga + gb)
            term += q * reps * (ta + tb)
            gauss += q * reps * (1 + ua + ub)
        return gen, term, gauss
    g, t, u = rec(depth, need_z)
    return g, t, u, 0


def observed_counts(est):
    c = est.cost
    return (c.generator_evals, c.terminal_evals, c.gaussian_draws,
            c.cache_hits)


def test_generator_count_frozen_values():
    p = make_problem("bounded-nonlinear")
    frozen_on = {1: 2, 2: 20, 3: 128, 4: 776, 5: 4664}
    frozen_off = {1: 2, 2: 20, 3: 208, 4: 2088, 5: 20888}
    frozen_orig = {1: 2, 2: 18, 3: 122, 4: 810}
    for n, want in frozen_on.items():
        est = estimate(p, cfg_for("modified", n), 0.0, 0.0)
        assert est.cost.generator_evals == want
    for n, want in frozen_off.items():
        est = estimate(p, cfg_for("modified", n, cache=False), 0.0, 0.0)
        assert est.cost.generator_evals == want
    for n, want in frozen_orig.items():
        est = estimate(p, cfg_for("original", n), 0.0, 0.0)
        assert est.cost.generator_evals == want


def test_all_counters_match_recurrences():
    p = make_problem("bounded-nonlinear")
    for m, q in [(2, 2), (3, 1), (2, 3)]:
        for z in (False, True):
            for cache in (True, False):
                for n in range(1, 5):
                    cfg = cfg_for("modified", n, m, q, cache=cache,
                                  estimate_z=z, seed=5)
                    est = estimate(p, cfg, 0.0, 0.0)
                    assert observed_counts(est) == modified_counts(
                        m, q, n, cache, z), (m, q, n, cache, z)
            for n in range(1, 4):
                cfg = cfg_for("original", n, m, q, estimate_z=z, seed=5)
                est = estimate(p, cfg, 0.0, 0.0)
                assert observed_counts(est) == original_counts(m, q, n, z)


def test_depth_zero_is_zero():
    p = make_problem("linear-y")
    est = estimate(p, cfg_for("modified", 0, estimate_z=True), 0.0, 0.0)
    assert est.y == 0.0
    assert est.z.tolist() == [0.0]
    assert est.diff_accum == 0.0
    assert est.cost == CostCounters()


def test_depth_one_variants_bit_equal():
    # at depth 1 both schemes reduce to the same terminal average plus
    # the same f(t_j, 0, 0) quadrature, on the same streams
    for d in (1, 4):
        p = make_problem("linear-y", dim=d, alpha=0.9)
        a = estimate(p, cfg_for("modified", 1, 5, 3,
                                estimate_z=True, seed=9), 0.2, 0.3)
        b = estimate(p, cfg_for("original", 1, 5, 3,
                                estimate_z=True, seed=9), 0.2, 0.3)
        assert a.y == b.y
        assert np.array_equal(a.z, b.z)


def test_cache_on_off_bit_identical_y():
    p = make_problem("bounded-nonlinear")
    for n in (3, 4):
        on = estimate(p, cfg_for("modified", n, seed=3), 0.0, 0.5)
        off = estimate(p, cfg_for("modified", n, seed=3, cache=False),
                       0.0, 0.5)
        assert on.y == off.y
        assert on.diff_accum == off.diff_accum
        assert on.cost.generator_evals < off.cost.generator_evals
        assert on.cost.cache_hits > 0 and off.cost.cache_hits == 0


def test_determinism_and_seed_sensitivity():
    p = make_problem("bounded-nonlinear")
    cfg = cfg_for("modified", 3, seed=11, estimate_z=True)
    a = estimate(p, cfg, 0.1, 0.2)
    b = estimate(p, cfg, 0.1, 0.2)
    assert a.y == b.y and np.array_equal(a.z, b.z)
    c = estimate(p, cfg_for("modified", 3, seed=12, estimate_z=True),
                 0.1, 0.2)
    assert c.y != a.y


def test_zero_generator_collapses_to_terminal_average():
    p = make_problem("zero-gen", dim=3)
    for variant in ("modified", "original"):
        for n in (1, 2, 3):
            est = estimate(p, cfg_for(variant, n, 3, 2, seed=7), 0.0, 0.1)
            assert est.diff_accum == 0.0
            assert abs(est.y) < 1.5  # sanity: an average of cosines


def test_zero_generator_depth2_equals_mean_of_depth1_children():
    # with f identically 0 every correction term vanishes, so the depth-2
    # estimate is exactly the mean of its spine children's leaf estimates
    p = make_problem("zero-gen", dim=2)
    m = 4
    cfg2 = cfg_for("modified", 2, m, 3, seed=21)
    root = StreamKey.from_seed(21)
    parent = estimate(p, cfg2, 0.0, 0.25)
    kids = [estimate(p, cfg_for("modified", 1, m, 3, seed=21), 0.0, 0.25,
                     key=child_key(root, level=1, replica=i, slot=0)).y
            for i in range(m)]
    assert parent.y == np.mean(np.asarray(kids))


def test_paired_recursion_replays_exactly():
    # a modified estimate's y_prev/z_prev are its first spine copy, which a
    # full depth-(k-1) recursion on that child key replays bit for bit; at
    # k = 1 the replay is the depth-0 zero
    p = make_problem("bounded-nonlinear", dim=2)
    root = StreamKey.from_seed(13)
    for depth, cache in itertools.product((1, 2, 3, 4), (True, False)):
        est = estimate(p, cfg_for("modified", depth, 3, 2, seed=13,
                                  estimate_z=True, cache=cache), 0.0, 0.4)
        replay = estimate(p, cfg_for("modified", depth - 1, 3, 2,
                                     estimate_z=True), 0.0, 0.4,
                          key=child_key(root, depth - 1, 0, 0))
        assert type(est.y_prev) is float
        assert est.y_prev.hex() == replay.y.hex(), (depth, cache)
        assert est.z_prev.tobytes() == replay.z.tobytes(), (depth, cache)
    assert estimate(p, cfg_for("modified", 3, 3, 2, seed=13),
                    0.0, 0.4).z_prev is None


def test_prev_is_none_for_original_and_depth_zero():
    p = make_problem("z-coupled", dim=2)
    for variant, depth in (("original", 0), ("original", 1),
                           ("original", 3), ("modified", 0)):
        est = estimate(p, cfg_for(variant, depth, estimate_z=True), 0.0, 0.1)
        assert est.y_prev is None and est.z_prev is None, (variant, depth)


def test_cache_off_counts_the_replay_without_running_it(monkeypatch):
    # the traversal the cache saves would read the same keys in the same
    # shape, so cache off draws exactly what cache on draws and moves
    # only the counters, to the cache-off recurrence
    p = make_problem("bounded-nonlinear", dim=2)
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return sampling.normal_block(*args)

    monkeypatch.setattr(mlp, "normal_block", counting)
    for n in (3, 4):
        runs = []
        for cache in (True, False):
            calls.clear()
            cfg = cfg_for("modified", n, 2, 3, seed=5, estimate_z=True,
                          cache=cache)
            runs.append((estimate(p, cfg, 0.0, 0.2), list(calls)))
        (on, on_calls), (off, off_calls) = runs
        assert off_calls == on_calls, n
        assert off.y.hex() == on.y.hex() and off.diff_accum == on.diff_accum
        assert off.z.tobytes() == on.z.tobytes()
        assert observed_counts(off) == modified_counts(2, 3, n, False, True)
        assert observed_counts(on) == modified_counts(2, 3, n, True, True)


def test_z_estimate_accuracy_zero_gen():
    # du/dx(0, x) = -e^{-T/2} sin(x); control variate keeps the noise small
    p = make_problem("zero-gen")
    x = 0.8
    cfg = cfg_for("modified", 1, 100_000, 2, seed=2024, estimate_z=True)
    est = estimate(p, cfg, 0.0, x)
    true = -math.exp(-0.5) * math.sin(x)
    assert abs(est.z[0] - true) < 0.013


def test_z_shape_and_absence():
    p = make_problem("zero-gen", dim=6)
    with_z = estimate(p, cfg_for("modified", 2, estimate_z=True, seed=1),
                      0.0, 0.0)
    assert with_z.z.shape == (6,)
    without = estimate(p, cfg_for("modified", 2, seed=1), 0.0, 0.0)
    assert without.z is None
    assert with_z.y == without.y


def test_strict_printed_form_changes_z_not_y():
    p = make_problem("zero-gen")
    base = cfg_for("modified", 2, 50, 2, seed=4, estimate_z=True)
    strict = cfg_for("modified", 2, 50, 2, seed=4, estimate_z=True,
                     strict_printed_form=True)
    a = estimate(p, base, 0.0, 0.7)
    b = estimate(p, strict, 0.0, 0.7)
    assert a.y == b.y
    assert not np.array_equal(a.z, b.z)


def test_strict_printed_form_z_degenerates():
    # the reason strict_printed_form is kept only for comparison: its z
    # centres on 0, while the default z centres on grad u
    p = make_problem("zero-gen")
    grad = -math.exp(-0.5) * math.sin(0.3)
    root = np.array([StreamKey.from_seed(3).digest], dtype=np.uint64)
    digests = child_digests(root, REPLICATION_LEVEL, 0, np.arange(400))[0]
    for depth in (2, 3):
        for strict, centre in ((True, 0.0), (False, grad)):
            cfg = cfg_for("modified", depth, 8, 2, estimate_z=True,
                          strict_printed_form=strict)
            z = run_batch(p, cfg, 0.0, 0.3, digests)[1][:, 0]
            sigma = z.std(ddof=1) / math.sqrt(z.size)
            assert abs(z.mean() - centre) < 4.0 * sigma, (depth, strict)


def test_z_coupled_problem_runs_both_variants():
    p = make_problem("z-coupled", dim=2)
    for variant in ("modified", "original"):
        est = estimate(p, cfg_for(variant, 2, 3, 2, seed=6), 0.0, 0.0)
        assert math.isfinite(est.y)
        assert est.diff_accum > 0.0


def test_diff_accum_semantics():
    p = make_problem("linear-y", alpha=0.5)
    leaf = estimate(p, cfg_for("modified", 1, seed=2), 0.0, 0.0)
    assert leaf.diff_accum == 0.0  # no difference terms at depth 1
    deep = estimate(p, cfg_for("modified", 3, seed=2), 0.0, 0.0)
    assert deep.diff_accum > 0.0


def test_invalid_time_rejected():
    p = make_problem("linear-y", horizon=2.0)
    cfg = cfg_for("modified", 2)
    for t in (-0.1, 2.0, 2.5, math.nan):
        with pytest.raises(InvalidTimeError):
            estimate(p, cfg, t, 0.0)


def test_query_next_to_horizon_rejected():
    p = make_problem("linear-y")
    for variant in ("modified", "original"):
        with pytest.raises(InvalidTimeError):
            estimate(p, cfg_for(variant, 2), 1.0 - 1e-13, 0.0)


def test_tree_below_singularity_floor_rejected_before_sampling(monkeypatch):
    # Q = 64 puts the first node 3.5e-4 (T - s) after s, so a depth-4 tree
    # reaches an interval of 1.5e-14; the refusal comes before any work
    p = make_problem("linear-y")

    def no_sampling(*args):
        raise AssertionError("sampled before the tree was checked")

    monkeypatch.setattr(mlp, "normal_block", no_sampling)
    for variant in ("modified", "original"):
        cfg = MlpConfig(variant, depth=4, base_samples=1, quad_order=64)
        with pytest.raises(InvalidTimeError):
            estimate(p, cfg, 0.0, 0.0)
    monkeypatch.undo()
    # the bound is tight: a depth-1 tree spans 3.5e-4 (T - t), which is
    # 3.5e-12 at t = T - 1e-8 and 7e-13 at t = T - 2e-9
    leaf = MlpConfig("modified", depth=1, base_samples=1, quad_order=64)
    assert math.isfinite(estimate(p, leaf, 1.0 - 1e-8, 0.0).y)
    with pytest.raises(InvalidTimeError):
        estimate(p, leaf, 1.0 - 2e-9, 0.0)


def test_non_finite_generator_raises():
    base = make_problem("linear-y", dim=2)
    p = dataclasses.replace(
        base, generator=lambda t, y, z: np.full(np.shape(y), np.nan))
    for variant in ("modified", "original"):
        with pytest.raises(NonFiniteIntegrandError):
            estimate(p, cfg_for(variant, 2, estimate_z=True), 0.0, 0.0)


def test_interior_start_time():
    p = make_problem("linear-y", horizon=2.0, alpha=0.4)
    est = estimate(p, cfg_for("modified", 2, 20, 4, seed=8), 1.5, 0.0)
    # remaining horizon 0.5: u(1.5, 0) = exp((alpha - 1/2) * 0.5)
    assert abs(est.y - math.exp(-0.05)) < 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig("neither", 2, 2, 2)
    with pytest.raises(ValueError):
        MlpConfig("modified", -1, 2, 2)
    with pytest.raises(ValueError):
        MlpConfig("modified", MAX_DEPTH + 1, 2, 2)
    with pytest.raises(ValueError):
        MlpConfig("modified", 2, 0, 2)
    with pytest.raises(ValueError):
        MlpConfig("modified", 2, 2, 0)
    with pytest.raises(ValueError):
        MlpConfig("modified", 2, 2, 65)
    with pytest.raises(ValueError):
        MlpConfig("modified", 2, 2, 2, seed=-1)
    # depth=2.5 used to fail mid-run and depth=True to run as depth 1
    for name in ("depth", "base_samples", "quad_order", "seed"):
        for bad in (2.5, True, "2"):
            fields = dict(variant="modified", depth=2, base_samples=2,
                          quad_order=2, seed=0)
            fields[name] = bad
            with pytest.raises(ValueError, match=name):
                MlpConfig(**fields)
    MlpConfig("modified", np.int64(2), np.int32(2), np.uint8(2),
              seed=np.uint64(7))


def test_numpy_integers_give_python_integer_bits():
    # numpy integers used to overflow in the 64-bit stream arithmetic
    p = make_problem("linear-y", dim=2)
    cases = [("depth", np.int64(2)), ("base_samples", np.int64(2)),
             ("quad_order", np.int32(2)), ("seed", np.int64(3)),
             ("seed", np.uint64(3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("original", "modified"):
            fields = dict(variant=variant, depth=2, base_samples=2,
                          quad_order=2, seed=3, estimate_z=True)
            want = estimate(p, MlpConfig(**fields), 0.0, 0.1)
            for name, value in cases:
                cfg = MlpConfig(**{**fields, name: value})
                assert type(getattr(cfg, name)) is int
                got = estimate(p, cfg, 0.0, 0.1)
                assert got.y.hex() == want.y.hex(), (variant, name)
                assert got.z.tobytes() == want.z.tobytes()
                assert got.cost == want.cost
            got = estimate(make_problem("linear-y", dim=np.int64(2)),
                           MlpConfig(**fields), 0.0, 0.1)
            assert got.y.hex() == want.y.hex()


def test_point_validation():
    p = make_problem("linear-y", dim=3)
    cfg = cfg_for("modified", 1)
    scalar = estimate(p, cfg, 0.0, 0.2)
    vector = estimate(p, cfg, 0.0, np.full(3, 0.2))
    assert scalar.y == vector.y
    with pytest.raises(ValueError):
        estimate(p, cfg, 0.0, np.zeros(2))


def test_run_batch_rows_match_single_runs(monkeypatch):
    # each row sums its samples in fixed blocks of _ROW_BLOCK in counter
    # order, so neither the batch size nor the chunk budget moves a bit;
    # _ROW_BLOCK = 2 makes every row span several blocks, and
    # _CHUNK_VALUES = 1 puts one row in each chunk; the sampling tile size
    # (1: one value per tile, 7: tiles straddle rows and blocks) moves none
    p = make_problem("linear-y", alpha=0.7)
    root = np.array([StreamKey.from_seed(19).digest], dtype=np.uint64)
    digs = child_digests(root, REPLICATION_LEVEL, 0, np.arange(3))[0]
    default_chunk = mlp._CHUNK_VALUES
    for variant, row_block, tile in itertools.product(
            ("modified", "original"), (None, 2), (None, 1, 7)):
        if row_block is not None:
            monkeypatch.setattr(mlp, "_ROW_BLOCK", row_block)
        cfg = cfg_for(variant, 2, 3, 2, seed=19, estimate_z=True)
        ref_y, ref_z, _, _ = run_batch(p, cfg, 0.0, 0.3, digs)
        if tile is not None:
            monkeypatch.setattr(sampling, "_TILE", tile)
        for chunk in (1 << 22, default_chunk, 1):
            monkeypatch.setattr(mlp, "_CHUNK_VALUES", chunk)
            y, z, counters, diff = run_batch(p, cfg, 0.0, 0.3, digs)
            singles = [estimate(p, cfg, 0.0, 0.3,
                                key=child_key(StreamKey.from_seed(19),
                                              REPLICATION_LEVEL, i, 0))
                       for i in range(3)]
            assert y.tolist() == ref_y.tolist()
            assert np.array_equal(z, ref_z)
            assert y.tolist() == [s.y for s in singles]
            assert diff.tolist() == [s.diff_accum for s in singles]
            for i, s in enumerate(singles):
                assert np.array_equal(z[i], s.z)
            total = CostCounters()
            for s in singles:
                total = total + s.cost
            assert counters == total
        monkeypatch.undo()


def test_run_batch_refuses_non_uint64_digests(monkeypatch):
    # int64 + uint64 promotes to float64, so digests 1 and 2 would collapse
    # onto the same counters; the refusal comes before any sampling
    p = make_problem("bounded-nonlinear")
    cfg = MlpConfig("modified", 1, 4, 2)

    def no_sampling(*args):
        raise AssertionError("sampled before the digests were checked")

    monkeypatch.setattr(mlp, "normal_block", no_sampling)
    for bad in (np.array([1, 2]), np.array([1.0, 2.0]), [1, 2]):
        with pytest.raises(TypeError, match="uint64"):
            run_batch(p, cfg, 0.0, 0.0, bad)
    monkeypatch.undo()
    y, _, _, _ = run_batch(p, cfg, 0.0, 0.0, np.array([1, 2], dtype=np.uint64))
    assert y[0] != y[1]


def test_replications_are_distinct():
    p = make_problem("bounded-nonlinear")
    cfg = cfg_for("modified", 2, seed=0)
    root = np.array([StreamKey.from_seed(0).digest], dtype=np.uint64)
    digs = child_digests(root, REPLICATION_LEVEL, 0, np.arange(8))[0]
    y, _, _, _ = run_batch(p, cfg, 0.0, 0.0, digs)
    assert len(set(y.tolist())) == 8


def test_bias_decreases_with_depth_linear_y():
    # |mean - u(0,0)| over replications is non-increasing in depth, up to
    # one confidence-band violation once the Monte-Carlo floor is reached
    from mlpicard import run_replications
    p = make_problem("linear-y", alpha=0.3)
    true = math.exp(0.3 - 0.5)
    gaps, bands = [], []
    for n in (1, 2, 3):
        cfg = cfg_for("modified", n, 16, 8, seed=2024)
        stats = run_replications(p, cfg, 0.0, 0.0, replications=400)
        gaps.append(abs(stats.mean_y - true))
        bands.append(4.0 * stats.std_y / math.sqrt(400.0))
    violations = sum(
        1 for k in range(len(gaps) - 1)
        if gaps[k + 1] > gaps[k] + bands[k] + bands[k + 1])
    assert violations <= 1, (gaps, bands)
