import itertools
import math

import numpy as np
import pytest

from mlpicard.problems import (BsdeProblem, ProblemBounds, make_problem,
                               problem_names, validate_assumptions)


def test_problem_names_sorted_and_complete():
    names = problem_names()
    assert names == sorted(names)
    assert set(names) == {"zero-gen", "linear-y", "bounded-nonlinear",
                          "z-coupled"}


def test_make_problem_unknown_name():
    with pytest.raises(KeyError, match="linear-y"):
        make_problem("no-such-problem")


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_problem("zero-gen", dim=0)
    with pytest.raises(ValueError):
        make_problem("zero-gen", horizon=0.0)
    with pytest.raises(ValueError):
        make_problem("zero-gen", horizon=-1.0)
    # an infinite horizon or alpha used to declare NaN or infinite bounds
    for field, bad in itertools.product(("horizon", "alpha"),
                                        (math.inf, -math.inf, math.nan)):
        with pytest.raises(ValueError, match=field):
            make_problem("linear-y", **{field: bad})
    # dim=2.5 and dim=True used to fail inside numpy, and numpy integers
    # to overflow in the stream arithmetic
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="dim"):
            make_problem("linear-y", dim=bad)
    base = make_problem("linear-y", dim=2)
    with pytest.raises(ValueError, match="dim"):
        BsdeProblem("bare", 2.0, 1.0, base.terminal, base.generator, False)
    for horizon in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="horizon"):
            BsdeProblem("bare", 2, horizon, base.terminal, base.generator,
                        False)
    for dim in (np.int64(2), np.uint8(2)):
        p = make_problem("linear-y", dim=dim)
        assert type(p.dim) is int and p.dim == 2
        assert p.bounds == base.bounds
    # a solution bound beyond the float range used to raise a bare
    # OverflowError from math.exp
    for overrides in ({"alpha": 800.0}, {"horizon": 1e308, "alpha": 2.0}):
        for field in ("alpha", "horizon"):
            with pytest.raises(ValueError, match=field):
                make_problem("linear-y", **overrides)
    for field in ("f_lipschitz", "solution_bound",
                  "expectation_derivative_bound"):
        for bad in (-0.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match=field):
                ProblemBounds(**{field: bad})
    ProblemBounds(f_lipschitz=0.0, solution_bound=math.inf)


def test_terminal_is_cos_of_coordinate_sum():
    for dim in (1, 3, 50):
        p = make_problem("zero-gen", dim=dim)
        assert p.terminal(np.zeros((4, dim))).tolist() == [1.0] * 4
        x = np.linspace(-1, 1, 5 * dim).reshape(5, dim)
        assert np.allclose(p.terminal(x), np.cos(x.sum(axis=1)))


def test_generators_vectorize():
    y = np.linspace(-2, 2, 7)
    z = np.tile(np.linspace(-1, 1, 7)[:, None], (1, 3))
    lin = make_problem("linear-y", dim=3, alpha=0.7)
    assert np.allclose(lin.generator(0.1, y, z), 0.7 * y)
    bnd = make_problem("bounded-nonlinear", dim=3)
    assert np.allclose(bnd.generator(0.1, y, z), np.sin(y))
    zc = make_problem("z-coupled", dim=3)
    out = zc.generator(0.1, y, z)
    assert out.shape == (7,)
    assert np.allclose(out, np.sin(y) + np.cos(z.sum(axis=1)) / 3.0)
    assert make_problem("zero-gen").generator(0.1, y, z[:, :1]).tolist() == [0.0] * 7


def test_uses_z_flags():
    assert make_problem("z-coupled").generator_uses_z
    for name in ("zero-gen", "linear-y", "bounded-nonlinear"):
        assert not make_problem(name).generator_uses_z


def test_zero_gen_reference_values():
    for dim in (1, 10):
        p = make_problem("zero-gen", dim=dim, horizon=1.0)
        x = np.full(dim, 0.2)
        assert p.reference.u(1.0, x) == pytest.approx(math.cos(0.2 * dim),
                                                      abs=1e-15)
        assert p.reference.u(0.0, np.zeros(dim)) == pytest.approx(
            math.exp(-dim / 2.0), abs=1e-15)
        g = p.reference.grad_u(0.3, x)
        assert g.shape == (dim,)
        fd = np.empty(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = 1e-6
            fd[k] = (p.reference.u(0.3, x + e) - p.reference.u(0.3, x - e)) / 2e-6
        assert np.allclose(g, fd, atol=1e-8)


def test_linear_y_alpha_zero_matches_zero_gen():
    lin = make_problem("linear-y", dim=2, alpha=0.0)
    zero = make_problem("zero-gen", dim=2)
    for t in (0.0, 0.4, 1.0):
        x = np.array([0.3, -0.1])
        assert lin.reference.u(t, x) == pytest.approx(zero.reference.u(t, x),
                                                      abs=1e-15)


def _integral_equation_gap(problem, t, x):
    # u(t,x) must equal E[phi(x+W_{T-t})] + int_t^T E[f(s, u(s,x+W_{s-t}))] ds
    # with expectations by Gauss-Hermite; the builtin surfaces depend on the
    # coordinate sum only, so a one-dimensional expectation suffices
    d = problem.dim
    T = problem.horizon
    ref = problem.reference
    hx, hw = np.polynomial.hermite.hermgauss(80)
    ones = np.ones(d)

    def mean_over_sum(fn, var):
        theta = math.sqrt(2.0 * var) * hx
        vals = np.array([fn(th) for th in theta])
        return float(hw @ vals) / math.sqrt(math.pi)

    lhs = float(ref.u(t, x))
    terminal_part = mean_over_sum(
        lambda th: problem.terminal((x + (th / d) * ones)[None, :])[0],
        (T - t) * d) if T - t > 0 else float(problem.terminal(x[None, :])[0])
    sx, sw = np.polynomial.legendre.leggauss(40)
    s_nodes = (sx * (T - t) + (T + t)) / 2.0
    s_weights = sw * (T - t) / 2.0
    gen_part = 0.0
    for s, w in zip(s_nodes, s_weights):
        mean_f = mean_over_sum(
            lambda th: float(problem.generator(
                s,
                np.array([ref.u(s, x + (th / d) * ones)]),
                ref.grad_u(s, x + (th / d) * ones)[None, :])[0]),
            (s - t) * d)
        gen_part += w * mean_f
    return abs(lhs - (terminal_part + gen_part))


def test_references_satisfy_integral_equation():
    for name, dim, alpha in [("zero-gen", 1, 0.3), ("zero-gen", 3, 0.3),
                             ("linear-y", 1, 0.8), ("linear-y", 3, 0.5)]:
        p = make_problem(name, dim=dim, horizon=1.0, alpha=alpha)
        for t, shift in [(0.0, 0.0), (0.35, 0.4)]:
            gap = _integral_equation_gap(p, t, np.full(dim, shift))
            assert gap < 1e-9, (name, dim, t, gap)


def test_validate_assumptions_builtins_clean():
    # linear-y with a negative alpha used to declare the negative constants
    # alpha and alpha * growth, which its own probes then violated
    problems = [make_problem(name) for name in problem_names()]
    problems += [make_problem("linear-y", alpha=a) for a in (-2.0, -0.5)]
    for p in problems:
        entries = validate_assumptions(p, samples=4000, seed=1)
        assert entries, p.name
        checked = [e for e in entries if e.status == "checked"]
        assert checked, p.name
        for e in checked:
            assert e.max_violation == 0.0, (p.name, e)
        for e in entries:
            assert e.status in ("checked", "skipped")
            if e.status == "skipped":
                assert e.max_violation is None


def test_validate_assumptions_detects_bad_lipschitz():
    base = make_problem("linear-y", alpha=1.0)
    lying = BsdeProblem(
        name="lying", dim=1, horizon=1.0, terminal=base.terminal,
        generator=base.generator, generator_uses_z=False,
        reference=base.reference,
        bounds=ProblemBounds(f_lipschitz=0.5, f_zero_bound=0.0,
                             terminal_bound=1.0))
    entries = {e.bound: e for e in validate_assumptions(lying, samples=4000,
                                                        seed=3)}
    assert entries["f_lipschitz"].status == "checked"
    assert entries["f_lipschitz"].max_violation > 0.1


def test_validate_assumptions_detects_bad_terminal_bound():
    base = make_problem("zero-gen")
    lying = BsdeProblem(
        name="lying", dim=1, horizon=1.0, terminal=base.terminal,
        generator=base.generator, generator_uses_z=False,
        bounds=ProblemBounds(terminal_bound=0.5))
    entries = {e.bound: e for e in validate_assumptions(lying, samples=4000,
                                                        seed=3)}
    assert entries["terminal_bound"].max_violation == pytest.approx(0.5,
                                                                    abs=0.01)


def test_validate_assumptions_skips_undeclared():
    bare = BsdeProblem(name="bare", dim=2, horizon=1.0,
                       terminal=lambda x: x.sum(axis=-1),
                       generator=lambda t, y, z: 0.0 * np.asarray(y),
                       generator_uses_z=False)
    entries = validate_assumptions(bare, samples=500, seed=0)
    assert all(e.status == "skipped" for e in entries)


def test_validate_assumptions_refuses_no_samples():
    p = make_problem("linear-y")
    with pytest.raises(ValueError, match="samples"):
        validate_assumptions(p, samples=0)
    # these samples used to raise a bare TypeError; seed=True ran as seed 1
    # and seed=-1 failed inside numpy without naming seed
    for bad in (2.5, True, "10"):
        with pytest.raises(ValueError, match="samples"):
            validate_assumptions(p, samples=bad)
    for bad in (-1, True, 1.5):
        with pytest.raises(ValueError, match="seed"):
            validate_assumptions(p, samples=10, seed=bad)
