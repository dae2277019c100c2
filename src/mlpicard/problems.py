"""BSDE problem instances: terminal condition, generator, references, bounds.

A problem fixes the data of the terminal-value equation
    y_t = phi(W_T) + int_t^T f(s, y_s, z_s) ds - int_t^T z_s dW_s
driven by a standard d-dimensional Brownian motion.  Solvers only ever see
this container, so the vectorization contract matters: terminal maps
(..., d) arrays to (...) arrays, and the generator maps (t, y, z) with y of
shape (...) and z of shape (..., d) to shape (...).  The generator always
receives z; problems that ignore it set generator_uses_z = False, which
lets solvers skip gradient recursion and lets the bound evaluator tell when
its theorem applies.

Declared bounds are named by role, not symbol: f_lipschitz bounds the
y-Lipschitz constant of f, f_zero_bound bounds |f(t,0,0)|, terminal_bound
bounds |phi|, solution_bound bounds |u|, and expectation_derivative_bound
bounds every s-derivative of the smoothed-generator maps
    F(s) = E[f(s, u(s, x+W_{s-t}))],   G(s) = E[f(s, u(s, x+W_{s-t})) W/(s-t)].
Bounds are declared, never inferred; a missing bound stays None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .quadrature import build_rule


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_dim(dim) -> int:
    if not _is_int(dim):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return int(dim)


def _check_param(name: str, value, positive: bool = False) -> None:
    # NaN fails both comparisons
    if not (0.0 if positive else -math.inf) < value < math.inf:
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ProblemBounds:
    f_lipschitz: Optional[float] = None
    f_zero_bound: Optional[float] = None
    terminal_bound: Optional[float] = None
    solution_bound: Optional[float] = None
    expectation_derivative_bound: Optional[float] = None


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form solution surface u(t, x) and its spatial gradient."""

    u: Callable[[float, np.ndarray], np.ndarray]
    grad_u: Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BsdeProblem:
    name: str
    dim: int
    horizon: float
    terminal: Callable[[np.ndarray], np.ndarray]
    generator: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    generator_uses_z: bool
    reference: Optional[AnalyticSolution] = None
    bounds: Optional[ProblemBounds] = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))
        _check_param("horizon", self.horizon, positive=True)


def _cos_terminal(x: np.ndarray) -> np.ndarray:
    return np.cos(np.asarray(x, dtype=np.float64).sum(axis=-1))


def _cosine_reference(scale_rate: float, dim: int, horizon: float) -> AnalyticSolution:
    # u(t, x) = exp(scale_rate (T - t)) cos(sum x); scale_rate = alpha - d/2
    def u(t, x):
        x = np.asarray(x, dtype=np.float64)
        return math.exp(scale_rate * (horizon - t)) * np.cos(x.sum(axis=-1))

    def grad_u(t, x):
        x = np.asarray(x, dtype=np.float64)
        g = -math.exp(scale_rate * (horizon - t)) * np.sin(x.sum(axis=-1))
        return np.repeat(g[..., None], dim, axis=-1)

    return AnalyticSolution(u=u, grad_u=grad_u)


def _cos_problem(name: str, dim: int, horizon: float, generator,
                 uses_z: bool, reference: Optional[AnalyticSolution],
                 **bounds) -> BsdeProblem:
    # every builtin has terminal cos(sum x), so |phi| <= 1
    return BsdeProblem(name=name, dim=dim, horizon=horizon,
                       terminal=_cos_terminal, generator=generator,
                       generator_uses_z=uses_z, reference=reference,
                       bounds=ProblemBounds(terminal_bound=1.0, **bounds))


def _make_linear_y(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    growth = math.exp(max(alpha - dim / 2.0, 0.0) * horizon)
    # F(s) and G(s) are exp(-alpha s) envelopes here, so every s-derivative
    # multiplies by alpha; a single uniform bound only exists for alpha <= 1
    return _cos_problem(
        "linear-y", dim, horizon,
        lambda t, y, z: alpha * np.asarray(y, dtype=np.float64), False,
        _cosine_reference(alpha - dim / 2.0, dim, horizon),
        f_lipschitz=alpha, f_zero_bound=0.0, solution_bound=growth,
        expectation_derivative_bound=alpha * growth if alpha <= 1.0 else None)


def _make_zero_gen(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    # linear-y at alpha = 0 with an exact zero generator: 0.0 * y would
    # give -0.0 for negative y and NaN for infinite y
    return replace(_make_linear_y(dim, horizon, 0.0), name="zero-gen",
                   generator=lambda t, y, z: np.zeros_like(
                       np.asarray(y, dtype=np.float64)))


def _make_bounded_nonlinear(dim: int, horizon: float,
                            alpha: float) -> BsdeProblem:
    return _cos_problem(
        "bounded-nonlinear", dim, horizon,
        lambda t, y, z: np.sin(np.asarray(y, dtype=np.float64)), False, None,
        # |u| <= |E phi| + int |sin| <= 1 + T, tighter than Gronwall here
        f_lipschitz=1.0, f_zero_bound=0.0, solution_bound=1.0 + horizon)


def _make_z_coupled(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    def generator(t, y, z):
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        return np.sin(y) + np.cos(z.sum(axis=-1)) / dim

    return _cos_problem(
        "z-coupled", dim, horizon, generator, True, None,
        f_lipschitz=1.0, f_zero_bound=1.0 / dim,
        solution_bound=1.0 + (1.0 + 1.0 / dim) * horizon)


_BUILDERS = {
    "zero-gen": _make_zero_gen,
    "linear-y": _make_linear_y,
    "bounded-nonlinear": _make_bounded_nonlinear,
    "z-coupled": _make_z_coupled,
}


def problem_names() -> list[str]:
    return sorted(_BUILDERS)


def make_problem(name: str, dim: int = 1, horizon: float = 1.0,
                 alpha: float = 0.3) -> BsdeProblem:
    """Build a named problem; alpha only affects 'linear-y'."""
    if name not in _BUILDERS:
        known = ", ".join(problem_names())
        raise KeyError(f"unknown problem {name!r}; known: {known}")
    # before the builder derives bounds from them
    _check_param("horizon", horizon, positive=True)
    _check_param("alpha", alpha)
    return _BUILDERS[name](_check_dim(dim), horizon, alpha)


@dataclass(frozen=True)
class ValidationEntry:
    bound: str
    declared: Optional[float]
    max_violation: Optional[float]
    status: str  # "checked" or "skipped"
    note: str


def validate_assumptions(problem: BsdeProblem, samples: int = 10_000,
                         seed: int = 0) -> list[ValidationEntry]:
    """Spot-check each declared bound on random probes.

    Entries report the worst observed excess over the declared constant
    (0.0 when the bound held everywhere).  Undeclared bounds and checks
    that need an analytic reference are reported as skipped, not failed.
    Derivative boundedness is probed only through order 4 and only in
    d = 1, where the Gaussian smoothing integrals are cheap.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    d, T = problem.dim, problem.horizon
    f, ref = problem.generator, problem.reference
    bounds = problem.bounds or ProblemBounds()
    entries: list[ValidationEntry] = []

    def add(name: str, usable: bool, why: str, note: str, excess) -> None:
        # excess(declared) runs only when the bound is declared and usable
        declared = getattr(bounds, name)
        if declared is None or not usable:
            entries.append(ValidationEntry(name, declared, None, "skipped", why))
            return
        worst = float(excess(declared))
        # excesses at arithmetic-noise scale are the check's own rounding,
        # not violations
        if worst <= 1e-9 * max(1.0, abs(declared)):
            worst = 0.0
        entries.append(ValidationEntry(name, declared, worst, "checked", note))

    xs = rng.normal(scale=2.0, size=(samples, d))
    y1 = rng.normal(scale=3.0, size=samples)
    y2 = rng.normal(scale=3.0, size=samples)
    zs = rng.normal(scale=2.0, size=(samples, d))

    def solution_excess(declared: float) -> float:
        ts = rng.uniform(0.0, T, size=256)
        return max([0.0] + [float(np.max(np.abs(ref.u(float(ti), xs[:256]))))
                            - declared for ti in ts])

    undeclared = "no declared bound"
    add("terminal_bound", True, undeclared, f"{samples} normal(0,4) probes",
        lambda c: np.max(np.abs(problem.terminal(xs))) - c)
    add("f_lipschitz", True, undeclared,
        f"{samples} (y1, y2, z) probes on an s grid",
        lambda c: max([0.0] + [float(np.max(
            np.abs(f(float(s), y1, zs) - f(float(s), y2, zs))
            - c * np.abs(y1 - y2))) for s in np.linspace(0.0, T, 16)]))
    add("f_zero_bound", True, undeclared, "s grid and zero probes",
        lambda c: np.max(
            [np.max(np.abs(f(0.0, np.zeros(samples), np.zeros((samples, d)))))]
            + [np.max(np.abs(f(float(s), np.zeros(1), np.zeros((1, d)))))
               for s in np.linspace(0.0, T, 64)]) - c)
    add("solution_bound", ref is not None,
        "needs declared bound and reference", "256 times x 256 points",
        solution_excess)
    add("expectation_derivative_bound",
        ref is not None and d == 1 and not problem.generator_uses_z,
        "needs declared bound, reference, d=1, z-free generator",
        "finite differences of smoothed-generator maps, orders 0..4",
        lambda c: _derivative_excess(problem, c))
    return entries


def _smoothed_generator(problem: BsdeProblem, t: float, x: float, s: float,
                        kernel: bool) -> float:
    # E[f(s, u(s, x+W)) * (W/(s-t) if kernel else 1)] over W ~ N(0, s-t), d=1
    tau = s - t
    ref = problem.reference
    half = 8.0 * math.sqrt(tau)
    rule = build_rule(64, -half, half)
    w = rule.nodes
    density = np.exp(-w * w / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)
    uu = ref.u(s, (x + w)[:, None])
    fv = problem.generator(s, uu, np.zeros((w.size, 1)))
    if kernel:
        fv = fv * (w / tau)
    return float(rule.weights @ (fv * density))


def _derivative_excess(problem: BsdeProblem, declared: float) -> float:
    # central-difference stencils, orders 1..4, over the offsets -2..2 of
    # s well inside (t, T); each offset is evaluated once per s
    stencils = {
        1: ([-1, 1], [-0.5, 0.5]),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
        4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
    }
    T = problem.horizon
    t, x = 0.0, 0.3
    h = T / 200.0
    worst = 0.0
    for kernel in (False, True):
        for s in np.linspace(t + 0.25 * T, T - 0.1 * T, 5):
            vals = {o: _smoothed_generator(problem, t, x, float(s + o * h),
                                           kernel) for o in range(-2, 3)}
            for order, (offs, coef) in stencils.items():
                acc = 0.0
                for o, c in zip(offs, coef):
                    acc += c * vals[o]
                worst = max(worst, abs(acc / h**order) - declared)
            worst = max(worst, abs(vals[0]) - declared)
    return worst
