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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import build_rule


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
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


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


def _make_zero_gen(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    return BsdeProblem(
        name="zero-gen",
        dim=dim,
        horizon=horizon,
        terminal=_cos_terminal,
        generator=lambda t, y, z: np.zeros_like(np.asarray(y, dtype=np.float64)),
        generator_uses_z=False,
        reference=_cosine_reference(-dim / 2.0, dim, horizon),
        bounds=ProblemBounds(
            f_lipschitz=0.0,
            f_zero_bound=0.0,
            terminal_bound=1.0,
            solution_bound=1.0,
            expectation_derivative_bound=0.0,
        ),
    )


def _make_linear_y(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    growth = math.exp(max(alpha - dim / 2.0, 0.0) * horizon)
    # F(s) and G(s) are exp(-alpha s) envelopes here, so every s-derivative
    # multiplies by alpha; a single uniform bound only exists for alpha <= 1
    deriv_bound = alpha * growth if alpha <= 1.0 else None
    return BsdeProblem(
        name="linear-y",
        dim=dim,
        horizon=horizon,
        terminal=_cos_terminal,
        generator=lambda t, y, z: alpha * np.asarray(y, dtype=np.float64),
        generator_uses_z=False,
        reference=_cosine_reference(alpha - dim / 2.0, dim, horizon),
        bounds=ProblemBounds(
            f_lipschitz=alpha,
            f_zero_bound=0.0,
            terminal_bound=1.0,
            solution_bound=growth,
            expectation_derivative_bound=deriv_bound,
        ),
    )


def _make_bounded_nonlinear(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    return BsdeProblem(
        name="bounded-nonlinear",
        dim=dim,
        horizon=horizon,
        terminal=_cos_terminal,
        generator=lambda t, y, z: np.sin(np.asarray(y, dtype=np.float64)),
        generator_uses_z=False,
        reference=None,
        bounds=ProblemBounds(
            f_lipschitz=1.0,
            f_zero_bound=0.0,
            terminal_bound=1.0,
            # |u| <= |E phi| + int |sin| <= 1 + T, tighter than Gronwall here
            solution_bound=1.0 + horizon,
            expectation_derivative_bound=None,
        ),
    )


def _make_z_coupled(dim: int, horizon: float, alpha: float) -> BsdeProblem:
    def generator(t, y, z):
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        return np.sin(y) + np.cos(z.sum(axis=-1)) / dim

    return BsdeProblem(
        name="z-coupled",
        dim=dim,
        horizon=horizon,
        terminal=_cos_terminal,
        generator=generator,
        generator_uses_z=True,
        reference=None,
        bounds=ProblemBounds(
            f_lipschitz=1.0,
            f_zero_bound=1.0 / dim,
            terminal_bound=1.0,
            solution_bound=1.0 + (1.0 + 1.0 / dim) * horizon,
            expectation_derivative_bound=None,
        ),
    )


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
    return _BUILDERS[name](dim, horizon, alpha)


def builtin_problems(dim: int = 1, horizon: float = 1.0,
                     alpha: float = 0.3) -> list[BsdeProblem]:
    return [make_problem(name, dim, horizon, alpha) for name in problem_names()]


def pde_residual(problem: BsdeProblem, t: np.ndarray, x: np.ndarray,
                 step: float = 1e-4) -> np.ndarray:
    """Residual du/dt + (1/2) Lap u + f(t, u, grad u) at probe points.

    Central finite differences for the time derivative and the Laplacian;
    the gradient inside f comes from the analytic reference.  Probes must
    keep t at least one step away from {0, T}.  t has shape (N,), x has
    shape (N, d); the residual of an exact reference is O(step^2).
    """
    if problem.reference is None:
        raise ValueError(f"problem {problem.name!r} has no analytic reference")
    ref = problem.reference
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    u_t = np.empty_like(t)
    lap = np.zeros_like(t)
    vals = np.empty_like(t)
    grads = np.empty_like(x)
    fv = np.empty_like(t)
    for i in range(t.size):
        ti = float(t[i])
        xi = x[i]
        vals[i] = ref.u(ti, xi)
        grads[i] = ref.grad_u(ti, xi)
        fv[i] = problem.generator(ti, vals[i:i + 1], grads[i:i + 1])[0]
        u_t[i] = (ref.u(ti + step, xi) - ref.u(ti - step, xi)) / (2.0 * step)
        for k in range(problem.dim):
            e = np.zeros(problem.dim)
            e[k] = step
            lap[i] += (ref.u(ti, xi + e) - 2.0 * vals[i] + ref.u(ti, xi - e)) / step**2
    return u_t + 0.5 * lap + fv


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
    d = problem.dim
    T = problem.horizon
    bounds = problem.bounds or ProblemBounds()
    entries: list[ValidationEntry] = []

    def clamp(excess: float, declared: float) -> float:
        # excesses at arithmetic-noise scale are the check's own rounding,
        # not violations
        tol = 1e-9 * max(1.0, abs(declared))
        return 0.0 if excess <= tol else float(excess)

    xs = rng.normal(scale=2.0, size=(samples, d))
    if bounds.terminal_bound is None:
        entries.append(ValidationEntry("terminal_bound", None, None, "skipped",
                                       "no declared bound"))
    else:
        excess = float(np.max(np.abs(problem.terminal(xs))) - bounds.terminal_bound)
        entries.append(ValidationEntry("terminal_bound", bounds.terminal_bound,
                                       clamp(excess, bounds.terminal_bound),
                                       "checked",
                                       f"{samples} normal(0,4) probes"))

    y1 = rng.normal(scale=3.0, size=samples)
    y2 = rng.normal(scale=3.0, size=samples)
    zs = rng.normal(scale=2.0, size=(samples, d))
    if bounds.f_lipschitz is None:
        entries.append(ValidationEntry("f_lipschitz", None, None, "skipped",
                                       "no declared bound"))
    else:
        worst = 0.0
        for s in np.linspace(0.0, T, 16):
            df = np.abs(problem.generator(float(s), y1, zs)
                        - problem.generator(float(s), y2, zs))
            worst = max(worst, float(np.max(
                df - bounds.f_lipschitz * np.abs(y1 - y2))))
        entries.append(ValidationEntry("f_lipschitz", bounds.f_lipschitz,
                                       clamp(worst, bounds.f_lipschitz),
                                       "checked",
                                       f"{samples} (y1, y2, z) probes on an s grid"))

    if bounds.f_zero_bound is None:
        entries.append(ValidationEntry("f_zero_bound", None, None, "skipped",
                                       "no declared bound"))
    else:
        z0 = np.zeros((samples, d))
        fv = np.abs(problem.generator(0.0, np.zeros(samples), z0))
        worst = float(np.max([np.max(np.abs(
            problem.generator(float(s), np.zeros(1), np.zeros((1, d)))))
            for s in np.linspace(0.0, T, 64)] + [np.max(fv)]))
        entries.append(ValidationEntry("f_zero_bound", bounds.f_zero_bound,
                                       clamp(worst - bounds.f_zero_bound,
                                             bounds.f_zero_bound),
                                       "checked", "s grid and zero probes"))

    if bounds.solution_bound is None or problem.reference is None:
        entries.append(ValidationEntry("solution_bound", bounds.solution_bound,
                                       None, "skipped",
                                       "needs declared bound and reference"))
    else:
        ts = rng.uniform(0.0, T, size=256)
        worst = 0.0
        for ti in ts:
            vals = np.abs(problem.reference.u(float(ti), xs[:256]))
            worst = max(worst, float(np.max(vals)) - bounds.solution_bound)
        entries.append(ValidationEntry("solution_bound", bounds.solution_bound,
                                       clamp(worst, bounds.solution_bound),
                                       "checked",
                                       "256 times x 256 points"))

    if (bounds.expectation_derivative_bound is None or problem.reference is None
            or d != 1 or problem.generator_uses_z):
        entries.append(ValidationEntry(
            "expectation_derivative_bound",
            bounds.expectation_derivative_bound, None, "skipped",
            "needs declared bound, reference, d=1, z-free generator"))
    else:
        worst = _derivative_excess(problem, bounds.expectation_derivative_bound)
        entries.append(ValidationEntry(
            "expectation_derivative_bound",
            bounds.expectation_derivative_bound,
            clamp(worst, bounds.expectation_derivative_bound), "checked",
            "finite differences of smoothed-generator maps, orders 0..4"))
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
    # central-difference stencils, orders 1..4, on s well inside (t, T)
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
            vals = {}
            for order, (offs, coef) in stencils.items():
                acc = 0.0
                for o, c in zip(offs, coef):
                    key = round(o)
                    if key not in vals:
                        vals[key] = _smoothed_generator(problem, t, x,
                                                        float(s + o * h), kernel)
                    acc += c * vals[key]
                deriv = acc / h**order
                worst = max(worst, abs(deriv) - declared)
            if 0 not in vals:
                vals[0] = _smoothed_generator(problem, t, x, float(s), kernel)
            worst = max(worst, abs(vals[0]) - declared)
    return worst
