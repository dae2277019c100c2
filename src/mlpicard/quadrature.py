"""Gauss-Legendre quadrature on bounded intervals, plus its error bound.

Nodes are the Legendre roots found by Newton iteration with Chebyshev-angle
initial guesses; weights come from the derivative identity
w = 2 / ((1 - x^2) P'(x)^2).  The three-term recurrence evaluates P and P'
(the Rodrigues form is numerically useless beyond order ~10).  Roots are
symmetrized in pairs so every rule is exactly antisymmetric about the
interval midpoint.

The error bound implements
    [q!]^4 (b-a)^(2q+1) / ((2q+1) [(2q)!]^3) * sup|g^(2q)|
in log space, since its factorial pieces overflow long before the bound
itself leaves the representable range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 64


class InvalidOrderError(ValueError):
    """Quadrature order outside 1..MAX_ORDER."""


class DegenerateIntervalError(ValueError):
    """Interval with upper end not strictly greater than lower end."""


class NonFiniteIntegrandError(ValueError):
    """Integrand returned NaN or infinity at a quadrature node."""


def _legendre_and_derivative(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # returns (P_q(x), P'_q(x)); valid for |x| < 1
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, q + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def _reference_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order; arrays are read-only."""
    k = np.arange(1, q + 1, dtype=np.float64)
    x = np.cos(math.pi * (k - 0.25) / (q + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(q, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # average each +/- root pair; the middle root of an odd rule lands on 0
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])
    _, dp = _legendre_and_derivative(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _check_order(q) -> None:
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
        raise InvalidOrderError(f"order must be an integer, got {q!r}")
    if q < 1 or q > MAX_ORDER:
        raise InvalidOrderError(f"order must lie in 1..{MAX_ORDER}, got {q}")


def legendre_roots(q: int) -> np.ndarray:
    """Roots of the order-q Legendre polynomial, ascending, exactly symmetric."""
    _check_order(q)
    return _reference_rule(q)[0].copy()


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Legendre rule; arrays are read-only."""

    nodes: np.ndarray
    weights: np.ndarray


def build_rule(q: int, a: float, b: float) -> QuadratureRule:
    """Rule with nodes t_j = (c_j (b-a) + (a+b)) / 2 and scaled weights.

    Exact for polynomials of degree <= 2q-1.  The interval must be
    nondegenerate; a zero-length rule has no meaningful nodes.
    """
    _check_order(q)
    roots, ref_weights = _reference_rule(q)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DegenerateIntervalError("interval ends must be finite")
    if not b > a:
        raise DegenerateIntervalError(f"need a < b, got [{a}, {b}]")
    nodes = (roots * (b - a) + (a + b)) / 2.0
    weights = ref_weights * ((b - a) / 2.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, g) -> float:
    """Apply the rule: sum of w_j * g(t_j).

    g is called once on the node array, and its value broadcast to the
    nodes' shape; non-finite values at any node are an error rather than
    a silent NaN result.
    """
    values = np.broadcast_to(np.asarray(g(rule.nodes), dtype=np.float64),
                             rule.nodes.shape)
    if not np.all(np.isfinite(values)):
        bad = rule.nodes[~np.isfinite(values)][0]
        raise NonFiniteIntegrandError(f"integrand non-finite at node {bad}")
    return float(rule.weights @ values)


def quadrature_error_bound(q: int, a: float, b: float, deriv_bound: float) -> float:
    """Worst-case rule error for an integrand with |g^(2q)| <= deriv_bound.

    Evaluated as exp of a log-space sum; underflow rounds to 0.0, overflow
    saturates to inf.  Returns 0.0 on a zero-length interval.
    """
    _check_order(q)
    a = float(a)
    b = float(b)
    if b < a:
        raise DegenerateIntervalError(f"need a <= b, got [{a}, {b}]")
    if deriv_bound < 0.0 or not math.isfinite(deriv_bound):
        raise ValueError("deriv_bound must be finite and nonnegative")
    if b == a or deriv_bound == 0.0:
        return 0.0
    log_bound = (
        4.0 * math.lgamma(q + 1)
        + (2 * q + 1) * math.log(b - a)
        - math.log(2 * q + 1)
        - 3.0 * math.lgamma(2 * q + 1)
        + math.log(deriv_bound)
    )
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf
