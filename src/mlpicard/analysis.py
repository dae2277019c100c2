"""Error-bound evaluation, a deterministic d=1 Picard oracle, and
replication statistics.

The bound evaluator reports, for a z-free generator with declared
constants, the three-term bias bound

    n C2 C_d sqrt(Q) (e / 8Q)^(2Q)                (time quadrature)
  + (C1 / sqrt(M))^n exp(C_f sqrt(M) (T-t) (1 + 1/C1))   (Monte Carlo)
  + C_y (T-t)^n C_f^n / n!                        (Picard contraction)

with C1 = max{2 (1 + 1/sqrt(M)), C_phi + C_0 T} and C2 the supremum over
k >= 1 of (e^(1/3) sqrt(pi) / 2) C_f^(k-1) T^(2Q+k) / ((2Q+1)...(2Q+k)),
plus the variance bound (C1 / sqrt(M)) exp(C_f sqrt(M) (T-t)).  The terms
rise while C_f T > 2Q+k and fall after, so the supremum is one term.

The oracle iterates the integral fixed-point map deterministically on a
one-dimensional space grid: Gaussian expectations are Gauss-Legendre
integrals over an 8-sigma window, and iterate values between grid points
come from barycentric interpolation.  Inside each convolution that is the
second (true) form of Berrut and Trefethen (SIAM Review 46, 2004),
sum lam_m v_m/(p - x_m) / sum lam_m/(p - x_m): two matrix-vector products
over one reciprocal-distance matrix, where a point within 1e-13 of a node
takes the node's value.  The query point keeps the normalised first form:
one row of weights costs nothing, and the second form there moves the
value by an ulp.  For a generator linear in y the oracle equals the exact
expectation of either stochastic scheme at the same time-quadrature
order, which makes it a bias oracle that is sharper than any analytic
solution.

The oracle does only the work whose result is used, with the bits of the
full computation.  A generator value with no nonzero entry (level 1 of
every builtin, where the previous iterate is 0 and f(t, 0) = 0) is not
convolved, since its term adds zeros; NaN and inf are nonzero, so they
still reach the non-finite check.  Points that hit a node, such as the
displaced points clipped to the hull ends, get no reciprocal-distance
row.  The kept rows are padded with hit rows to a multiple of 64, since
OpenBLAS's gemv rounds a row in a partial block of 4 rows differently
from one in a full block and the unpruned matrix of space_quad x 64 rows
has full blocks only.  They are written into one buffer per oracle call,
which keeps peak memory where a matrix allocated anew per convolution
would raise it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .mlp import (REPLICATION_LEVEL, CostCounters, InvalidTimeError,
                  MlpConfig, _check_finite, _check_query, _check_real,
                  run_batch, working_set)
from .problems import BsdeProblem, ProblemBounds, _check_int
from .quadrature import MAX_ORDER, build_rule
from .sampling import MAX_REPLICA, StreamKey, child_digests

MAX_ORACLE_DEPTH = 6
MAX_SPACE_QUAD = 512  # oracle buffer: space_quad^2 x 64 floats, 128 MiB
_TAIL_SIGMAS = 8.0     # Gaussian windows truncated at 8 standard deviations
# interpolation hull half-width, in sqrt(T) units; 12 = 8 + 4 keeps every
# displaced evaluation point whose path weight exceeds ~exp(-38) inside the
# hull, so clipping never contaminates the iterates
_GRID_SIGMAS = 12.0
_DISPLACEMENT_NODES = 64
_NODE_HIT = 1e-13      # a point this close to a grid node takes its value
# interpolation rows are built in whole blocks of this many, like the
# space_quad x 64 unpruned matrix: OpenBLAS's gemv rounds a row in a
# partial block of 4 rows differently from one in a full block
_ROW_BLOCK = 64
# predicted bytes of the replication slices in flight together; the
# benchmark's cells fit one slice per worker
_SLICE_BYTES = 1 << 27

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    CORES = os.cpu_count() or 1


class MemoryBudgetError(ValueError):
    """One replication alone is predicted to exceed the slice budget."""


class TheoremNotApplicableError(ValueError):
    """Bound requested outside the covered problem class."""


class MissingBoundsError(ValueError):
    """Problem does not declare every constant the bound needs."""


class OracleUnavailableError(ValueError):
    """Deterministic oracle does not cover the requested problem."""


@dataclass(frozen=True)
class TheoremBound:
    """Literal evaluation of the a-priori error bound."""

    bias_bound: float
    variance_bound: float
    quadrature_term: float
    mc_term: float
    picard_term: float
    c1: float
    c2: float


def _or_inf(fn, *args) -> float:
    """fn(*args), or math.inf where the result overflows the float range."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _product(*factors: float) -> float:
    """Product of nonnegative factors; 0.0 if one is 0.0, also beside inf."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def _c2_supremum(f_lip: float, horizon: float, q: int) -> float:
    """sup_k C_f^(k-1) T^(2q+k) / ((2q+1)...(2q+k)), k >= 1.  Term k is term
    k-1 times C_f T / (2q+k), which falls in k: the peak is the last k where
    that ratio exceeds 1, found in log space where term 1 underflows."""
    rate, lead = f_lip * horizon, 2 * q
    if rate == math.inf:
        return math.inf
    peak = max(1, math.ceil(rate) - lead - 1)  # last k with lead + k < rate
    term = _or_inf(pow, horizon, lead + 1) / (lead + 1)
    if term == 0.0 and peak > 1:
        term = _or_inf(math.exp, (peak - 1) * math.log(f_lip)
                       + (lead + peak) * math.log(horizon)
                       - math.lgamma(lead + peak + 1) + math.lgamma(lead + 1))
    else:
        for k in range(2, peak + 1):
            if term == math.inf:
                break
            term *= rate / (lead + k)
    return (math.exp(1.0 / 3.0) * math.sqrt(math.pi) / 2.0) * term


def theorem_bound(problem: BsdeProblem, cfg: MlpConfig, t: float) -> TheoremBound:
    """Evaluate the a-priori bias and variance bounds at depth cfg.depth.

    Requires a z-free generator and all five declared constants; the
    quadrature term is evaluated with horizon constants (C2 uses T, not
    T - t), the other terms with the remaining time T - t.  A term beyond
    the float range reads math.inf; a term with a zero factor reads 0.0.
    """
    if problem.generator_uses_z:
        raise TheoremNotApplicableError(
            "error bounds cover generators f(t, y) only; "
            f"problem {problem.name!r} declares generator_uses_z")
    if cfg.depth < 1:
        raise TheoremNotApplicableError("bounds are stated for depth >= 1")
    bounds = problem.bounds
    missing = [f.name for f in fields(ProblemBounds)
               if bounds is None or getattr(bounds, f.name) is None]
    if missing:
        raise MissingBoundsError(
            f"problem {problem.name!r} does not declare: {', '.join(missing)}")
    T = problem.horizon
    t = float(_check_real("t", t, scalar=True))
    if not 0.0 <= t <= T:
        raise InvalidTimeError(f"t must lie in [0, {T}], got {t}")

    n, M, q = cfg.depth, cfg.base_samples, cfg.quad_order
    f_lip = bounds.f_lipschitz
    c1 = max(2.0 * (1.0 + 1.0 / math.sqrt(M)),
             bounds.terminal_bound + bounds.f_zero_bound * T)
    c2 = _c2_supremum(f_lip, T, q)
    tau = T - t
    rate = f_lip * math.sqrt(M) * tau

    quad = _product(n, c2, bounds.expectation_derivative_bound, math.sqrt(q),
                    (math.e / (8.0 * q)) ** (2 * q))
    mc = _product(_or_inf(pow, c1 / math.sqrt(M), n),
                  _or_inf(math.exp, rate * (1.0 + 1.0 / c1)))
    picard = _product(bounds.solution_bound, _or_inf(pow, tau, n),
                      _or_inf(pow, f_lip, n)) / math.factorial(n)
    variance = _product(c1 / math.sqrt(M), _or_inf(math.exp, rate))
    return TheoremBound(
        bias_bound=quad + mc + picard,
        variance_bound=variance,
        quadrature_term=quad,
        mc_term=mc,
        picard_term=picard,
        c1=c1,
        c2=c2,
    )


@lru_cache(maxsize=8)
def _reference_gauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=8)
def _barycentric_weights(n: int) -> np.ndarray:
    # for Gauss-Legendre nodes: lambda_m proportional to
    # (-1)^m sqrt((1 - x_m^2) w_m); common factors cancel in the formula
    nodes, weights = _reference_gauss(n)
    lam = np.sqrt((1.0 - nodes * nodes) * weights)
    lam[1::2] *= -1.0
    lam.setflags(write=False)
    return lam


def _interpolate(grid: np.ndarray, lam: np.ndarray, pts: np.ndarray,
                 values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Second-form barycentric interpolant of values at pts in
    [grid[0], grid[-1]]; a point within _NODE_HIT of a node takes its value.

    Only points off the nodes get reciprocal-distance rows.  They fill the
    leading rows of the buffer rows (at least pts.size x grid.size),
    padded with hit rows to a multiple of _ROW_BLOCK; with too few hits to
    pad, every point gets a row.  When pts.size is a multiple of
    _ROW_BLOCK, as in the oracle, every row then sits in a full gemv
    block, so each result keeps the bits of the unpruned matrix.
    """
    near = np.searchsorted(grid, pts).clip(1, grid.size - 1)
    near -= pts - grid[near - 1] < grid[near] - pts
    hit = np.abs(pts - grid[near]) < _NODE_HIT
    keep = ~hit
    pad = -np.count_nonzero(keep) % _ROW_BLOCK
    keep[np.flatnonzero(hit)[:pad]] = True
    kept_hit = hit[keep]
    # fill, then subtract along contiguous rows: faster than subtract.outer
    inv = rows[:kept_hit.size]
    inv[...] = pts[keep, None]
    inv -= grid
    inv[kept_hit] = 1.0     # any non-zero: hit rows are not used
    np.divide(1.0, inv, out=inv)
    num, den = inv @ (lam * values), inv @ lam
    out = values[near]
    out[keep] = np.divide(num, den, out=out[keep], where=~kept_hit)
    return out


class _Oracle:
    """The fixed-point map on one space grid.  iterate takes its memo as an
    argument, so no closure refers to itself and every array of a call is
    freed when the call returns, without waiting for the cyclic collector."""

    def __init__(self, problem: BsdeProblem, quad_order: int,
                 space_quad: int, x0: float):
        self.problem = problem
        self.quad_order = quad_order
        self.horizon = problem.horizon
        ref_nodes, _ = _reference_gauss(space_quad)
        self.lam = _barycentric_weights(space_quad)
        self.grid = x0 + _GRID_SIGMAS * math.sqrt(self.horizon) * ref_nodes
        self.u_nodes, self.u_weights = _reference_gauss(_DISPLACEMENT_NODES)
        self.zero_z = np.zeros((space_quad, 1))
        # reciprocal distances of every convolution, reused call to call
        self.rows = np.empty((space_quad * _DISPLACEMENT_NODES, space_quad))

    def convolve(self, tau, values=None, fn=None):
        # E[g(grid_m + W_tau)] for every grid point, as one quadrature
        grid = self.grid
        scale = _TAIL_SIGMAS * math.sqrt(tau)
        u = scale * self.u_nodes
        dens = (scale * self.u_weights) * np.exp(-u * u / (2.0 * tau)) \
            / math.sqrt(2.0 * math.pi * tau)
        pts = grid[:, None] + u[None, :]
        if fn is not None:
            vals = fn(pts[..., None])
        else:
            clipped = np.clip(pts, grid[0], grid[-1]).ravel()
            vals = _interpolate(grid, self.lam, clipped, values,
                                self.rows).reshape(pts.shape)
        return vals @ dens

    def iterate(self, k: int, s: float, memo: dict) -> np.ndarray:
        if k == 0:
            return np.zeros(self.grid.size)
        key = (k, s)
        if key in memo:
            return memo[key]
        T = self.horizon
        vec = self.convolve(T - s, fn=self.problem.terminal)
        rule = build_rule(self.quad_order, s, T)
        for t_j, w_j in zip(rule.nodes.tolist(), rule.weights.tolist()):
            prev = self.iterate(k - 1, t_j, memo)
            f_prev = np.asarray(self.problem.generator(t_j, prev, self.zero_z),
                                dtype=np.float64)
            # a convolution of zeros adds zeros; NaN and inf are nonzero
            if f_prev.any():
                vec = vec + w_j * self.convolve(t_j - s, values=f_prev)
        memo[key] = vec
        return vec


def deterministic_picard(problem: BsdeProblem, depth: int, quad_order: int,
                         t: float, x, space_quad: int = 200) -> float:
    """Deterministic fixed-point iterate at (t, x) for d = 1 problems.

    Uses the same time-quadrature rule as the stochastic schemes and a
    space_quad-node Gauss-Legendre grid on [x - 12 sqrt(T), x + 12 sqrt(T)];
    depth is capped at 6 because the time-node tree grows like
    quad_order^depth, and space_quad at MAX_SPACE_QUAD = 512, which holds
    the buffer of space_quad^2 x 64 floats allocated up front to 128 MiB.
    Trees below the estimators' singularity floor raise InvalidTimeError:
    at depth 6 and t = 0 that leaves Q <= 11, at most 177,156 memo
    vectors, about 283 MB at space_quad 200.
    """
    if problem.dim != 1:
        raise OracleUnavailableError(
            f"oracle covers d = 1 only, got dim={problem.dim}")
    if problem.generator_uses_z:
        raise OracleUnavailableError(
            "oracle covers generators f(t, y) only; "
            f"problem {problem.name!r} declares generator_uses_z")
    depth = _check_int("depth", depth, 0, MAX_ORACLE_DEPTH)
    quad_order = _check_int("quad_order", quad_order, 1, MAX_ORDER)
    space_quad = _check_int("space_quad", space_quad, 8, MAX_SPACE_QUAD)
    t, (x0,) = _check_query(problem, depth, quad_order, t, x)
    if depth == 0:
        return 0.0
    oracle = _Oracle(problem, quad_order, space_quad, x0)
    final = oracle.iterate(depth, t, {})
    grid, lam = oracle.grid, oracle.lam
    # first (normalised) form at the query point; see the module docstring
    diff = x0 - grid
    hit = np.abs(diff) < _NODE_HIT
    w = lam / np.where(hit, 1.0, diff)
    value = float(np.where(hit.any(), hit, w / w.sum()) @ final)
    _check_finite(value)
    return value


@dataclass(frozen=True)
class RunStats:
    """Sample statistics over independent estimator replications."""

    replications: int
    mean_y: float
    std_y: float
    abs_error: Optional[float]
    mean_cost: dict
    mean_z: Optional[np.ndarray]


def _admit(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
           replications: int, threads: Optional[int]):
    """(t, x, R, workers, slices) of a run_replications call, or the
    ValueError that refuses it, before any allocation or sampling."""
    R = _check_int("replications", replications, 2, MAX_REPLICA)
    threads = CORES if threads is None else _check_int("threads", threads, 1)
    t, x = _check_query(problem, cfg.depth, cfg.quad_order, t, x)
    row, call = working_set(problem, cfg)
    if row + call > _SLICE_BYTES:
        raise MemoryBudgetError(
            f"one replication is predicted to hold {row + call} bytes, "
            f"above the slice budget of {_SLICE_BYTES}")
    workers = min(R, _SLICE_BYTES // (row + call), threads, CORES)
    per_slice = (_SLICE_BYTES // workers - call) // row
    return t, x, R, workers, min(R, workers * -(-R // (workers * per_slice)))


def run_replications(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
                     replications: int,
                     threads: Optional[int] = None) -> RunStats:
    """Run independent replications and reduce them in fixed order.

    Replication r draws its stream from the reserved child
    (level REPLICATION_LEVEL, replica r, slot 0) of the seed's root key.

    The rows run in contiguous slices, one run_batch each, on at most
    threads worker threads (None: every core of the affinity mask; any
    value is capped at those cores), and in more slices when the slices in
    flight would exceed _SLICE_BYTES as predicted by mlp.working_set.
    With one worker the slices run on the calling thread.  Every row is
    reduced on its own, so slices move no bit, like batch size, chunk
    budget and sampling tile size.  If slices fail, the first failure in
    slice order is raised once every slice before it has finished, and
    the slices not yet started are cancelled.  R outside [2, 2^32] (the
    replica field), a bad thread count or query, and a replication over
    the budget alone (MemoryBudgetError) are refused before any
    allocation.  The run holds about 50 bytes per replication besides.
    """
    t, x, R, workers, cuts = _admit(problem, cfg, t, x, replications, threads)
    root = np.array([StreamKey.from_seed(cfg.seed).digest], dtype=np.uint64)
    digests = child_digests(root, REPLICATION_LEVEL, 0, np.arange(R))[0]
    slices = np.array_split(digests, cuts)
    run = partial(run_batch, problem, cfg, t, x)
    if workers == 1:
        parts = list(map(run, slices))
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(run, slices))
    ys, zs, counters, _ = zip(*parts)
    ys = np.concatenate(ys)
    totals = asdict(sum(counters, CostCounters()))
    mean_y = float(ys.mean())
    std_y = float(ys.std(ddof=1))
    abs_error = None
    if problem.reference is not None:
        abs_error = abs(mean_y - float(problem.reference.u(t, x)))
    return RunStats(
        replications=R,
        mean_y=mean_y,
        std_y=std_y,
        abs_error=abs_error,
        mean_cost={k: v / R for k, v in totals.items()},
        mean_z=None if zs[0] is None else np.concatenate(zs).mean(axis=0),
    )
