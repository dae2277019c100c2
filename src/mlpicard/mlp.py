"""Multilevel Picard estimators for BSDEs with exact cost accounting.

Two estimators of the solution pair (y, z) at a space-time query point:

* original: level-n estimate with a fresh M^n-sample terminal average and,
  for each level l < n, M^(n-l) samples of the generator difference
  f(y_l) - f(y_{l-1}) at quadrature-displaced points.  Minuend and
  subtrahend recursions at a sampled point use independent streams.
* modified: level-n estimate as the mean of M i.i.d. copies of the
  level-(n-1) estimator at the query point, plus a single quadrature
  correction with the difference f(y_{n-1}) - f(y_{n-2}) at each sampled
  point.  Because a level-(n-1) traversal contains level-(n-2) copies of
  itself at its own query point, the first such copy serves as the
  subtrahend: both generator arguments at a sampled point come out of ONE
  recursion, and estimate returns that pair as Estimate.y_prev/z_prev.

z estimates use the kernel-weighted forms: the terminal part is the
control-variate expression (phi(x+W) - phi(x)) W / (T-t), and quadrature
corrections reuse the displacing increment as the kernel weight.  For the
modified scheme at depth >= 2 the leading z term is the plain mean of the
copies' z estimates.

Counters follow exact recurrences (per run; Q = quad_order, M =
base_samples).  generator_evals for the modified scheme:

    cost(0) = 0, cost(1) = Q, cost(k) = M cost(k-1) + Q M (cost(k-1) + 2)

and for the original scheme:

    g(0) = 0, g(n) = Q + sum_{l=1}^{n-1} Q M^(n-l) (2 + g(l) + g(l-1)).

cache_hits counts reused subtrahend evaluations: hits(k) =
(M + Q M) hits(k-1) + Q M [k >= 3], so hits > 0 exactly when depth >= 3.

All randomness derives from sampling-module stream keys.  Every reduction
runs per row in a fixed order: Monte-Carlo sums go over fixed blocks of
_ROW_BLOCK samples in counter order, and the depth-0 term is evaluated in
chunks of whole rows holding about _CHUNK_VALUES Gaussian values, which
bounds the working set of the chunk's normals, phi arguments and kernel
products.  Results of both variants are therefore bit-identical under any
thread count, batch size, chunk budget or sampling tile size, and so under
any cut of the replications into slices: analysis.run_replications runs
contiguous slices of rows, one run_batch each, on as many worker threads
as its threads argument allows, sized by the working set predicted by
working_set.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import astuple, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .problems import BsdeProblem, _check_bool, _check_int
from .quadrature import (MAX_ORDER, NonFiniteIntegrandError, build_rule,
                         legendre_roots)
from .sampling import StreamKey, check_digests, child_digests, normal_block

MAX_DEPTH = 10
SINGULARITY_FLOOR = 1e-12
REPLICATION_LEVEL = 63  # reserved stream level for replication fan-out
_SPINE_SLOT = 0         # modified: i.i.d. copies at the frame's own point
_POINT_SLOT = 1         # modified: slot 1+j for quadrature point j
_MINUEND_SLOT = 1       # original: slot 1+2j at level l
_SUBTRAHEND_SLOT = 2    # original: slot 2+2j at level l-1
# Gaussian values per depth-0 chunk of whole rows.  It also sizes the
# chunk's phi arguments and kernel products, so it stays well inside L2;
# 2^14 beats it on deep-d1 (3.87 s to 4.49 s), not z-sweep (4.17 to 3.41).
_CHUNK_VALUES = 1 << 16
_ROW_BLOCK = 1 << 12     # samples per fixed reduction block of one row
# Working set of run_batch, fitted to the ru_maxrss growth of both schemes
# at d in {1, 4, 10, 25, 100}, M in {4, 8, 16, 64}, depth 2..5 and 32 to 128
# rows.  Every frame of a top-level row holds a few (rows, d) arrays and
# row vectors (points, increments, digests, generator values) over the
# sum_{j<n} M^j rows of its subtree's levels; z adds the kernel products.
_TREE_ARRAYS = {"modified": 6, "original": 5}   # (rows, d) arrays per tree row
_Z_ARRAYS = 4                                   # more of them with z
_TREE_VECTORS = 16                              # row vectors per tree row
_CHUNK_ARRAYS = 4                               # chunk-sized arrays per call


class InvalidTimeError(ValueError):
    """Query time outside [0, horizon), or a recursion tree whose narrowest
    time interval is not above SINGULARITY_FLOOR."""


@dataclass(frozen=True)
class MlpConfig:
    """Estimator settings shared by both scheme variants."""

    variant: str
    depth: int
    base_samples: int
    quad_order: int
    seed: int = 0
    estimate_z: bool = False

    def __post_init__(self):
        if self.variant not in ("original", "modified"):
            raise ValueError(f"variant must be original|modified, got {self.variant!r}")
        limits = {"depth": (0, MAX_DEPTH), "base_samples": (1, None),
                  "quad_order": (1, MAX_ORDER), "seed": (0, (1 << 64) - 1)}
        for name, (low, high) in limits.items():
            value = _check_int(name, getattr(self, name), low, high)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "estimate_z",
                           _check_bool("estimate_z", self.estimate_z))


@dataclass
class CostCounters:
    generator_evals: int = 0
    terminal_evals: int = 0
    gaussian_draws: int = 0
    cache_hits: int = 0

    def __add__(self, other: "CostCounters") -> "CostCounters":
        return CostCounters(*(a + b for a, b in zip(astuple(self),
                                                     astuple(other))))


@dataclass(frozen=True)
class Estimate:
    """One realized estimator value with its exact cost.  For the modified
    scheme at depth k >= 1, y_prev/z_prev are the first spine copy's
    depth-(k-1) estimate (0.0 and zeros at k = 1), which the child key
    (k-1, 0, 0) replays exactly; otherwise they are None."""

    y: float
    z: Optional[np.ndarray]
    cost: CostCounters
    diff_accum: float
    y_prev: Optional[float]
    z_prev: Optional[np.ndarray]


class _FrameResult(NamedTuple):
    y: np.ndarray
    z: Optional[np.ndarray]
    y_prev: Optional[np.ndarray]
    z_prev: Optional[np.ndarray]


class _Ctx:
    """Per-run state threaded through the recursion."""

    __slots__ = ("problem", "d", "horizon", "M", "Q", "uses_z",
                 "counters", "diff", "groups")

    def __init__(self, problem: BsdeProblem, cfg: MlpConfig, groups: int):
        self.problem = problem
        self.d = problem.dim
        self.horizon = problem.horizon
        self.M = cfg.base_samples
        self.Q = cfg.quad_order
        self.uses_z = problem.generator_uses_z
        self.counters = CostCounters()
        self.diff = np.zeros(groups)
        self.groups = groups


def _zeros_result(B: int, d: int, need_z: bool) -> _FrameResult:
    z = np.zeros((B, d)) if need_z else None
    return _FrameResult(np.zeros(B), z, None, None)


def _check_interval(length: float) -> None:
    if not length > SINGULARITY_FLOOR:
        raise InvalidTimeError(f"time interval {length!r} is not above "
                               f"the singularity floor {SINGULARITY_FLOOR}")


def _nodes(ctx: _Ctx, s: float) -> list:
    """Quadrature nodes on [s, T] as (j, t_j, w_j, t_j - s) tuples."""
    _check_interval(ctx.horizon - s)
    rule = build_rule(ctx.Q, s, ctx.horizon)
    nodes = []
    for j in range(ctx.Q):
        t_j = float(rule.nodes[j])
        _check_interval(t_j - s)
        nodes.append((j, t_j, float(rule.weights[j]), t_j - s))
    return nodes


def _displace(ctx: _Ctx, dig: np.ndarray, xs: np.ndarray, off: int, m: int,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """m increments over dt per row from counters [off, off + m d), and the
    displaced points as (B m, d) rows."""
    B, d = dig.size, ctx.d
    wv = normal_block(dig, off, m * d).reshape(B, m, d)
    wv *= math.sqrt(dt)
    ctx.counters.gaussian_draws += B * m
    return wv, (xs[:, None, :] + wv).reshape(B * m, d)


def _correct(ctx: _Ctx, node: tuple, wv: np.ndarray, a: tuple, b: tuple,
             y: np.ndarray, z: Optional[np.ndarray]):
    """Add the correction w_j mean(f(a) - f(b)) at one quadrature node.

    a and b are the (y, z) minuend and subtrahend values at the displaced
    points (z None: the generator sees zeros); the displacing increments
    wv double as the z kernel weights.  Returns the updated (y, z).
    """
    _, t_j, w_j, dt = node
    B, m, d = wv.shape
    zero_z = np.zeros((B * m, d))
    fa, fb = (np.asarray(ctx.problem.generator(
        t_j, yv, zv if zv is not None else zero_z), dtype=np.float64)
        for yv, zv in (a, b))
    ctx.counters.generator_evals += 2 * B * m
    delta = fa - fb
    # rows stay contiguous per top-level replication throughout the tree
    ctx.diff += np.abs((w_j / m) * delta).reshape(ctx.groups, -1).sum(axis=1)
    dmat = delta.reshape(B, m)
    y = y + w_j * dmat.mean(axis=1)
    if z is not None:
        z = z + (w_j / dt) * (dmat[:, :, None] * wv).mean(axis=1)
    return y, z


def _row_blocks(dig: np.ndarray, off: int, m: int, d: int):
    """Each row's increments at counters [off, off + m d) as (B, cnt, d)
    blocks of _ROW_BLOCK samples, in counter order."""
    for b0 in range(0, m, _ROW_BLOCK):
        cnt = min(_ROW_BLOCK, m - b0)
        yield normal_block(dig, off + b0 * d, cnt * d).reshape(dig.size, cnt, d)


def _base_frame(ctx: _Ctx, dig: np.ndarray, xs: np.ndarray, s: float,
                nodes: list, m: int, kernel_off: int,
                need_z: bool) -> _FrameResult:
    """Depth-0 Picard term with m samples per row, shared by both variants:
    the terminal average of phi(x + W_{T-s}) plus sum_j w_j f(t_j, 0, 0),
    with the z control variate and kernel terms when need_z.

    Stream layout per key: counters [0, m d) hold the terminal increments;
    the kernel increments for node j live at [kernel_off + j m d,
    kernel_off + (j+1) m d), reserved whether or not z is requested.
    Rows go in chunks of about _CHUNK_VALUES Gaussian values, which bounds
    the normals, phi arguments and kernel products alive at once.
    """
    B, d = dig.size, ctx.d
    tau = ctx.horizon - s
    sq = math.sqrt(tau)
    phi0 = (np.asarray(ctx.problem.terminal(xs), dtype=np.float64)
            if need_z else None)
    y = np.empty(B)
    z = np.empty((B, d)) if need_z else None
    # chunks hold whole rows; fold adds a row's block sums in counter order
    rows = max(1, _CHUNK_VALUES // (min(m, _ROW_BLOCK) * d))
    chunks = [slice(lo, lo + rows) for lo in range(0, B, rows)]
    fold = functools.partial(functools.reduce, operator.add)
    for c in chunks:
        ys, zs = [], []
        for w in _row_blocks(dig[c], 0, m, d):
            w *= sq
            phi = ctx.problem.terminal(xs[c, None, :] + w)
            ys.append(phi.sum(axis=1))
            if need_z:
                zs.append(((phi - phi0[c, None])[:, :, None] * w).sum(axis=1))
        y[c] = fold(ys) / m
        if need_z:
            z[c] = fold(zs) / m / tau
    ctx.counters.terminal_evals += B * m + (B if need_z else 0)
    ctx.counters.gaussian_draws += B * m

    zero_y = np.zeros(B)
    zero_z = np.zeros((B, d))
    for j, t_j, w_j, dt in nodes:
        f0 = np.asarray(ctx.problem.generator(t_j, zero_y, zero_z), dtype=np.float64)
        ctx.counters.generator_evals += B
        y += w_j * f0
        if need_z:
            for c in chunks:
                ksum = fold([wk.sum(axis=1) for wk in _row_blocks(
                    dig[c], kernel_off + j * m * d, m, d)])
                z[c] += (w_j / dt) * f0[c, None] * ((ksum / m) * math.sqrt(dt))
            ctx.counters.gaussian_draws += B * m
    return _FrameResult(y, z, None, None)


def _modified_frame(ctx: _Ctx, dig: np.ndarray, xs: np.ndarray, s: float,
                    k: int, need_z: bool) -> _FrameResult:
    """Modified-scheme frame at depth k >= 1 for a batch of rows; y_prev
    and z_prev hold the first spine copy (the depth-0 zeros at k = 1).

    Stream layout per key: quadrature node j uses counters
    [j M d, (j+1) M d) for the displacing increments.
    Children: the M spine copies are (level k-1, slot 0, replica i), the
    per-node sampled points are (level k-1, slot 1+j, replica i).
    """
    B = dig.size
    M, d = ctx.M, ctx.d
    nodes = _nodes(ctx, s)
    if k == 1:
        res = _base_frame(ctx, dig, xs, s, nodes, M, M * d, need_z)
        return res._replace(y_prev=np.zeros(B),
                            z_prev=np.zeros((B, d)) if need_z else None)

    reps = np.arange(M)

    spine_dig = child_digests(dig, k - 1, _SPINE_SLOT, reps).reshape(-1)
    spine_xs = np.repeat(xs, M, axis=0)
    spine = _modified_frame(ctx, spine_dig, spine_xs, s, k - 1, need_z)
    y_mat = spine.y.reshape(B, M)
    y = y_mat.mean(axis=1)
    y_prev = y_mat[:, 0].copy()
    z = z_prev = None
    if need_z:
        z_mat = spine.z.reshape(B, M, d)
        z = z_mat.mean(axis=1)
        z_prev = z_mat[:, 0].copy()

    for node in nodes:
        j, t_j, _, dt = node
        wv, pts = _displace(ctx, dig, xs, j * M * d, M, dt)
        pt_dig = child_digests(dig, k - 1, _POINT_SLOT + j, reps).reshape(-1)
        # one traversal yields both arguments; at k = 2 the subtrahend is
        # the known depth-0 value, so nothing is reused
        pair = _modified_frame(ctx, pt_dig, pts, t_j, k - 1, ctx.uses_z)
        if k > 2:
            ctx.counters.cache_hits += B * M
        y, z = _correct(ctx, node, wv, pair[:2], pair[2:], y, z)
    return _FrameResult(y, z, y_prev, z_prev)


def _original_frame(ctx: _Ctx, dig: np.ndarray, xs: np.ndarray, s: float,
                    n: int, need_z: bool) -> _FrameResult:
    """Original-scheme frame at depth n >= 1 for a batch of rows.

    Stream layout per key: counters [0, M^n d) hold the terminal
    increments; for level l in 1..n-1 and node j the displacing increments
    occupy a fixed block of M^(n-l) d values; the depth-0 kernel increments
    (M^n d per node) follow the level blocks.  The depth-0 term is
    _base_frame with M^n samples, summed per row in _ROW_BLOCK blocks.
    Children: the minuend recursion at (level l, node j, sample i) uses
    slot 1+2j, the independent subtrahend recursion uses slot 2+2j.
    """
    B = dig.size
    M, d = ctx.M, ctx.d
    nodes = _nodes(ctx, s)
    # fixed counter offsets: terminal block, then level blocks, then kernels
    levels_end = (M ** n + ctx.Q * sum(M ** (n - l) for l in range(1, n))) * d
    y, z = _base_frame(ctx, dig, xs, s, nodes, M ** n, levels_end, need_z)[:2]

    off = M ** n * d
    for l in range(1, n):
        m_l = M ** (n - l)
        reps = np.arange(m_l)
        for node in nodes:
            j, t_j, _, dt = node
            wv, pts = _displace(ctx, dig, xs, off + j * m_l * d, m_l, dt)
            dig_a = child_digests(dig, l, _MINUEND_SLOT + 2 * j, reps).reshape(-1)
            sub_a = _original_frame(ctx, dig_a, pts, t_j, l, ctx.uses_z)
            if l >= 2:
                dig_b = child_digests(dig, l, _SUBTRAHEND_SLOT + 2 * j,
                                      reps).reshape(-1)
                sub_b = _original_frame(ctx, dig_b, pts, t_j, l - 1, ctx.uses_z)
            else:
                sub_b = _zeros_result(B * m_l, d, ctx.uses_z)
            y, z = _correct(ctx, node, wv, sub_a[:2], sub_b[:2], y, z)
        off += ctx.Q * m_l * d
    return _FrameResult(y, z, None, None)


def _check_real(name: str, value, scalar: bool = False) -> np.ndarray:
    """value as an integer or float array (0-d if scalar), else a ValueError."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, got {value!r}")
    if scalar and array.ndim:
        raise ValueError(f"{name} must be a scalar, got shape {array.shape}")
    return array


def _check_query(problem: BsdeProblem, depth: int, quad_order: int, t,
                 x) -> tuple[float, np.ndarray]:
    """(t, x) as a float and a (d,) float array, checked before any work
    on a depth-depth tree of order-quad_order rules: t must lie in [0, T),
    the tree's narrowest interval must be above SINGULARITY_FLOOR, and x
    must be real, finite, and a scalar or of shape (d,)."""
    t = float(_check_real("t", t, scalar=True))
    if not 0.0 <= t < problem.horizon:
        raise InvalidTimeError(f"t must lie in [0, {problem.horizon}), got {t}")
    # each frame shrinks the remaining time T - s by at least the factor
    # r = (1 + c_1)/2 (c_1 the smallest Legendre root), both to its first
    # node and to the children it spawns there, so the narrowest interval
    # of a depth-n tree is (T - t) r^n
    r = 0.5 * (1.0 + float(legendre_roots(quad_order)[0]))
    _check_interval((problem.horizon - t) * r ** depth)
    x = _check_real("x", x).astype(np.float64)
    if x.ndim == 0:
        x = np.full(problem.dim, float(x))
    if x.shape != (problem.dim,):
        raise ValueError(f"x must be scalar or shape ({problem.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {x}")
    return t, x


def _check_finite(*values: Optional[np.ndarray]) -> None:
    if not all(v is None or np.isfinite(v).all() for v in values):
        raise NonFiniteIntegrandError(
            "result is not finite: the terminal condition or the "
            "generator returned NaN or infinity")


def working_set(problem: BsdeProblem, cfg: MlpConfig) -> tuple[int, int]:
    """Predicted peak bytes of run_batch as (per row, per call): a call on
    B rows holds about B * per_row + per_call bytes at once."""
    M, d = cfg.base_samples, problem.dim
    arrays = _TREE_ARRAYS[cfg.variant]
    if cfg.estimate_z or problem.generator_uses_z:
        arrays += _Z_ARRAYS
    tree_rows = sum(M ** j for j in range(max(cfg.depth, 1)))  # depth 0: the row
    # the widest depth-0 term: M^n samples per row at the original's top
    m = M ** cfg.depth if cfg.variant == "original" else M
    chunk = max(_CHUNK_VALUES, min(m, _ROW_BLOCK) * d)
    return (8 * tree_rows * (arrays * d + _TREE_VECTORS),
            8 * _CHUNK_ARRAYS * chunk)


def _evaluate(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
              digests: np.ndarray):
    """Check the inputs, run cfg's scheme once per digest row and check
    that the values are finite; z and z_prev are None unless
    cfg.estimate_z.  Returns (result, ctx)."""
    check_digests(digests)
    t, xv = _check_query(problem, cfg.depth, cfg.quad_order, t, x)
    B = digests.size
    ctx = _Ctx(problem, cfg, groups=B)
    need_z = cfg.estimate_z or ctx.uses_z
    xs = np.tile(xv, (B, 1))
    if cfg.depth == 0:
        res = _zeros_result(B, ctx.d, need_z)
    elif cfg.variant == "modified":
        res = _modified_frame(ctx, digests, xs, t, cfg.depth, need_z)
    else:
        res = _original_frame(ctx, digests, xs, t, cfg.depth, need_z)
    if not cfg.estimate_z:
        res = res._replace(z=None, z_prev=None)
    _check_finite(*res)
    return res, ctx


def run_batch(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
              digests: np.ndarray):
    """Evaluate one estimator per digest row; the workhorse behind
    run_replications.  Returns (y, z or None, counters, diff) where y
    and diff have one entry per row and counters are totals over all rows.
    """
    res, ctx = _evaluate(problem, cfg, t, x, digests)
    return res.y, res.z, ctx.counters, ctx.diff


def estimate(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
             key: Optional[StreamKey] = None) -> Estimate:
    """Estimate at (t, x) with the scheme cfg.variant names; key overrides
    seed derivation."""
    root = StreamKey.from_seed(cfg.seed) if key is None else key
    if not isinstance(root, StreamKey):
        raise TypeError(f"key must be a StreamKey, got {key!r}")
    res, ctx = _evaluate(problem, cfg, t, x,
                         np.array([root.digest], dtype=np.uint64))
    y, z, y_prev, z_prev = (None if v is None else v[0].copy() for v in res)
    return Estimate(y=float(y), z=z, cost=ctx.counters,
                    diff_accum=float(ctx.diff[0]), z_prev=z_prev,
                    y_prev=None if y_prev is None else float(y_prev))
