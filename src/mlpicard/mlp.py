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
  recursion.  With cache=False the same keyed traversal is simply run a
  second time to extract the subtrahend, which reproduces the identical
  value while paying the redundant cost; y estimates are bit-equal either
  way, only the counters move.

z estimates use the kernel-weighted forms: the terminal part is the
control-variate expression (phi(x+W) - phi(x)) W / (T-t), and quadrature
corrections reuse the displacing increment as the kernel weight.  For the
modified scheme at depth >= 2 the leading z term is the plain mean of the
copies' z estimates; strict_printed_form=True switches it to the
kernel-reweighted mean with fresh terminal-horizon increments
(componentwise product), kept only for comparison because its expectation
degenerates.

Counters follow exact recurrences (per run; Q = quad_order, M =
base_samples).  generator_evals for the modified scheme:

    cost(0) = 0, cost(1) = Q
    cache on:  cost(k) = M cost(k-1) + Q M (cost(k-1) + 2)
    cache off: same through k = 2, then
               cost(k) = M cost(k-1) + Q M (2 cost(k-1) + 2)

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
thread count, batch size, chunk budget or sampling tile size.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, astuple, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .problems import BsdeProblem
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
# on the benchmark 2^14 to 2^17 time alike and 2^22 is slower.
_CHUNK_VALUES = 1 << 16
_ROW_BLOCK = 1 << 12     # samples per fixed reduction block of one row


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
    cache: bool = True
    strict_printed_form: bool = False

    def __post_init__(self):
        if self.variant not in ("original", "modified"):
            raise ValueError(f"variant must be original|modified, got {self.variant!r}")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must lie in 0..{MAX_DEPTH}, got {self.depth}")
        if self.base_samples < 1:
            raise ValueError("base_samples must be >= 1")
        if not 1 <= self.quad_order <= MAX_ORDER:
            raise ValueError(f"quad_order must lie in 1..{MAX_ORDER}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass
class CostCounters:
    generator_evals: int = 0
    terminal_evals: int = 0
    gaussian_draws: int = 0
    cache_hits: int = 0

    def __add__(self, other: "CostCounters") -> "CostCounters":
        return CostCounters(*(a + b for a, b in zip(astuple(self),
                                                     astuple(other))))

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Estimate:
    """One realized estimator value with its exact cost."""

    y: float
    z: Optional[np.ndarray]
    cost: CostCounters
    diff_accum: float


@dataclass(frozen=True)
class PairEstimate:
    """Joint value of consecutive-depth estimates from one recursion tree."""

    y: float
    y_prev: float
    z: Optional[np.ndarray]
    z_prev: Optional[np.ndarray]
    cost: CostCounters
    diff_accum: float


class _FrameResult(NamedTuple):
    y: np.ndarray
    z: Optional[np.ndarray]
    y_prev: Optional[np.ndarray]
    z_prev: Optional[np.ndarray]


class _Ctx:
    """Per-run state threaded through the recursion."""

    __slots__ = ("problem", "cfg", "d", "horizon", "M", "Q", "uses_z",
                 "counters", "diff", "groups")

    def __init__(self, problem: BsdeProblem, cfg: MlpConfig, groups: int):
        self.problem = problem
        self.cfg = cfg
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
             y: np.ndarray, z: Optional[np.ndarray], record: bool = True):
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
    if record:
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
                    k: int, need_z: bool, need_pair: bool,
                    record: bool) -> _FrameResult:
    """Modified-scheme frame at depth k >= 1 for a batch of rows.

    Stream layout per key: quadrature node j uses counters
    [j M d, (j+1) M d) for the displacing increments; the optional
    strict-form terminal increments live at [Q M d, (Q+1) M d).
    Children: the M spine copies are (level k-1, slot 0, replica i), the
    per-node sampled points are (level k-1, slot 1+j, replica i).
    """
    B = dig.size
    M, d = ctx.M, ctx.d
    nodes = _nodes(ctx, s)
    if k == 1:
        res = _base_frame(ctx, dig, xs, s, nodes, M, M * d, need_z)
        if need_pair:
            res = res._replace(y_prev=np.zeros(B),
                               z_prev=np.zeros((B, d)) if need_z else None)
        return res

    reps = np.arange(M)

    spine_dig = child_digests(dig, k - 1, _SPINE_SLOT, reps).reshape(-1)
    spine_xs = np.repeat(xs, M, axis=0)
    spine = _modified_frame(ctx, spine_dig, spine_xs, s, k - 1,
                            need_z, False, record)
    y_mat = spine.y.reshape(B, M)
    y = y_mat.mean(axis=1)
    y_prev = y_mat[:, 0].copy() if need_pair else None
    z = z_prev = None
    if need_z:
        z_mat = spine.z.reshape(B, M, d)
        if ctx.cfg.strict_printed_form:
            tau = ctx.horizon - s
            wt = normal_block(dig, ctx.Q * M * d, M * d).reshape(B, M, d)
            wt *= math.sqrt(tau)
            ctx.counters.gaussian_draws += B * M
            z = (z_mat * wt).mean(axis=1) / tau
        else:
            z = z_mat.mean(axis=1)
        if need_pair:
            z_prev = z_mat[:, 0].copy()

    for node in nodes:
        j, t_j, _, dt = node
        wv, pts = _displace(ctx, dig, xs, j * M * d, M, dt)
        pt_dig = child_digests(dig, k - 1, _POINT_SLOT + j, reps).reshape(-1)
        if k == 2 or ctx.cfg.cache:
            # one traversal yields both arguments; at k = 2 the subtrahend
            # is the known depth-0 value, so nothing is reused
            pair = _modified_frame(ctx, pt_dig, pts, t_j, k - 1,
                                   ctx.uses_z, True, record)
            if k > 2:
                ctx.counters.cache_hits += B * M
        else:
            # cache off: run the identical traversal a second time and read
            # the subtrahend out of the replay; values match bit for bit
            first = _modified_frame(ctx, pt_dig, pts, t_j, k - 1,
                                    ctx.uses_z, False, record)
            replay = _modified_frame(ctx, pt_dig, pts, t_j, k - 1,
                                     ctx.uses_z, True, False)
            pair = first._replace(y_prev=replay.y_prev, z_prev=replay.z_prev)
        y, z = _correct(ctx, node, wv, pair[:2], pair[2:], y, z, record)
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


def _prepare_point(problem: BsdeProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = np.full(problem.dim, float(x))
    if x.shape != (problem.dim,):
        raise ValueError(f"x must be scalar or shape ({problem.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {x}")
    return x


def _check_time(problem: BsdeProblem, t: float) -> float:
    t = float(t)
    if not 0.0 <= t < problem.horizon:
        raise InvalidTimeError(
            f"t must lie in [0, {problem.horizon}), got {t}")
    return t


def _check_tree(problem: BsdeProblem, cfg: MlpConfig, t: float,
                depth: int) -> None:
    # each frame shrinks the remaining time T - s by at least the factor
    # r = (1 + c_1)/2 (c_1 the smallest Legendre root), both to its first
    # node and to the children it spawns there, so the narrowest interval
    # of a depth-n tree is (T - t) r^n; refuse it before any sampling
    r = 0.5 * (1.0 + float(legendre_roots(cfg.quad_order)[0]))
    _check_interval((problem.horizon - t) * r ** depth)


def _check_finite(*values: Optional[np.ndarray]) -> None:
    if not all(v is None or np.isfinite(v).all() for v in values):
        raise NonFiniteIntegrandError(
            "estimate is not finite: the terminal condition or the "
            "generator returned NaN or infinity")


def _root_digests(cfg: MlpConfig, key: Optional[StreamKey]) -> np.ndarray:
    root = key if key is not None else StreamKey.from_seed(cfg.seed)
    return np.array([root.digest], dtype=np.uint64)


def run_batch(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
              digests: np.ndarray):
    """Evaluate one estimator per digest row; the workhorse behind the
    public entry points.  Returns (y, z or None, counters, diff) where y
    and diff have one entry per row and counters are totals over all rows.
    """
    check_digests(digests)
    t = _check_time(problem, t)
    _check_tree(problem, cfg, t, cfg.depth)
    xv = _prepare_point(problem, x)
    B = digests.size
    ctx = _Ctx(problem, cfg, groups=B)
    need_z = cfg.estimate_z or ctx.uses_z
    xs = np.tile(xv, (B, 1))
    if cfg.depth == 0:
        res = _zeros_result(B, ctx.d, need_z)
    elif cfg.variant == "modified":
        res = _modified_frame(ctx, digests, xs, t, cfg.depth,
                              need_z, False, True)
    else:
        res = _original_frame(ctx, digests, xs, t, cfg.depth, need_z)
    z = res.z if cfg.estimate_z else None
    _check_finite(res.y, z)
    return res.y, z, ctx.counters, ctx.diff


def estimate(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
             key: Optional[StreamKey] = None) -> Estimate:
    """Estimate at (t, x) with the scheme cfg.variant names; key overrides
    seed derivation."""
    y, z, counters, diff = run_batch(problem, cfg, t, x,
                                     _root_digests(cfg, key))
    zv = z[0].copy() if z is not None else None
    return Estimate(y=float(y[0]), z=zv, cost=counters,
                    diff_accum=float(diff[0]))


def paired_recursion(problem: BsdeProblem, cfg: MlpConfig, t: float, x,
                     depth: Optional[int] = None,
                     key: Optional[StreamKey] = None) -> PairEstimate:
    """Joint (y_k, y_{k-1}) at (t, x) from a single modified-scheme tree.

    The second component is the first spine copy's estimate; replaying the
    corresponding child key through a full depth-(k-1) recursion reproduces
    it exactly.  Defined for the modified scheme; depth defaults to
    cfg.depth and must be >= 1.
    """
    k = cfg.depth if depth is None else depth
    if k < 1 or k > MAX_DEPTH:
        raise ValueError(f"paired depth must lie in 1..{MAX_DEPTH}, got {k}")
    t = _check_time(problem, t)
    _check_tree(problem, cfg, t, k)
    xv = _prepare_point(problem, x)
    ctx = _Ctx(problem, cfg, groups=1)
    need_z = cfg.estimate_z or ctx.uses_z
    dig = _root_digests(cfg, key)
    res = _modified_frame(ctx, dig, xv[None, :], t, k, need_z, True, True)
    z, z_prev = (res.z, res.z_prev) if cfg.estimate_z else (None, None)
    _check_finite(res.y, res.y_prev, z, z_prev)
    return PairEstimate(
        y=float(res.y[0]),
        y_prev=float(res.y_prev[0]),
        z=z[0].copy() if z is not None else None,
        z_prev=z_prev[0].copy() if z_prev is not None else None,
        cost=ctx.counters,
        diff_accum=float(ctx.diff[0]),
    )
