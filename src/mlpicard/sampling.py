"""Counter-based splittable Gaussian streams for nested Monte-Carlo trees.

A multilevel Picard run consumes randomness inside a deep recursion tree,
and the result must not depend on the order in which subtrees are evaluated.
Streams are therefore addressed, not sequenced: a key is a (seed, path)
pair where the path records one (level, replica, slot) triple per recursion
frame, and every key owns an unbounded counter-indexed sequence of samples.
Any frame can be replayed in isolation from its key alone.

Mixing is the splitmix64 finalizer over 64-bit state.  Scalar code uses
masked python ints because numpy scalar uint64 arithmetic warns on
wraparound; the batch helpers work on uint64 arrays where modular
wraparound is silent and intended.  Normals come from the inverse CDF, one
uniform per normal, which keeps stream accounting trivial.

Word c >= 1 of the stream with digest g is mix64(g + c * GOLD); its top 53
bits, centered in their bin, give the uniform ((w >> 11) + 1/2) 2^-53 and
ndtri of that the normal.  Every value depends on its (digest, counter)
pair alone, so a block is filled tile by tile: tiles of at most _TILE
values (whole rows when a row is short, row segments when it is long) are
mixed and converted in place in cache-sized scratch buffers allocated per
call, never shared between threads.  The tile size moves no bit.

scipy is used only for scipy.special.ndtri, and scipy.special is imported
on the first read of this module's ``ndtri`` attribute, which the first
normal_block call makes: importing the package, building problems, the
deterministic oracle, validate_assumptions and theorem_bound never load
it.  ``ndtri`` stays a module attribute that normal_block reads at call
time, so it can be replaced (a tracing wrapper, say) like any other.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .problems import _check_int

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15  # 2^64/phi, the splitmix64 stream increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ROOT_SALT = 0x5851F42D4C957F2D
_CHILD_SALT = 0xD1B54A32D192ED03

# Path entries are packed into one 64-bit word, so each field gets a fixed
# bit budget: 6 for level, 14 for slot, 32 for replica.  Injectivity of
# child derivation holds only inside these ranges, hence the hard checks.
MAX_LEVEL = 1 << 6
MAX_SLOT = 1 << 14
MAX_REPLICA = 1 << 32
MAX_PATH_DEPTH = 32
_TILE = 1 << 14  # values mixed and converted per tile of a block
_module = sys.modules[__name__]


def __getattr__(name: str):
    # PEP 562: called only while ``ndtri`` is not yet a module global
    if name == "ndtri":
        from scipy.special import ndtri
        globals()["ndtri"] = ndtri
        return ndtri
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _mix64(z: int) -> int:
    # splitmix64 finalizer on a masked python int
    z = int(z) & _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def _mix64_u64(z: np.ndarray) -> np.ndarray:
    out = z.astype(np.uint64, copy=True)
    _mix64_into(out, np.empty_like(out))
    return out


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    # splitmix64 finalizer in place on a uint64 array; tmp is scratch of
    # z's shape
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def check_digests(digests: np.ndarray) -> None:
    """Refuse digests that are not a uint64 array: signed or float values
    would be promoted before mixing and alias neighbouring streams."""
    dtype = getattr(digests, "dtype", None)
    if dtype != np.uint64:
        got = type(digests).__name__ if dtype is None else dtype
        raise TypeError(f"stream digests must be a numpy uint64 array, "
                        f"got {got}")


def _path_entry(level: int, replica: int, slot: int) -> tuple[int, int, int]:
    return (_check_int("level", level, 0, MAX_LEVEL - 1),
            _check_int("replica", replica, 0, MAX_REPLICA - 1),
            _check_int("slot", slot, 0, MAX_SLOT - 1))


def _pack_triple(level: int, replica: int, slot: int) -> int:
    # Python ints from _path_entry, which cannot wrap in the shifts
    return (level << 46) | (slot << 32) | replica


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream: root seed plus recursion path."""

    seed: int
    path: tuple[tuple[int, int, int], ...]
    digest: int

    @classmethod
    def from_seed(cls, seed: int) -> "StreamKey":
        seed = _check_int("seed", seed, 0, _MASK)
        return cls(seed=seed, path=(), digest=_mix64(seed ^ _ROOT_SALT))


def child_key(key: StreamKey, level: int, replica: int, slot: int) -> StreamKey:
    """Derive the stream key of a child recursion frame.

    Injective in (level, replica, slot) within the documented field ranges;
    out-of-range indices raise rather than silently alias another stream.
    """
    if len(key.path) >= MAX_PATH_DEPTH:
        raise ValueError(f"path depth limited to {MAX_PATH_DEPTH} frames")
    entry = _path_entry(level, replica, slot)
    const = _mix64(((_pack_triple(*entry) * _GOLD) & _MASK) ^ _CHILD_SALT)
    return StreamKey(seed=key.seed, path=key.path + (entry,),
                     digest=_mix64(key.digest ^ const))


def child_digests(digests: np.ndarray, level: int, slot: int,
                  replicas: np.ndarray) -> np.ndarray:
    """Vectorized child derivation: (B,) digests x (R,) replicas -> (B, R).

    Matches child_key bit for bit: column r equals the digest of
    child_key(key_b, level, replicas[r], slot).
    """
    check_digests(digests)
    reps = np.asarray(replicas, dtype=np.uint64)
    if reps.size and (int(reps.max()) >= MAX_REPLICA):
        raise ValueError(f"replica indices must lie in [0, {MAX_REPLICA})")
    packed = (np.uint64(_pack_triple(*_path_entry(level, 0, slot))) | reps)
    consts = _mix64_u64((packed * np.uint64(_GOLD)) ^ np.uint64(_CHILD_SALT))
    return _mix64_u64(digests[:, None] ^ consts[None, :])


def _fill(digests: np.ndarray, offset: int, count: int,
          finish: np.ufunc) -> np.ndarray:
    """finish of the uniforms at counters [offset + 1, offset + count] per
    row, shape (B, count), computed tile by tile."""
    check_digests(digests)
    count = _check_int("count", count, 0)
    offset = _check_int("offset", offset, 0)
    if offset > _MASK - count:
        raise ValueError(f"counter window at offset {offset} with {count} "
                         f"values leaves the 64-bit counter range")
    B = digests.size
    out = np.empty((B, count))
    if out.size == 0:
        return out
    words = np.arange(count, dtype=np.uint64)
    words += np.uint64(offset + 1)
    words *= np.uint64(_GOLD)
    cols = min(count, _TILE)
    rows = min(B, max(1, _TILE // count))
    bits = np.empty((rows, cols), dtype=np.uint64)
    tmp = np.empty((rows, cols), dtype=np.uint64)
    unif = np.empty((rows, cols))
    for r0 in range(0, B, rows):
        r1 = min(r0 + rows, B)
        for c0 in range(0, count, cols):
            c1 = min(c0 + cols, count)
            z, t = bits[:r1 - r0, :c1 - c0], tmp[:r1 - r0, :c1 - c0]
            np.add(digests[r0:r1, None], words[None, c0:c1], out=z)
            _mix64_into(z, t)
            # top 53 bits, centered in the bin: strictly inside (0, 1)
            z >>= np.uint64(11)
            u = unif[:r1 - r0, :c1 - c0]
            np.add(z, 0.5, out=u)
            u *= 2.0**-53
            finish(u, out=out[r0:r1, c0:c1])
    return out


def uniform_block(digests: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1), shape (B, count), at counters
    [offset + 1, offset + count] of each row's stream."""
    return _fill(digests, offset, count, np.positive)


def normal_block(digests: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Standard normals, shape (B, count), at the given counter window."""
    # an attribute read, since the module __getattr__ serves only those: a
    # bare global name would raise NameError before the first load
    return _fill(digests, offset, count, _module.ndtri)
