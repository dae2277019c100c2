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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

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


def _mix64(z: int) -> int:
    # splitmix64 finalizer on a masked python int
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def _mix64_u64(z: np.ndarray) -> np.ndarray:
    out = z.astype(np.uint64, copy=True)
    out ^= out >> np.uint64(30)
    out *= np.uint64(_MIX1)
    out ^= out >> np.uint64(27)
    out *= np.uint64(_MIX2)
    out ^= out >> np.uint64(31)
    return out


def _pack_triple(level: int, replica: int, slot: int) -> int:
    if not 0 <= level < MAX_LEVEL:
        raise ValueError(f"level {level} outside [0, {MAX_LEVEL})")
    if not 0 <= slot < MAX_SLOT:
        raise ValueError(f"slot {slot} outside [0, {MAX_SLOT})")
    if not 0 <= replica < MAX_REPLICA:
        raise ValueError(f"replica {replica} outside [0, {MAX_REPLICA})")
    return (level << 46) | (slot << 32) | replica


def _child_const(level: int, replica: int, slot: int) -> int:
    packed = _pack_triple(level, replica, slot)
    return _mix64(((packed * _GOLD) & _MASK) ^ _CHILD_SALT)


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream: root seed plus recursion path."""

    seed: int
    path: tuple[tuple[int, int, int], ...]
    digest: int

    @classmethod
    def from_seed(cls, seed: int) -> "StreamKey":
        if not 0 <= seed <= _MASK:
            raise ValueError("seed must be an unsigned 64-bit integer")
        return cls(seed=seed, path=(), digest=_mix64(seed ^ _ROOT_SALT))


def child_key(key: StreamKey, level: int, replica: int, slot: int) -> StreamKey:
    """Derive the stream key of a child recursion frame.

    Injective in (level, replica, slot) within the documented field ranges;
    out-of-range indices raise rather than silently alias another stream.
    """
    if len(key.path) >= MAX_PATH_DEPTH:
        raise ValueError(f"path depth limited to {MAX_PATH_DEPTH} frames")
    digest = _mix64(key.digest ^ _child_const(level, replica, slot))
    return StreamKey(
        seed=key.seed,
        path=key.path + ((level, replica, slot),),
        digest=digest,
    )


def _to_uniform(values: np.ndarray) -> np.ndarray:
    # top 53 bits, centered in the bin: strictly inside (0, 1)
    return ((values >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def child_digests(digests: np.ndarray, level: int, slot: int,
                  replicas: np.ndarray) -> np.ndarray:
    """Vectorized child derivation: (B,) digests x (R,) replicas -> (B, R).

    Matches child_key bit for bit: column r equals the digest of
    child_key(key_b, level, replicas[r], slot).
    """
    if not 0 <= level < MAX_LEVEL:
        raise ValueError(f"level {level} outside [0, {MAX_LEVEL})")
    if not 0 <= slot < MAX_SLOT:
        raise ValueError(f"slot {slot} outside [0, {MAX_SLOT})")
    reps = np.asarray(replicas, dtype=np.uint64)
    if reps.size and (int(reps.max()) >= MAX_REPLICA):
        raise ValueError(f"replica indices must lie in [0, {MAX_REPLICA})")
    packed = (np.uint64(_pack_triple(level, 0, slot)) | reps)
    consts = _mix64_u64((packed * np.uint64(_GOLD)) ^ np.uint64(_CHILD_SALT))
    return _mix64_u64(digests[:, None] ^ consts[None, :])


def stream_values(digests: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Raw 64-bit stream words at counters [offset, offset+count), per row."""
    counters = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    return _mix64_u64(digests[:, None] + counters[None, :] * np.uint64(_GOLD))


def uniform_block(digests: np.ndarray, offset: int, count: int) -> np.ndarray:
    return _to_uniform(stream_values(digests, offset, count))


def normal_block(digests: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Standard normals, shape (B, count), at the given counter window."""
    return ndtri(uniform_block(digests, offset, count))
