import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri

from mlpicard.sampling import (MAX_LEVEL, MAX_PATH_DEPTH, MAX_REPLICA,
                               MAX_SLOT, StreamKey, child_digests, child_key,
                               normal_block, uniform_block, _GOLD, _MASK,
                               _TILE, _mix64, _mix64_u64)


def _row(key):
    return np.array([key.digest], dtype=np.uint64)


def test_root_key_deterministic():
    a = StreamKey.from_seed(1234)
    b = StreamKey.from_seed(1234)
    assert a == b
    assert a.path == ()
    assert a.digest != StreamKey.from_seed(1235).digest


def test_seed_range_validation():
    with pytest.raises(ValueError):
        StreamKey.from_seed(-1)
    with pytest.raises(ValueError):
        StreamKey.from_seed(1 << 64)
    StreamKey.from_seed((1 << 64) - 1)


def test_numpy_integer_indices_match_python_ones():
    # numpy integers address the Python integer's stream: int64 ones used
    # to overflow in the mixing, and an int8 slot to wrap in the shifts
    assert StreamKey.from_seed(np.int64(3)) == StreamKey.from_seed(3)
    assert StreamKey.from_seed(np.uint64(3)) == StreamKey.from_seed(3)
    root = StreamKey.from_seed(7)
    want = child_key(root, level=1, replica=5, slot=2)
    got = child_key(root, level=np.int64(1), replica=np.uint32(5),
                    slot=np.int8(2))
    assert got.digest == want.digest
    # the key stores Python ints, whatever integer type it was given
    assert [type(v) for v in got.path[0]] == [int, int, int]
    assert type(StreamKey.from_seed(np.uint64(3)).seed) is int


def test_bools_and_non_integers_refused():
    # from_seed(True) used to run as seed 1 and from_seed(1.5) to raise a
    # bare TypeError; a bool index used to address index 0 or 1
    for bad in (True, False, 1.5, "3", np.float64(2.0)):
        with pytest.raises(ValueError, match="seed"):
            StreamKey.from_seed(bad)
    root = StreamKey.from_seed(7)
    dig = _row(root)
    for level, replica, slot in ((True, 0, 0), (0, True, 0), (0, 0, False)):
        with pytest.raises(ValueError, match="bool"):
            child_key(root, level, replica, slot)
    for level, slot in ((True, 0), (0, True)):
        with pytest.raises(ValueError, match="bool"):
            child_digests(dig, level, slot, np.arange(2))


def test_digests_pinned():
    # digests of valid inputs, at the ends of every field range
    kid = child_key(StreamKey.from_seed(7), 3, 5, 2)
    top = (MAX_LEVEL - 1, MAX_REPLICA - 1, MAX_SLOT - 1)
    grand = child_key(kid, *top)
    assert hex(StreamKey.from_seed(0).digest) == "0xf2ee2134306ff565"
    assert hex(StreamKey.from_seed(_MASK).digest) == "0xd9e50edbeb02ec3a"
    assert hex(kid.digest) == "0x363a56f3d8e24fd7"
    assert hex(grand.digest) == "0xbde7f85d3377e168"
    assert int(child_digests(_row(kid), top[0], top[2],
                             np.array([top[1]]))[0, 0]) == grand.digest


def test_child_key_path_bookkeeping():
    root = StreamKey.from_seed(7)
    kid = child_key(root, level=3, replica=5, slot=2)
    assert kid.path == ((3, 5, 2),)
    grand = child_key(kid, level=1, replica=0, slot=0)
    assert grand.path == ((3, 5, 2), (1, 0, 0))
    assert grand.seed == 7
    assert len({root.digest, kid.digest, grand.digest}) == 3


def test_child_key_range_validation():
    root = StreamKey.from_seed(0)
    with pytest.raises(ValueError):
        child_key(root, level=MAX_LEVEL, replica=0, slot=0)
    with pytest.raises(ValueError):
        child_key(root, level=-1, replica=0, slot=0)
    with pytest.raises(ValueError):
        child_key(root, level=0, replica=MAX_REPLICA, slot=0)
    with pytest.raises(ValueError):
        child_key(root, level=0, replica=0, slot=MAX_SLOT)


def test_path_depth_cap():
    key = StreamKey.from_seed(1)
    for _ in range(MAX_PATH_DEPTH):
        key = child_key(key, level=0, replica=0, slot=0)
    with pytest.raises(ValueError):
        child_key(key, level=0, replica=0, slot=0)


def test_scalar_and_vector_mixers_agree():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 63, size=64, dtype=np.uint64)
    batch = _mix64_u64(values)
    for v, m in zip(values, batch):
        assert _mix64(int(v)) == int(m)


def test_child_digests_match_child_key():
    root = StreamKey.from_seed(99)
    digs = np.array([root.digest,
                     child_key(root, 2, 1, 3).digest], dtype=np.uint64)
    reps = np.array([0, 1, 17, 4000000000], dtype=np.uint64)
    table = child_digests(digs, level=4, slot=9, replicas=reps)
    keys = [root, child_key(root, 2, 1, 3)]
    for b, key in enumerate(keys):
        for r, rep in enumerate(reps):
            assert int(table[b, r]) == child_key(key, 4, int(rep), 9).digest


def test_child_digests_injective_over_grid():
    root = StreamKey.from_seed(5)
    digs = np.array([root.digest], dtype=np.uint64)
    seen = set()
    for level in range(0, 8):
        for slot in range(0, 12):
            row = child_digests(digs, level, slot, np.arange(50))[0]
            seen.update(int(v) for v in row)
    assert len(seen) == 8 * 12 * 50


def test_stream_reads_are_positional_and_pure():
    dig = _row(child_key(StreamKey.from_seed(3), 1, 2, 3))
    first = uniform_block(dig, 0, 5)[0]
    second = uniform_block(dig, 5, 5)[0]
    block = uniform_block(dig, 0, 10)[0]
    assert np.array_equal(np.concatenate([first, second]), block)
    # rereading a window reproduces it
    assert np.array_equal(uniform_block(dig, 5, 5)[0], second)


def test_uniforms_strictly_inside_unit_interval():
    u = uniform_block(_row(StreamKey.from_seed(42)), 0, 100_000)[0]
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_normal_moments():
    key = child_key(StreamKey.from_seed(2024), 1, 0, 0)
    n = 1_000_000
    z = normal_block(_row(key), 0, n)[0]
    # 4 sigma bands at this sample size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_increment_variance_scales_with_dt():
    # the estimators draw increments over dt as sqrt(dt) times a normal
    # window at a nonzero counter offset
    key = child_key(StreamKey.from_seed(8), 2, 0, 0)
    vals = np.sqrt(0.25) * normal_block(_row(key), 3_000, 1_000_000)[0]
    assert abs(vals.var() - 0.25) < 0.002


def test_cross_stream_correlations_small():
    root = StreamKey.from_seed(31337)
    digs = child_digests(np.array([root.digest], dtype=np.uint64),
                         level=6, slot=2, replicas=np.arange(100))[0]
    draws = normal_block(digs, 0, 10_000)
    corr = np.corrcoef(draws)
    off_diag = corr[~np.eye(100, dtype=bool)]
    assert np.abs(off_diag).max() < 0.05


def test_within_stream_autocorrelation_small():
    key = child_key(StreamKey.from_seed(5150), 3, 1, 0)
    z = normal_block(_row(key), 0, 200_000)[0]
    for lag in (1, 2, 7):
        c = np.corrcoef(z[:-lag], z[lag:])[0, 1]
        assert abs(c) < 0.01


def test_sign_patterns_uniform():
    # chi^2 over the 16 sign patterns of consecutive 4-tuples
    key = child_key(StreamKey.from_seed(99999), 2, 3, 4)
    bits = (normal_block(_row(key), 0, 1 << 18)[0] > 0).astype(np.int64)
    quads = bits[: 4 * (bits.size // 4)].reshape(-1, 4)
    cells = quads @ np.array([8, 4, 2, 1])
    counts = np.bincount(cells, minlength=16)
    expected = quads.shape[0] / 16.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 44.0  # p ~ 1e-4 at 15 degrees of freedom


def test_sibling_streams_differ():
    root = StreamKey.from_seed(1)
    a = normal_block(_row(child_key(root, 1, 0, 0)), 0, 4)[0]
    b = normal_block(_row(child_key(root, 1, 1, 0)), 0, 4)[0]
    c = normal_block(_row(child_key(root, 1, 0, 1)), 0, 4)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_normal_block_matches_stream_reader():
    # one block over a batch of keys equals each key's stream read on its
    # own, window by window
    root = StreamKey.from_seed(77)
    keys = [child_key(root, 5, 6, 7), child_key(root, 5, 7, 7)]
    batch = normal_block(np.array([k.digest for k in keys], dtype=np.uint64),
                         0, 256)
    for row, key in zip(batch, keys):
        seq = np.concatenate([normal_block(_row(key), off, 64)[0]
                              for off in range(0, 256, 64)])
        assert np.array_equal(row, seq)


def _reference_uniform(digests, offset, count):
    # the stream definition, untiled: word c of digest g is
    # mix64(g + c GOLD), its top 53 bits centered in their bin
    ctr = np.arange(count, dtype=np.uint64) + np.uint64(offset + 1)
    words = _mix64_u64(digests[:, None] + ctr[None, :] * np.uint64(_GOLD))
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _digests(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, _MASK, size=n, dtype=np.uint64, endpoint=True)


@pytest.mark.parametrize("offset", [0, 1 << 40])
@pytest.mark.parametrize("rows, count", [
    (3, 1), (3, _TILE - 1), (3, _TILE), (3, _TILE + 1), (2, 3 * _TILE + 5),
    # short rows: several row tiles, the last one partial
    (2 * _TILE // 5 + 3, 5), (3 * _TILE // 1000 + 1, 1000)])
def test_tiled_blocks_match_untiled_formula(rows, count, offset):
    digs = _digests(rows, seed=count)
    u = _reference_uniform(digs, offset, count)
    assert np.array_equal(uniform_block(digs, offset, count), u)
    assert np.array_equal(normal_block(digs, offset, count), ndtri(u))


def test_counter_window_at_the_top_of_the_range():
    digs = _digests(2)
    top = _MASK - 3
    assert np.array_equal(normal_block(digs, top, 3),
                          ndtri(_reference_uniform(digs, top, 3)))
    with pytest.raises(ValueError):
        normal_block(digs, top + 1, 3)


def test_empty_blocks_keep_their_shape():
    digs = _digests(4)
    empty = np.array([], dtype=np.uint64)
    for block in (normal_block, uniform_block):
        assert block(empty, 0, 7).shape == (0, 7)
        assert block(digs, 0, 0).shape == (4, 0)
        assert block(empty, 0, 0).shape == (0, 0)


def test_non_uint64_digests_refused():
    # int64 + uint64 promotes to float64, which would alias nearby streams
    for bad in (np.array([1, 2]), np.array([1.0, 2.0]), [1, 2]):
        for block in (normal_block, uniform_block):
            with pytest.raises(TypeError, match="uint64"):
                block(bad, 0, 4)
        with pytest.raises(TypeError, match="uint64"):
            child_digests(bad, 0, 0, np.arange(2))


def test_bad_counter_windows_refused():
    digs = _digests(2)
    for block in (normal_block, uniform_block):
        with pytest.raises(ValueError):
            block(digs, 0, -1)
        with pytest.raises(ValueError):
            block(digs, -1, 4)
        with pytest.raises(ValueError):
            block(digs, 1 << 64, 4)


def test_concurrent_blocks_match_serial_ones():
    # scratch buffers are per call: two threads filling blocks at once get
    # the bits of serial calls
    jobs = [(_digests(40, seed=s), 3 * _TILE // 40 + 11) for s in (1, 2)]
    serial = [normal_block(d, 5, n) for d, n in jobs]
    results = [[], []]

    def work(i):
        d, n = jobs[i]
        for _ in range(20):
            results[i].append(normal_block(d, 5, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for ref, got in zip(serial, results):
        assert len(got) == 20
        assert all(np.array_equal(ref, g) for g in got)
