import tracemalloc

import numpy as np
import pytest
from conftest import kernel_blocks

from tristream.f2_sketch import (
    CounterOverflowError,
    F2Sketch,
    SeedMismatchError,
    sketch_dims,
)


def test_sketch_dims_values():
    assert sketch_dims(0.3, 0.1) == (144, 2400)
    assert sketch_dims(0.2, 0.1) == (144, 5400)
    assert sketch_dims(1.0, 0.5) == (67, 216)


def test_sketch_dims_validation():
    for eps, delta in ((0, 0.1), (1.5, 0.1), (0.3, 0), (0.3, 1)):
        with pytest.raises(ValueError):
            sketch_dims(eps, delta)


def test_single_item_is_exact():
    # one item of weight w lands in one counter per row as +-w, so every row
    # reads w^2 and so does the median
    sk = F2Sketch(10, rows=5, cols=7, seed=3)
    sk.update_many([4], [5])
    for row in sk.counters:
        nonzero = row[row != 0]
        assert nonzero.size == 1 and abs(int(nonzero[0])) == 5
    assert sk.estimate() == 25.0


def test_streamed_equals_batched():
    a = F2Sketch(50, rows=9, cols=33, seed=11)
    b = F2Sketch(50, rows=9, cols=33, seed=11)
    items = [3, 17, 3, 42, 17, 3, 9]
    signs = [1, 1, 1, 1, -1, -1, 1]
    for it, s in zip(items, signs):
        a.update(it, s)
    net = {}
    for it, s in zip(items, signs):
        net[it] = net.get(it, 0) + s
    b.update_many(list(net), list(net.values()))
    assert np.array_equal(a.counters, b.counters)


def test_order_invariance():
    rng = np.random.default_rng(0)
    items = rng.integers(1, 30, size=200)
    signs = rng.choice([-1, 1], size=200)
    a = F2Sketch(30, rows=4, cols=16, seed=5)
    b = F2Sketch(30, rows=4, cols=16, seed=5)
    for it, s in zip(items.tolist(), signs.tolist()):
        a.update(it, s)
    perm = rng.permutation(200)
    for idx in perm.tolist():
        b.update(int(items[idx]), int(signs[idx]))
    assert np.array_equal(a.counters, b.counters)


def test_merge_matches_concatenated_stream():
    whole = F2Sketch(20, rows=6, cols=10, seed=9)
    left = F2Sketch(20, rows=6, cols=10, seed=9)
    right = F2Sketch(20, rows=6, cols=10, seed=9)
    whole.update_many([1, 2, 3, 4], [2, -1, 3, 1])
    left.update_many([1, 2], [2, -1])
    right.update_many([3, 4], [3, 1])
    merged = left.merge(right)
    assert np.array_equal(merged.counters, whole.counters)
    assert merged.estimate() == whole.estimate()


def test_merge_rejects_mismatched_families():
    a = F2Sketch(20, rows=6, cols=10, seed=9)
    with pytest.raises(SeedMismatchError):
        a.merge(F2Sketch(20, rows=6, cols=10, seed=8))
    with pytest.raises(SeedMismatchError):
        a.merge(F2Sketch(20, rows=5, cols=10, seed=9))
    with pytest.raises(SeedMismatchError):
        a.merge(F2Sketch(21, rows=6, cols=10, seed=9))


def test_update_validation():
    sk = F2Sketch(10, rows=2, cols=2, seed=0)
    with pytest.raises(ValueError):
        sk.update(3, 2)  # streaming updates are unit weight
    with pytest.raises(ValueError):
        sk.update_many([0], [1])
    with pytest.raises(ValueError):
        sk.update_many([11], [1])
    with pytest.raises(ValueError):
        sk.update_many([1, 2], [1])
    # floats and bools are refused, not truncated onto an integer item or
    # weight, and a negative item is outside the universe in a list too
    for items, weights in (([1.5], [1]), ([1], [1.5]), (np.array([2.0]), [1]),
                           ([True], [1]), ([1], [True]), ([-1], [1]), (np.array([-1]), [1])):
        with pytest.raises(ValueError):
            sk.update_many(items, weights)
    with pytest.raises(ValueError):
        sk.update(3, 1.0)
    assert not sk.counters.any()
    before = sk.counters
    sk.update_many([1, 2], [0, 0])  # zero weights are dropped
    assert np.array_equal(before, sk.counters)


def test_weight_budget_overflow():
    sk = F2Sketch(10, rows=2, cols=2, seed=0)
    sk.update_many([1], [1 << 61])
    with pytest.raises(CounterOverflowError):
        sk.update_many([2], [1 << 61])
    # |weight| sums past 2^63 in one call, where an int64 sum wraps negative
    with pytest.raises(CounterOverflowError):
        F2Sketch(10, rows=2, cols=2, seed=0).update_many([1, 2, 3, 4], [1 << 61] * 4)
    with pytest.raises(CounterOverflowError):
        F2Sketch(10, rows=2, cols=2, seed=0).update_many([1], [-(1 << 63)])


def _scalar_counters(sk, items, weights):
    """Python-int evaluation of every row's sign and bucket hash."""
    p = sk.prime
    ref = [[0] * sk.cols for _ in range(sk.rows)]
    for r in range(sk.rows):
        _, a0, a1, a2, a3, a, b = (int(c[r, 0]) for c in sk._columns)
        for v, w in zip(items, weights):
            x = (a3 * v**3 + a2 * v**2 + a1 * v + a0) % p
            col = (a * v + b) % p % sk.cols
            ref[r][col] += w if x & 1 else -w
    return ref


_PRIMES = ((100, 8191), (10_000, 131071), (200_000, 524287), (600_000, 2**31 - 1))


def test_kernels_agree_bit_for_bit():
    # n = 100, 10^4, 2*10^5, 6*10^5 select the 13-, 17-, 19- and 31-bit
    # primes.  Each case is (rows, items per block, cells, item count); a
    # block of B items runs its rows in groups of cells // B.  With B = 4
    # and 12 cells, 3 rows form one group and counts 1, 3, 4, 5 and 11 end
    # an item block early, on the edge and past it; 7 rows form groups of
    # 3, 3 and 1, and of 6 and 1 when 2 items make the only block.  5 and
    # 8 cells give groups of 1 and 2 rows; 2 cells, below one block, and 12
    # cells over an 11-item block still give one row per group.  The last
    # case runs the real constants.
    rng = np.random.default_rng(4)
    cases = ((3, 4, 12, 1), (3, 4, 12, 3), (3, 4, 12, 4), (3, 4, 12, 5), (3, 4, 12, 11),
             (7, 4, 12, 2), (7, 4, 12, 8), (7, 4, 12, 11), (7, 4, 8, 9), (3, 4, 5, 7),
             (3, 4, 2, 3), (3, 1 << 14, 12, 11), (7, 1 << 14, 1 << 16, 45))
    for n, prime in _PRIMES:
        for rows, items_per_block, cells, count in cases:
            sk = F2Sketch(n, rows=rows, cols=17, seed=21)
            assert sk.prime == prime
            items = ([1, n, n // 2, n - 1, 2] + rng.integers(1, n + 1, size=40).tolist())[:count]
            weights = ([4, -2, 7, 1, -5] + rng.integers(-9, 10, size=40).tolist())[:count]
            with kernel_blocks(items_per_block, cells):
                sk.update_many(items, weights)
            assert sk.counters.tolist() == _scalar_counters(sk, items, weights)


def test_each_prime_selects_its_lane():
    # 3(p-1)^2 + p < 2^32 holds only for the 13-bit prime
    for n, prime in _PRIMES:
        sk = F2Sketch(n, rows=3, cols=17, seed=2)
        assert sk.prime == prime
        assert sk._lane is (np.uint32 if prime == 8191 else np.uint64)
        assert all(c.dtype == sk._lane for c in sk._columns[1:])
        assert sk._columns[0].dtype == (np.int32 if prime == 8191 else np.int64)


def test_32_bit_lane_at_its_largest_values():
    # Every coefficient at p - 1 takes a*x + b to (p-1)^2 + (p-1) at item
    # p - 1, and each term of the sign polynomial to its largest value at the
    # item whose power has the largest residue.  p - 1, p - 2, 1 and (p-1)/2
    # are the edges of the field; random items test that x^2 and x^3 are
    # reduced before the polynomial, which would otherwise leave the lane.
    p = 8191
    sk = F2Sketch(p - 1, rows=5, cols=p - 2, seed=6)
    assert sk._lane is np.uint32
    for column in sk._columns[1:]:
        column[:] = p - 1
    rng = np.random.default_rng(8)
    spread = rng.choice(np.arange(2, p - 2), size=40, replace=False).tolist()
    items = [p - 1, p - 2, 1, (p - 1) // 2] + spread
    weights = rng.integers(-9, 10, size=len(items)).tolist()
    sk.update_many(items, weights)
    assert sk.counters.tolist() == _scalar_counters(sk, items, weights)


def test_kernel_at_default_dims_and_budget_edge():
    # 144 x 2400 cells in the real blocks.  455 items or fewer run all rows
    # as one group; 456 items run groups of 143 rows and 1 row.
    rng = np.random.default_rng(7)
    sk = F2Sketch.from_accuracy(600_000, 0.3, 0.1, seed=3)
    assert (sk.rows, sk.cols, sk.prime) == (144, 2400, 2**31 - 1)
    items = rng.choice(np.arange(1, 600_001), size=2**14 + 3, replace=False)
    weights = rng.choice([-3, -2, -1, 1, 2, 3], size=items.size)  # no zero weight is dropped
    head, head_weights = items[:456].tolist(), weights[:456].tolist()
    sk.update_many(head, head_weights)
    assert sk.counters.tolist() == _scalar_counters(sk, head, head_weights)
    # 2^14 + 3 items make a full item block in 36 groups of 4 rows, then a
    # 3-item block.  On 4 rows the scalar reference is cheap; on 144 rows
    # the counters equal, by linearity, those of 455-item calls.
    narrow = F2Sketch(600_000, rows=4, cols=2400, seed=3)
    narrow.update_many(items, weights)
    assert narrow.counters.tolist() == _scalar_counters(narrow, items.tolist(), weights.tolist())
    whole = F2Sketch.from_accuracy(600_000, 0.3, 0.1, seed=3)
    whole.update_many(items, weights)
    pieces = F2Sketch.from_accuracy(600_000, 0.3, 0.1, seed=3)
    for lo in range(0, items.size, 455):
        pieces.update_many(items[lo:lo + 455], weights[lo:lo + 455])
    assert np.array_equal(whole.counters, pieces.counters)
    # Weights of +-2^61 with mixed signs fill the budget to 2^62 - 1.  Item 1
    # and a partner that shares its counter in some row, with the signs
    # there agreeing, push that counter to +-(2^62 - 1) exactly.
    probe = F2Sketch.from_accuracy(600_000, 0.3, 0.1, seed=3)
    one = np.array(_scalar_counters(probe, [1], [1]))
    partner = next(v for v in range(2, 10_000)
                   if (one * np.array(_scalar_counters(probe, [v], [1])) > 0).any())
    for weights in ([1 << 61, (1 << 61) - 1], [-(1 << 61), -(1 << 61) + 1],
                    [1 << 61, -(1 << 61) + 1], [-(1 << 61), (1 << 61) - 1]):
        sk = F2Sketch.from_accuracy(600_000, 0.3, 0.1, seed=3)
        sk.update_many([1, partner], weights)
        ref = _scalar_counters(sk, [1, partner], weights)
        assert sk.counters.tolist() == ref
        assert max(abs(c) for row in ref for c in row) in ((1 << 62) - 1, 1 << 61)
        assert sk.estimate() == _median_readout(sk.counters)
    with pytest.raises(CounterOverflowError):
        sk.update_many([2], [1])


def test_kernel_memory_is_bounded_by_its_blocks():
    # the kernel's temporaries are four 2^16-cell buffers plus a few arrays
    # over the items, not (rows x items)-cell arrays, in the 64-bit lane
    # (n = 12,000) and the 32-bit one (n = 8,000)
    for n in (12_000, 8_000):
        sk = F2Sketch.from_accuracy(n, 0.3, 0.1, seed=1)
        items = np.arange(1, n + 1)
        weights = np.ones(items.size, dtype=np.int64)
        tracemalloc.start()
        try:
            sk.update_many(items, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def _median_readout(counters):
    """The readout as ``np.median`` of the rows' sums of squares."""
    return float(np.median((counters.astype(np.float64) ** 2).sum(axis=1)))


def test_estimate_equals_the_median_of_row_sums_bit_for_bit():
    # The readout squares and sums 16 rows at a time and takes the middle of
    # the sorted sums.  1, 2, 7 and 144 rows give odd and even medians, one
    # partial block and nine full ones; the counters are random sketches,
    # then random int64 values and the +-(2^62 - 1) extremes of the weight
    # budget, written straight into the counters.
    rng = np.random.default_rng(23)
    for rows in (1, 2, 7, 144):
        for cols in (1, 3, 2400):
            for seed in range(4):
                sk = F2Sketch(5_000, rows=rows, cols=cols, seed=seed)
                items = rng.choice(np.arange(1, 5_001), size=rng.integers(1, 400), replace=False)
                sk.update_many(items, rng.integers(-40, 41, size=items.size))
                assert sk.estimate() == _median_readout(sk.counters)
            big = rng.integers(-(1 << 62) + 1, 1 << 62, size=rows * cols)
            edge = rng.choice([-1, 1], size=rows * cols) * ((1 << 62) - 1)
            for counters in (big, edge):
                sk._counters = counters
                assert sk.estimate() == _median_readout(sk.counters)


def test_single_cell_unbiasedness():
    # X = (s1 + 2*s2 + s3)^2 should average to F2 = 6 over many hash seeds
    total = 0.0
    trials = 4000
    for seed in range(trials):
        sk = F2Sketch(8, rows=1, cols=1, seed=seed)
        sk.update_many([1, 2, 3], [1, 2, 1])
        total += sk.estimate()
    assert abs(total / trials - 6.0) < 0.4


def test_concentration_at_coarse_accuracy():
    # bull degree vector: F2 = 24; the coarsest supported sketch should land
    # within 1/6 relative error on nearly every seed
    hits = 0
    for seed in range(50):
        sk = F2Sketch.from_accuracy(5, epsilon=1.0, delta=0.5, seed=seed)
        sk.update_many([1, 2, 3, 4, 5], [2, 3, 3, 1, 1])
        hits += abs(sk.estimate() - 24.0) <= 24.0 / 6
    assert hits >= 45


def test_concentration_on_a_zipf_degree_vector():
    # 5,000 items into 2,400 columns collide in every row, so this exercises
    # the variance bound: each readout lands within epsilon/6 of F2 with
    # probability at least 1 - delta/2 = 0.95
    epsilon, delta = 0.3, 0.1
    degrees = np.ceil(2000 / np.arange(1, 5001) ** 0.6).astype(np.int64)
    f2 = float((degrees**2).sum())
    items = np.arange(1, 5001)
    hits = 0
    for seed in range(30):
        sk = F2Sketch.from_accuracy(5000, epsilon, delta, seed=seed)
        sk.update_many(items, degrees)
        hits += abs(sk.estimate() - f2) <= epsilon / 6 * f2
    assert hits >= 27


def test_counters_property_is_a_copy():
    sk = F2Sketch(10, rows=2, cols=3, seed=1)
    view = sk.counters
    view[0, 0] = 999
    assert sk.counters[0, 0] != 999 or sk._counters[0] != 999
    assert sk.counters.shape == (2, 3)
