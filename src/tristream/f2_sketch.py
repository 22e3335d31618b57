"""Linear sketch for the second frequency moment of a turnstile item stream.

CountSketch layout (Charikar, Chen and Farach-Colton, ICALP 2002): each row
sends an item to one of ``cols`` counters through a 2-wise bucket hash
``((a*v + b) mod p) mod cols`` with ``a != 0``, and adds the item's weight
there under a 4-wise independent ±1 sign hash (degree-3 polynomial over the
same prime field, sign taken from the low bit of the canonical
representative).  A row's readout is the sum of its squared counters, an
unbiased F2 estimate whose variance is at most 2*F2^2/cols (Thorup and
Zhang, SODA 2004) -- the bound of the mean of ``cols`` tug-of-war counters.
The estimate is the median of the row readouts.  ``estimate`` squares and
sums the counters in blocks of 16 rows and takes the median from the sorted
row sums, not through ``np.median``, which imports ``numpy.ma`` on its first
call.

Linearity makes the sketch order-independent and mergeable, and lets
``update_many`` collapse repeated ±1 updates of one item into a single
weighted update with bit-identical counters.

The update kernel takes the items in blocks of at most ``_BLOCK_ITEMS`` =
2^14 and a block's rows in groups of ``_BLOCK_CELLS // block`` rows, so each
pass covers at most ``_BLOCK_CELLS`` = 2^16 (row, item) cells through four
reused buffers (1.5 MB in the 32-bit lane, 2 MB in the 64-bit one) and its
temporaries do not grow with the item count.  Every numpy call then runs
along the item axis: a batch of 5,410 items runs 12 groups of 12 rows, and
one of 455 items or fewer runs the default 144 rows as one group.

With x^2 and x^3 reduced mod p once per item, a row's sign polynomial
a3*x^3 + a2*x^2 + a1*x + a0 is below 3(p-1)^2 + p and the bucket's a*x + b
below p^2, so each needs one reduction.  The kernel computes in the
narrowest unsigned lane that holds those bounds, chosen once per sketch:

- uint32 for p = 8191, that is max(n, cols) < 8191: 3(p-1)^2 + p is below
  2^28.  The row offsets and cell indices, below rows * cols, fit int32
  too, so a sketch of more than 2^31 counters keeps the 64-bit lane;
- uint64 for the 17-, 19- and 31-bit primes: 3(p-1)^2 + p < 2^64 for every
  p up to 2^31 - 1.

Either lane gives the same counters bit for bit; the signed weights and the
counters are int64 in both.  numpy's uint32 multiply and scalar divide ran
2 to 3.5 times as fast as the uint64 ones on a 2-CPU x86-64 host.  The
sign's parity needs no remainder: with q = y // p, (y mod p) & 1 ==
(y ^ q) & 1 because p is odd, as every supported Mersenne prime is.
Remainders are taken as y - (y // m) * m, since numpy divides by a scalar
faster than it takes ``%``.
"""

import math

import numpy as np

from .hashing import prime_for
from .stream_core import int64_array


class SeedMismatchError(ValueError):
    """Merging sketches with different hash families or shapes."""


class CounterOverflowError(OverflowError):
    """Accumulated weight could exceed the 64-bit counter range."""


def sketch_dims(epsilon: float, delta: float) -> tuple[int, int]:
    """(rows, cols) giving ±epsilon/6 relative error with confidence 1-delta/2.

    A row readout has variance at most 2*F2^2/cols, so with cols =
    ceil(216/eps^2) Chebyshev puts it within eps/6 of F2 with probability at
    least 1/3; rows = ceil(48*ln(2/delta)) amplifies that through the median.
    """
    if not (0 < epsilon <= 1):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rows = math.ceil(48 * math.log(2 / delta))
    cols = math.ceil(216 / (epsilon * epsilon))
    return rows, cols


_WEIGHT_BUDGET = 1 << 62  # conservative: |counter| <= sum of |weight| always
_BLOCK_CELLS = 1 << 16  # (row, item) cells per kernel pass: 512 KB per buffer
_BLOCK_ITEMS = 1 << 14  # items per kernel block: at least 4 rows per group


def _abs_sum(weights: np.ndarray) -> int:
    """Exact sum of |weight|; an int64 sum would wrap past 2^63."""
    mag = np.abs(weights).astype(np.uint64)  # |-2^63| wraps to 2^63 exactly
    return (int((mag >> np.uint64(32)).sum()) << 32) + int((mag & np.uint64(0xFFFFFFFF)).sum())


class F2Sketch:
    """Seeded CountSketch over items in [1, n]."""

    def __init__(self, n: int, rows: int, cols: int, seed: int = 0):
        if n < 1:
            raise ValueError(f"universe must be positive, got n={n}")
        if rows < 1 or cols < 1:
            raise ValueError(f"need positive dimensions, got {rows}x{cols}")
        self.n = n
        self.rows = rows
        self.cols = cols
        self.seed = seed
        # p > max(n, cols): distinct items stay distinct mod p, and the bucket
        # hash collides two of them with probability at most 1/cols.
        _, self.prime = prime_for(max(n, cols))
        # The kernel's lane, from the bounds in the module docstring.
        small = 3 * (self.prime - 1) ** 2 + self.prime < 2**32 and rows * cols <= 2**31
        self._lane = lane = np.uint32 if small else np.uint64
        signed = np.int32 if small else np.int64  # the sign's and the row offsets' type
        # One hash pair per row, drawn from a PCG stream keyed by the sketch
        # seed.  Equal (n, rows, cols, seed) therefore implies equal families,
        # which is what merge checks.  Column vectors broadcast over items:
        # each row's counter offset r*cols, its sign coefficients a0..a3 and
        # its bucket pair (a, b), drawn in uint64 and stored in the lane, so
        # the family does not depend on the lane.
        rng = np.random.default_rng(seed)
        sign = rng.integers(0, self.prime, size=(4, rows, 1), dtype=np.uint64)
        a = rng.integers(1, self.prime, size=(rows, 1), dtype=np.uint64)
        b = rng.integers(0, self.prime, size=(rows, 1), dtype=np.uint64)
        row_base = np.arange(rows, dtype=signed).reshape(rows, 1) * cols
        self._columns = (row_base, *sign.astype(lane), a.astype(lane), b.astype(lane))
        self._counters = np.zeros(rows * cols, dtype=np.int64)
        self._abs_weight = 0

    @classmethod
    def from_accuracy(cls, n: int, epsilon: float, delta: float, seed: int = 0) -> "F2Sketch":
        rows, cols = sketch_dims(epsilon, delta)
        return cls(n, rows, cols, seed)

    @property
    def counters(self) -> np.ndarray:
        return self._counters.reshape(self.rows, self.cols).copy()

    def update(self, item: int, weight: int) -> None:
        """Apply one ±1 update of an item."""
        if weight not in (1, -1):
            raise ValueError(f"streaming updates carry weight +1 or -1, got {weight}")
        self.update_many([item], [weight])

    def update_many(self, items, weights) -> None:
        """Apply weighted updates in one pass.

        Equivalent, counter for counter, to repeating ``update`` |weight|
        times per item; zero weights are skipped.  Items and weights are read
        by ``stream_core.int64_array``: a float or bool raises ``ValueError``
        rather than being truncated.
        """
        items = int64_array(items, "items")
        weights = int64_array(weights, "weights")
        if items.shape != weights.shape:
            raise ValueError("items and weights must have matching length")
        live = weights != 0
        if not live.all():
            items, weights = items[live], weights[live]
        if items.size == 0:
            return
        if items.min() < 1 or items.max() > self.n:
            raise ValueError(f"item outside universe [1, {self.n}]")
        self._abs_weight += _abs_sum(weights)
        if self._abs_weight >= _WEIGHT_BUDGET:
            raise CounterOverflowError("accumulated weight exceeds the 64-bit counter budget")
        self._apply(items.astype(self._lane), weights)

    def _apply(self, x: np.ndarray, weights: np.ndarray) -> None:
        """Add every item's signed weight to its counter in each row.

        ``x`` holds the items in the sketch's lane type.  Items go through in
        blocks of at most ``_BLOCK_ITEMS``, and each block's rows in groups of
        ``_BLOCK_CELLS // block`` rows, so the four (group x block) buffers
        below stay cache-sized, are reused through ``out=``, and every numpy
        call runs along the long item axis.
        """
        lane = self._lane
        p, cols = lane(self.prime), lane(self.cols)
        # x < p, so x^2 and x^3 reduced once per item keep every product
        # below (p-1)^2; a row's polynomial a3*x^3 + a2*x^2 + a1*x + a0 then
        # stays below 3(p-1)^2 + p, inside the lane, and needs one reduction.
        x2 = x * x
        x2 -= x2 // p * p
        x3 = x2 * x
        x3 -= x3 // p * p
        rows = self.rows
        block = min(_BLOCK_ITEMS, x.size)
        group = max(1, min(rows, _BLOCK_CELLS // block))
        groups = [[c[r:r + group] for c in self._columns] for r in range(0, rows, group)]
        size = group * block
        y_buf, q_buf = np.empty(size, lane), np.empty(size, lane)
        cell_buf, signed_buf = np.empty(size, np.intp), np.empty(size, np.int64)
        for lo in range(0, x.size, block):
            hi = min(lo + block, x.size)
            xb, x2b, x3b, wb = x[lo:hi], x2[lo:hi], x3[lo:hi], weights[lo:hi]
            for base, a0, a1, a2, a3, a, b in groups:
                cells = a.size * (hi - lo)
                y, q, cell, signed = (
                    buf[:cells].reshape(a.size, hi - lo)
                    for buf in (y_buf, q_buf, cell_buf, signed_buf)
                )
                np.multiply(a3, x3b, out=y)
                y += np.multiply(a2, x2b, out=q)
                y += np.multiply(a1, xb, out=q)
                y += a0
                # Sign from the low bit of y mod p = y - q*p with q = y // p.
                # For odd p, q*p has q's parity and subtraction agrees with
                # xor in the low bit, so (y mod p) & 1 == (y ^ q) & 1: one //
                # and no %.
                np.floor_divide(y, p, out=q)
                y ^= q
                y &= lane(1)
                sign = y.view(base.dtype)
                sign <<= 1
                sign -= 1
                np.multiply(sign, wb, out=signed)
                # Bucket ((a*x + b) mod p) mod cols, each mod as y - (y // m) * m;
                # a*x + b < p^2, inside the lane.
                np.multiply(a, xb, out=y)
                y += b
                y -= np.multiply(np.floor_divide(y, p, out=q), p, out=q)
                y -= np.multiply(np.floor_divide(y, cols, out=q), cols, out=q)
                np.add(base, y.view(base.dtype), out=cell)
                np.add.at(self._counters, cell_buf[:cells], signed_buf[:cells])

    def estimate(self) -> float:
        """Median over rows of the sum over columns of squared counters.

        Rows are squared and summed 16 at a time, so the float64 copy is one
        block (300 KB at 2,400 columns), not the whole sketch.  The median is
        the middle row sum, or the mean of the two middle ones, of the sorted
        sums: bit-identical to ``np.median``, whose first call imports
        ``numpy.ma``.
        """
        counters = self._counters.reshape(self.rows, self.cols)
        sums = np.empty(self.rows)
        for lo in range(0, self.rows, 16):
            block = counters[lo:lo + 16].astype(np.float64)
            block *= block
            block.sum(axis=1, out=sums[lo:lo + 16])
        sums.sort()
        mid = self.rows // 2
        if self.rows % 2:
            return float(sums[mid])
        return float((sums[mid - 1] + sums[mid]) / 2)

    def merge(self, other: "F2Sketch") -> "F2Sketch":
        """Sum of two sketches over the same hash family."""
        if (self.n, self.rows, self.cols, self.seed) != (
            other.n, other.rows, other.cols, other.seed,
        ):
            raise SeedMismatchError("sketches differ in shape, universe, or seed")
        out = F2Sketch(self.n, self.rows, self.cols, self.seed)
        out._counters = self._counters + other._counters
        out._abs_weight = self._abs_weight + other._abs_weight
        if out._abs_weight >= _WEIGHT_BUDGET:
            raise CounterOverflowError("merged weight exceeds the 64-bit counter budget")
        return out
