"""Seeded 64-bit mixing and Mersenne-prime helpers shared across the package.

Every randomized component (vertex colorings, per-copy seeds, edge coins)
derives its bits from ``mix2`` so that identical seeds give identical
behaviour in both the scalar and the numpy-vectorized code paths.
"""

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 finalizer constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """Finalize a 64-bit word (splitmix64 output function)."""
    z = (x + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def mix2(seed: int, x: int) -> int:
    """Deterministic 64-bit hash of the pair (seed, x)."""
    return splitmix64(((seed & MASK64) * _GOLDEN + (x & MASK64)) & MASK64)


def mix2_array(seed: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``mix2`` over a uint64 array; bit-identical to the scalar."""
    z = xs.astype(np.uint64, copy=True)
    z += np.uint64((seed & MASK64) * _GOLDEN & MASK64)  # wraps like the scalar
    z += np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


# Mersenne primes 2^k - 1, listed as (k, p), used as the field moduli of the
# F2 sketch's sign and bucket hashes.  Odd and below 2^31, so the sum of
# three products of reduced values plus a coefficient stays exact in uint64.
MERSENNE_PRIMES = ((13, 8191), (17, 131071), (19, 524287), (31, 2147483647))


def prime_for(n: int) -> tuple[int, int]:
    """Smallest supported prime exceeding ``n``, as (exponent, prime).

    Vertex ids live in [1, n] and must be strictly below the field modulus.
    """
    for k, p in MERSENNE_PRIMES:
        if n < p:
            return k, p
    raise ValueError(f"universe size {n} exceeds the largest supported modulus")
