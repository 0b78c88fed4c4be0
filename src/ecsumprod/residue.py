"""Arithmetic in Z_T: factorization, totient, Mobius, units, inverses by the
builtin pow, and reduce_mod, the array reduction that the orbit walk and
the set, J and sampled-character kernels share.

Every test of unit membership reads one sieve of Z_t, unit_sieve: a
read-only boolean array of t bytes, cached for the last modulus asked
for. units_of hands out its support, sumprod.check_unit_subset gathers
from it, and count_solutions writes into a copy of it.
"""

import math
import operator
from functools import lru_cache

import numpy as np

from .errors import NotAUnit


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: list[tuple[int, int]] = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    phi = 1
    for q, e in factorize(n):
        phi *= q ** (e - 1) * (q - 1)
    return phi


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for q, e in factorize(n):
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


# One modulus: a theorem2 cell checks its sets against one T eight times,
# and a sweep moves to the next T only with the next curve.
@lru_cache(maxsize=1)
def unit_sieve(t: int) -> np.ndarray:
    """Read-only boolean array of length t >= 2, True exactly at the units of Z_t."""
    if t < 2:
        raise ValueError("unit_sieve needs t >= 2")
    # Sieve out the multiples of each prime factor: 8x faster than a gcd
    # per residue at t = 10^4, and the same set.
    unit = np.ones(t, dtype=bool)
    unit[0] = False
    for q, _ in factorize(t):
        unit[::q] = False
    unit.flags.writeable = False
    return unit


def units_of(t: int) -> np.ndarray:
    """The unit group of Z_t as a sorted int64 array, t >= 2 (a fresh one)."""
    return np.flatnonzero(unit_sieve(t))


def inv_mod(a: int, t: int) -> int:
    """Inverse of a in Z_t, a and t Python or numpy ints; raises NotAUnit otherwise."""
    t = operator.index(t)  # the builtin pow takes no numpy ints
    if t < 2:
        raise ValueError("inv_mod needs t >= 2")
    a = operator.index(a) % t
    g = math.gcd(a, t)
    if g != 1:
        raise NotAUnit(f"{a} is not invertible mod {t} (gcd {g})")
    return pow(a, -1, t)


def reduce_mod(k: np.ndarray, n: int) -> np.ndarray:
    """k mod n in place for an array k of nonnegative integers; returns k.

    k is int64, or uint32 for count_solutions' index products below 2^32.
    Taken as k - (k // n) * n: numpy divides by a scalar through a
    precomputed reciprocal, and np.remainder does not (33 against 67 us on
    16k int64 elements). The quotient takes one temporary the size of k.
    """
    quot = k // n
    quot *= n
    k -= quot
    return k
