"""Exact arithmetic in the prime field F_p, p >= 5.

Field elements are plain integers in canonical form 0 <= a < p; the modulus
travels as an explicit argument; inverses and powers are the builtin pow.
"""

import operator

from .errors import ZeroInverse, check_cap

# Desk-scale cap on the modulus: keeps a product of two canonical
# representatives below 2^62 (relevant for ports with fixed-width ints) and
# keeps every O(p) enumeration loop in the package affordable.
MODULUS_CAP = 1 << 31

_MR_WITNESSES = (2, 7, 61)
IS_PRIME_BOUND = 4_759_123_141  # 48781 * 97561, the least strong pseudoprime to all three


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below IS_PRIME_BOUND; ValueError from there."""
    if n < 2:
        return False
    if n >= IS_PRIME_BOUND:
        raise ValueError(f"is_prime is exact only below {IS_PRIME_BOUND}, got {n}")
    for small in (2, 3, 5, 7, 11, 13):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_prime_modulus(p: int) -> int:
    """Check that p is a usable modulus: a prime with 5 <= p < 2^31."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError(f"modulus must be an int, got {type(p).__name__}")
    check_cap("modulus", p, MODULUS_CAP - 1)
    if p < 5 or not is_prime(p):
        raise ValueError(f"modulus must be a prime >= 5, got {p}")
    return p


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p (builtin pow); ZeroInverse on a = 0 mod p."""
    a = operator.index(a) % p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p): 0 when p | a, +1 on nonzero squares, else -1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def fp_sqrt(a: int, p: int) -> int | None:
    """Smaller square root of a mod p, or None when a is a non-residue.

    Tonelli-Shanks (Cohen, Alg. 1.5.1); for p = 3 (mod 4), s = 1 and
    t = a^q = 1 skip its loop, leaving r = a^((p+1)/4). The root returned
    satisfies r <= p - r, so the choice between the two is deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    # Tonelli-Shanks: p - 1 = q * 2^s with q odd, z any non-residue.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)
