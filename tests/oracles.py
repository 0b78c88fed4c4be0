"""Independent reference implementations used only to pin the package.

Everything here is deliberately written from scratch against the textbook
definitions, with different inversion paths and no shared helpers, so a
bug in the package cannot hide in its own oracle.
"""

import cmath
import math
import sys


def oracle_add(p, a4, a6, pt1, pt2):
    """Chord-tangent addition with Fermat-inverse division."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        lam = (3 * x1 * x1 + a4) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def oracle_scalar(p, a4, a6, k, pt):
    """k*P by plain repeated addition (no doubling tricks)."""
    acc = None
    for _ in range(k):
        acc = oracle_add(p, a4, a6, acc, pt)
    return acc


def oracle_points(p, a4, a6):
    """All curve points by tabulating y^2 residues; identity is None."""
    ys_by_square = {}
    for y in range(p):
        ys_by_square.setdefault(y * y % p, []).append(y)
    pts = [None]
    for x in range(p):
        rhs = (pow(x, 3, p) + a4 * x + a6) % p
        for y in ys_by_square.get(rhs, []):
            pts.append((x, y))
    return pts


def oracle_squares(p):
    """The set of quadratic residues mod p, zero included."""
    return {x * x % p for x in range(p)}


def oracle_phi(n):
    """Totient by gcd counting."""
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def oracle_mobius(n):
    """Mobius by explicit squarefree factor counting."""
    count = 0
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            count += 1
        f += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def naive_bilinear(table, k_set, m_set, lam, rho=None, theta=None):
    """The double loop with cmath, exactly as the definition reads."""
    total = 0.0
    for k in k_set:
        inner = 0j
        for m in m_set:
            x = table.xs[(k * m) % table.order - 1]
            w = 1.0 if theta is None else theta.get(m, 1.0)
            inner += w * cmath.exp(2j * cmath.pi * lam * x / table.p)
        w = 1.0 if rho is None else rho.get(k, 1.0)
        total += abs(w * inner)
    return total


def naive_count(table, b_set, h_set, sum_values):
    """Pure-Python triple loop for the quadruple count J."""
    t, p = table.order, table.p
    sums = set(sum_values)
    total = 0
    for b1 in b_set:
        ib = pow(b1, -1, t)
        for b2 in b_set:
            for h in h_set:
                u = (table.xs[(h * ib) % t - 1] + table.xs[b2 - 1]) % p
                if u in sums:
                    total += 1
    return total


def naive_subgroup_sum(table, lam):
    """sum_k psi_lambda(x(kP)) with cmath, term by term."""
    return sum(cmath.exp(2j * cmath.pi * lam * x / table.p) for x in table.xs)


def spectrum_tolerance(p, size_b, size_h, size_s):
    """Roundoff allowed between the character route for J and the exact J.

    A normwise FFT error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 24): eps * log2(p) per transform, scaled by the l2 norms
    of the three histograms, 16 * eps * ceil(log2 p) * #B^2 * #H * sqrt(#S).
    """
    eps = sys.float_info.epsilon
    return 16 * eps * math.ceil(math.log2(p)) * size_b ** 2 * size_h * math.sqrt(size_s)


def naive_sum_set(table, a_set, b_set):
    """Sorted distinct x(aP) + x(bP) mod p, by a Python double loop."""
    out = set()
    for a in a_set:
        for b in b_set:
            out.add((table.xs[a - 1] + table.xs[b - 1]) % table.p)
    return tuple(sorted(out))


def naive_prod_set(table, a_set, b_set):
    """Sorted distinct x(abP), by a Python double loop."""
    out = set()
    for a in a_set:
        for b in b_set:
            out.add(table.xs[(a * b) % table.order - 1])
    return tuple(sorted(out))


class OracleNotAUnit(Exception):
    """Stands in for the package's NotAUnit, which the oracles do not import."""


def oracle_check_unit_subset(members, t, not_a_unit=OracleNotAUnit):
    """The Python unit-subset validator the package used before its numpy one:
    sorted distinct members, the smallest bad one raising ValueError (outside
    [1, t-1]) or not_a_unit (shares a factor with t)."""
    out = sorted(set(int(m) for m in members))
    for m in out:
        if not 1 <= m < t:
            raise ValueError(f"set member {m} outside [1, {t - 1}]")
        if math.gcd(m, t) != 1:
            raise not_a_unit(f"set member {m} is not a unit mod {t}")
    return tuple(out)


def oracle_sample_unit_subset(t, k, rng, too_large=ValueError):
    """The partial Fisher-Yates draw the package used before its sparse one:
    shuffle a full list of the units of Z_t with rng.below, return the first
    k slots sorted. rng is a fresh SplitMix64 of the seed under test."""
    pool = [m for m in range(1, t) if math.gcd(m, t) == 1]
    if k < 0:
        raise ValueError("subset size must be nonnegative")
    if k > len(pool):
        raise too_large(f"asked for {k} of the {len(pool)} units mod {t}")
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:k]))
