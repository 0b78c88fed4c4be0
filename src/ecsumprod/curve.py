"""Short Weierstrass curves y^2 = x^3 + a4*x + a6 over F_p, p >= 5.

Affine points are plain (x, y) tuples; the group identity (point at
infinity) is None. The chord-tangent group law and the exhaustive point
count are the ground truth that every table and report in the package is
built on.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation, NotOnCurve, OrderNotDividing, check_cap
from .field import fp_inv, fp_sqrt, validate_prime_modulus
from .residue import factorize

# Affine points are (x, y); the group identity is INFINITY (= None).
Point = tuple[int, int] | None
INFINITY = None

# Desk-scale cap for anything that walks all of F_p (point enumeration).
ENUMERATION_CAP = 10_000_000

# Elements per transient int64 block (2 MB) when tabulating f(x) or y^2 over
# F_p; at the cap the only p-length tables are the uint8 counts below.
BLOCK = 1 << 18

# Point counts per running total of AffinePoints: locating a point takes a
# cumulative sum over one stride (4 kB of counts, about 5 us), and the
# totals take 8 bytes per stride (20 kB at the enumeration cap).
STRIDE = 1 << 12


@dataclass(frozen=True)
class CurveParams:
    """A nonsingular curve y^2 = x^3 + a4*x + a6 over F_p.

    Coefficients are reduced mod p on construction; a zero discriminant is
    rejected. Instances are immutable and hashable, so they can key caches.
    """

    p: int
    a4: int
    a6: int

    def __post_init__(self):
        validate_prime_modulus(self.p)
        object.__setattr__(self, "a4", self.a4 % self.p)
        object.__setattr__(self, "a6", self.a6 % self.p)
        if self.discriminant() == 0:
            raise ValueError(
                f"singular curve: discriminant is 0 for a4={self.a4}, a6={self.a6} mod {self.p}"
            )

    def discriminant(self) -> int:
        return (-16 * (4 * self.a4**3 + 27 * self.a6**2)) % self.p


@dataclass(frozen=True)
class CurveSummary:
    """Exhaustive curve statistics: group size, trace, ordinariness."""

    n_points: int  # group order, identity included
    trace: int  # p + 1 - n_points
    ordinary: bool  # trace != 0 mod p


def is_on_curve(curve: CurveParams, point) -> bool:
    """True for the identity and for affine points satisfying the equation."""
    if point is INFINITY:
        return True
    x, y = point
    p = curve.p
    if not (0 <= x < p and 0 <= y < p):
        return False
    return (y * y - (x * x * x + curve.a4 * x + curve.a6)) % p == 0


def require_on_curve(curve: CurveParams, point):
    if not is_on_curve(curve, point):
        raise NotOnCurve(f"{point} does not satisfy the equation of {curve}")
    return point


def point_add(curve: CurveParams, pt1, pt2):
    """Chord-tangent addition.

    The inputs are not checked against the curve equation: callers
    validate at the boundary with require_on_curve.
    """
    if pt1 is INFINITY:
        return pt2
    if pt2 is INFINITY:
        return pt1
    p = curve.p
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            # vertical chord (includes doubling a 2-torsion point)
            return INFINITY
        slope = (3 * x1 * x1 + curve.a4) * fp_inv(2 * y1, p) % p
    else:
        slope = (y2 - y1) * fp_inv(x2 - x1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    y3 = (slope * (x1 - x3) - y1) % p
    return (x3, y3)


def _jacobian_double(curve: CurveParams, acc):
    """2*(X:Y:Z) in Jacobian coordinates; None (the identity) when Y = 0."""
    x, y, z = acc
    if y == 0:
        return None
    p = curve.p
    yy = y * y % p
    s = 4 * x * yy % p
    zz = z * z % p
    m = (3 * x * x + curve.a4 * zz * zz) % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p


def _jacobian_add(curve: CurveParams, acc, point):
    """(X:Y:Z) + (x, y), the addend affine (mixed addition); None for the identity."""
    x1, y1, z1 = acc
    x2, y2 = point
    p = curve.p
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * z1 * zz - y1) % p
    if h == 0:  # the same x: the sum is the identity or a doubling
        return None if r else _jacobian_double(curve, acc)
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p


def scalar_mul(curve: CurveParams, k: int, point):
    """k*P for k >= 0 by double-and-add (left-to-right: high bit of k first).

    The accumulator (X:Y:Z) is in Jacobian coordinates, the affine point
    (X/Z^2, Y/Z^3), and adds P as an affine point (mixed addition), so the
    one inversion is pow(Z, -1, p) at the end (Cohen-Frey, Handbook of
    Elliptic and Hyperelliptic Curve Cryptography, 13.2.1). The identity
    cases are point_add's: doubling a point with y = 0 gives the identity,
    and adding P to a point with the same x gives the identity, or 2P when
    the y agree too.
    """
    if k < 0:
        raise ValueError("scalar must be nonnegative")
    if k == 0 or point is INFINITY:
        return INFINITY
    acc = (*point, 1)  # the top bit of k
    for bit in bin(k)[3:]:
        if acc is not None:
            acc = _jacobian_double(curve, acc)
        if bit == "1":
            acc = (*point, 1) if acc is None else _jacobian_add(curve, acc, point)
    if acc is None:
        return INFINITY
    p = curve.p
    x, y, z = acc
    zinv = pow(z, -1, p)
    zz = zinv * zinv % p
    return (x * zz % p, y * zz * zinv % p)


def rhs_values(curve: CurveParams, x: np.ndarray) -> np.ndarray:
    """x^3 + a4*x + a6 mod p for an int64 array of canonical x.

    Every product stays below p^2 < 2^62, so int64 never wraps. Updates
    run in place on one temporary the size of x.
    """
    f = x * x
    f += curve.a4
    f %= curve.p
    f *= x
    f += curve.a6
    f %= curve.p
    return f


def _rhs_blocks(curve: CurveParams):
    """Blocks (x0, rhs_values at x = x0, x0+1, ...) of fresh arrays covering
    all of F_p."""
    for x0 in range(0, curve.p, BLOCK):
        yield x0, rhs_values(curve, np.arange(x0, min(x0 + BLOCK, curve.p), dtype=np.int64))


def _root_counts(p: int) -> np.ndarray:
    """Number of square roots (0, 1 or 2) of every residue mod p, as uint8."""
    counts = np.zeros(p, dtype=np.uint8)
    half = (p - 1) // 2  # the squares of y = 0 .. half are distinct
    for lo in range(0, half + 1, BLOCK):
        squares = np.arange(lo, min(lo + BLOCK, half + 1), dtype=np.int64)
        squares *= squares
        squares %= p
        counts[squares] = 2
    counts[0] = 1
    return counts


# One curve's counts: discover_instance summarises a candidate curve and then
# indexes the accepted one, and one p-byte tabulation serves both.
@lru_cache(maxsize=1)
def _affine_counts(curve: CurveParams) -> np.ndarray:
    """Affine points over every x in F_p (0, 1 or 2), as read-only uint8: p bytes."""
    roots = _root_counts(curve.p)
    counts = np.empty(curve.p, dtype=np.uint8)
    for x0, rhs in _rhs_blocks(curve):
        np.take(roots, rhs, out=counts[x0:x0 + len(rhs)])
    counts.flags.writeable = False
    return counts


class AffinePoints:
    """The affine points of a curve, x ascending and over each x the smaller
    square root y of f(x) before p - y, indexed without building the list.

    Holds the uint8 point count of every x (p bytes) and the running totals
    of its strides of STRIDE counts. Point i lies in the first stride whose
    running total exceeds i; a cumulative sum over that stride alone finds
    its x, and the rank of i among the points over x picks the smaller
    root of f(x) (fp_sqrt) or p minus it. The counts that curve_summary
    tabulated for the same curve, when it was the last one tabulated, are
    reused rather than built again.
    """

    def __init__(self, curve: CurveParams):
        p = curve.p
        check_cap("point enumeration", p, ENUMERATION_CAP)
        self.curve = curve
        self._counts = counts = _affine_counts(curve)
        full = p - p % STRIDE
        # a reduction with dtype casts through a small buffer, never all p counts
        totals = counts[:full].reshape(-1, STRIDE).sum(axis=1, dtype=np.int64)
        if full < p:
            totals = np.append(totals, counts[full:].sum(dtype=np.int64))
        self._ends = np.cumsum(totals)

    def __len__(self) -> int:
        return int(self._ends[-1])

    def __getitem__(self, i: int):
        if not 0 <= i < len(self):
            raise IndexError(f"affine point {i} of {len(self)}")
        stride = int(np.searchsorted(self._ends, i, side="right"))
        if stride:
            i -= int(self._ends[stride - 1])
        x0 = stride * STRIDE
        ends = np.cumsum(self._counts[x0:x0 + STRIDE], dtype=np.int64)
        j = int(np.searchsorted(ends, i, side="right"))
        rank = i - (int(ends[j - 1]) if j else 0)  # 0: smaller root, 1: larger
        c, x = self.curve, x0 + j
        y = fp_sqrt(x * x * x + c.a4 * x + c.a6, c.p)
        return (x, c.p - y if rank else y)


def enumerate_points(curve: CurveParams):
    """All points of the curve: the identity, then AffinePoints(curve) in order.

    Returns (n_points, points) where points[0] is INFINITY. Every affine
    point costs one fp_sqrt, so the list suits small p; sampling indexes
    AffinePoints without building it.
    """
    affine = AffinePoints(curve)
    points = [INFINITY, *(affine[i] for i in range(len(affine)))]
    return len(points), points


def curve_summary(curve: CurveParams) -> CurveSummary:
    """Exhaustive group order and trace; the Hasse window is checked, not assumed."""
    p = curve.p
    check_cap("curve summary", p, ENUMERATION_CAP)
    counts = _affine_counts(curve)
    n = 1 + int(counts.sum(dtype=np.int64))
    t = p + 1 - n
    if t * t > 4 * p:
        raise InvariantViolation(f"trace {t} escapes the Hasse window for p={p}")
    return CurveSummary(n_points=n, trace=t, ordinary=t % p != 0)


def point_order(curve: CurveParams, point, n_points: int) -> int:
    """Exact order of a point, given the group order.

    Starts from n_points and strips prime factors while the quotient still
    annihilates the point. Raises OrderNotDividing when n_points itself
    does not.
    """
    if point is INFINITY:
        return 1
    require_on_curve(curve, point)
    if scalar_mul(curve, n_points, point) is not INFINITY:
        raise OrderNotDividing(f"{n_points} * {point} is not the identity")
    order = n_points
    for q, _ in factorize(n_points):
        while order % q == 0 and scalar_mul(curve, order // q, point) is INFINITY:
            order //= q
    return order
