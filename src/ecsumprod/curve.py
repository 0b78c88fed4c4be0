"""Short Weierstrass curves y^2 = x^3 + a4*x + a6 over F_p, p >= 5.

Affine points are plain (x, y) tuples; the group identity (point at
infinity) is None. The chord-tangent group law and the exhaustive point
count are the ground truth that every table and report in the package is
built on.
"""

from dataclasses import dataclass

from .errors import CapExceeded, InvariantViolation, NotOnCurve, OrderNotDividing
from .field import fp_inv, legendre, validate_prime_modulus
from .residue import factorize

# Affine points are (x, y); the group identity is INFINITY (= None).
Point = tuple[int, int] | None
INFINITY = None

# Desk-scale cap for anything that walks all of F_p (point enumeration).
ENUMERATION_CAP = 10_000_000


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


def point_neg(curve: CurveParams, point):
    """Group inverse: reflect across the x-axis."""
    if point is INFINITY:
        return INFINITY
    x, y = point
    return (x, (-y) % curve.p)


def point_add(curve: CurveParams, pt1, pt2, check: bool = False):
    """Chord-tangent addition.

    With check=True both inputs are validated against the curve equation
    first; hot loops leave it off and validate at the boundary instead.
    """
    if check:
        require_on_curve(curve, pt1)
        require_on_curve(curve, pt2)
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


def scalar_mul(curve: CurveParams, k: int, point, check: bool = False):
    """k*P for k >= 0 by double-and-add (left-to-right on the bits of k)."""
    if k < 0:
        raise ValueError("scalar must be nonnegative")
    if check:
        require_on_curve(curve, point)
    acc = INFINITY
    addend = point
    while k:
        if k & 1:
            acc = point_add(curve, acc, addend)
        k >>= 1
        if k:
            addend = point_add(curve, addend, addend)
    return acc


def enumerate_points(curve: CurveParams, cap: int = ENUMERATION_CAP):
    """All points of the curve, identity first, affine points by (x, y).

    Returns (n_points, points) where points[0] is INFINITY. Cost is O(p):
    one pass to tabulate square roots, one pass over x.
    """
    p = curve.p
    if p > cap:
        raise CapExceeded(f"point enumeration needs p <= {cap}, got {p}")
    # smaller square root of each quadratic residue
    root = {}
    for y in range((p - 1) // 2, -1, -1):
        root[y * y % p] = y
    points = [INFINITY]
    for x in range(p):
        rhs = (x * x * x + curve.a4 * x + curve.a6) % p
        y = root.get(rhs)
        if y is None:
            continue
        if y == 0:
            points.append((x, 0))
        else:
            points.append((x, y))
            points.append((x, p - y))
    points = [INFINITY] + sorted(points[1:])
    return len(points), points


def curve_summary(curve: CurveParams, cap: int = ENUMERATION_CAP) -> CurveSummary:
    """Exhaustive group order and trace; the Hasse window is checked, not assumed."""
    p = curve.p
    if p > cap:
        raise CapExceeded(f"curve summary needs p <= {cap}, got {p}")
    n = 1
    for x in range(p):
        n += 1 + legendre(x * x * x + curve.a4 * x + curve.a6, p)
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
