"""Orbit tables: x-coordinates of kP for k = 1 .. T-1.

A table is built once by a vectorised half walk and shared read-only
afterwards; every sum, count and character evaluation in the package reads
from it. Its x-values are stored once, as the read-only int64 array xs;
equality compares the header fields and that array, and the hash reads
the header fields only, so neither builds a T-length object. The walk
computes kP for k <= T/2 only, in up to LANES lanes that each add the same
multiple of P with one batched Fermat inversion per step, and mirrors the
rest through x(kP) = x((T-k)P). The identity T*P has no x-coordinate by
design, so index k = 0 (mod T) is an error rather than a sentinel value.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .curve import INFINITY, CurveParams, require_on_curve, rhs_values, scalar_mul
from .errors import IdentityHasNoX, NotOnCurve, OrderMismatch

# Versioned magic prefix of the binary cache format.
CACHE_MAGIC = b"ECSP1"

# Points added per vectorised step of the orbit walk. Each step makes about
# 3*log2(p) numpy calls for the Fermat inversion, so wide rows amortise them;
# rows of 2048 int64 lanes (16 kB per temporary) ran within 3% of 4096 at
# p = 10^4 and 5*10^4 and kept the theorem2 sweep's peak RSS 0.7 MB lower.
LANES = 2048


@dataclass(frozen=True)
class OrbitTable:
    """x(kP) for k = 1 .. order-1, plus the provenance needed to rebuild it."""

    p: int
    a4: int
    a6: int
    px: int
    py: int
    order: int  # exact order T of the base point
    xs: np.ndarray  # read-only int64, xs[k-1] = x(kP), length order-1

    def __post_init__(self):
        xs = self.xs
        if not isinstance(xs, np.ndarray) or xs.dtype != np.int64 or xs.flags.writeable:
            # a private copy, so the table cannot change under its readers
            try:
                xs = np.array(xs, dtype=np.int64)
            except OverflowError:  # a value beyond int64 is beyond F_p
                raise ValueError("x-value out of field range") from None
            xs.flags.writeable = False
            object.__setattr__(self, "xs", xs)

    def _header(self) -> tuple:
        return (self.p, self.a4, self.a6, self.px, self.py, self.order)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._header() == other._header() and np.array_equal(self.xs, other.xs)

    def __hash__(self):
        return hash(self._header())

    def __deepcopy__(self, memo):
        # frozen, with a read-only array: a copy could never differ from it
        return self

    def __reduce__(self):
        # through the constructor, not __dict__: an unpickled array comes
        # back writable, and __post_init__ makes it read-only again
        return OrbitTable, (*self._header(), self.xs)

    def curve(self) -> CurveParams:
        return CurveParams(self.p, self.a4, self.a6)

    def base_point(self):
        return (self.px, self.py)


def _add_point(curve: CurveParams, x: np.ndarray, y: np.ndarray, qx: int, qy: int):
    """(x, y) + (qx, qy) lane by lane, for affine points of the curve.

    Lanes where (x, y) = (qx, qy) double by the tangent. A lane whose sum is
    the identity raises OrderMismatch. Denominators are inverted together
    by Fermat powering, d^(p-2); every product stays below p^2 < 2^62.
    """
    p = curve.p
    same_x = x == qx
    if np.any(same_x & ((y + qy) % p == 0)):
        raise OrderMismatch("the walk reached the identity before the half-point")
    num = np.where(same_x, (3 * (x * x % p) + curve.a4) % p, (qy - y) % p)
    den = np.where(same_x, 2 * y % p, (qx - x) % p)
    inv = np.ones_like(den)
    for bit in bin(p - 2)[2:]:
        inv = inv * inv % p
        if bit == "1":
            inv = inv * den % p
    slope = num * inv % p
    x3 = (slope * slope - x - qx) % p
    return x3, (slope * (x - x3) - y) % p


def build_orbit(curve: CurveParams, point, order: int) -> OrbitTable:
    """Tabulate x(kP) for k = 1 .. T-1 from a walk over k <= T/2.

    The walk fills kP for k = 1 .. floor(T/2), and k = (T+1)/2 for odd T:
    kP = (k - s)P + sP with s doubling up to LANES, then s = LANES. It
    checks that no walked point is the identity, that every walked point
    lies on the curve, and the half-point relation: (T/2)P has y = 0 for
    even T, ((T+1)/2)P = -((T-1)/2)P for odd T. Hence T*P = O while kP is
    affine for every proper divisor k of T, so T is the exact order;
    otherwise OrderMismatch. The rest mirrors through x(kP) = x((T-k)P).
    """
    if point is INFINITY:
        raise NotOnCurve("orbit needs an affine base point, not the identity")
    require_on_curve(curve, point)
    p = curve.p
    if order < 2:
        raise OrderMismatch("an affine point has order >= 2")
    if order > p + 1 and (order - p - 1) ** 2 > 4 * p:
        raise OrderMismatch(f"order {order} exceeds the Hasse bound on the group order")
    half = order // 2
    walked = order - half  # floor(T/2), plus the step to (T+1)/2 when T is odd
    xs = np.empty(order - 1, dtype=np.int64)  # the walk fills xs[:walked]
    ys = np.empty(walked, dtype=np.int64)
    xs[0], ys[0] = point
    n = 1  # xs[k - 1], ys[k - 1] hold kP for k <= n
    while n < walked:
        s = min(n, LANES)
        c = min(s, walked - n)
        xs[n:n + c], ys[n:n + c] = _add_point(
            curve, xs[n - s:n - s + c], ys[n - s:n - s + c], int(xs[s - 1]), int(ys[s - 1]))
        n += c
    if np.any((ys * ys - rhs_values(curve, xs[:walked])) % p):
        raise NotOnCurve("the orbit walk left the curve")
    if order % 2 == 0:
        at_half = ys[half - 1] == 0
    else:
        at_half = (xs[half] == xs[half - 1] and ys[half] != 0
                   and (ys[half] + ys[half - 1]) % p == 0)
    if not at_half:
        raise OrderMismatch(f"{order} * {point} is not the identity")
    xs[half:] = xs[:order - 1 - half][::-1]  # x(kP) = x((T-k)P); the ranges are disjoint
    xs.flags.writeable = False
    return OrbitTable(
        p=p, a4=curve.a4, a6=curve.a6,
        px=point[0], py=point[1], order=order, xs=xs,
    )


def x_of(table: OrbitTable, k: int) -> int:
    """x(kP) for any integer k, reduced mod the point order.

    k = 0 (mod T) lands on the identity, which has no x-coordinate; that
    raises IdentityHasNoX instead of returning a sentinel.
    """
    r = k % table.order
    if r == 0:
        raise IdentityHasNoX(f"k = {k} = 0 mod {table.order}")
    return int(table.xs[r - 1])


def save_orbit(table: OrbitTable, path) -> None:
    """Write the binary cache: magic, 6 little-endian u64 header words
    (p, a4, a6, x(P), y(P), T), then the T-1 x-values as u64."""
    header = struct.pack("<6Q", *table._header())
    body = table.xs.astype("<u8").tobytes()
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC + header + body)


def load_orbit(path) -> OrbitTable:
    """Read a cache written by save_orbit and re-validate its invariants."""
    # unbuffered, so the body is read into one bytes object and not joined
    # to a read-ahead buffer; np.frombuffer then wraps it without a copy
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(len(CACHE_MAGIC) + 48)
        body = fh.read()
    if head[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise ValueError(f"{path}: bad magic, not an orbit cache")
    if len(head) < len(CACHE_MAGIC) + 48:
        raise ValueError(f"{path}: truncated header")
    p, a4, a6, px, py, order = struct.unpack_from("<6Q", head, len(CACHE_MAGIC))
    if len(body) != 8 * (order - 1):
        raise ValueError(f"{path}: expected {order - 1} x-values, found {len(body) // 8}")
    # a u64 value of 2^63 or more reads as negative and fails the range check
    xs = np.frombuffer(body, dtype="<i8")
    table = OrbitTable(p=p, a4=a4, a6=a6, px=px, py=py, order=order, xs=xs)
    validate_orbit(table)
    return table


def validate_orbit(table: OrbitTable) -> None:
    """Structural checks on a table of unknown provenance.

    Verifies value ranges, base point membership, the x(kP) = x((T-k)P)
    symmetry, and that the recorded order annihilates the base point.
    Cheaper than a rebuild, strong enough to reject corrupted caches.
    """
    curve = table.curve()
    point = require_on_curve(curve, table.base_point())
    xs = table.xs
    if table.order < 2 or len(xs) != table.order - 1:
        raise OrderMismatch("table length disagrees with the recorded order")
    if xs.min() < 0 or xs.max() >= table.p:
        raise ValueError("x-value out of field range")
    if xs[0] != table.px:
        raise ValueError("first table entry must be x(P)")
    asymmetric = np.flatnonzero(xs != xs[::-1])
    if len(asymmetric):
        raise ValueError(f"symmetry x(kP) = x((T-k)P) fails at k={asymmetric[0] + 1}")
    if scalar_mul(curve, table.order, point) is not INFINITY:
        raise OrderMismatch("recorded order does not annihilate the base point")
