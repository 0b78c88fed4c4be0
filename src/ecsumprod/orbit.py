"""Orbit tables: x-coordinates of kP for k = 1 .. T-1.

A table is built once by a vectorised half walk and shared read-only
afterwards; every sum, count and character evaluation in the package reads
from it. The walk computes kP for k <= T/2 only, in up to LANES lanes that
each add the same multiple of P with one batched Fermat inversion per step,
and mirrors the rest through x(kP) = x((T-k)P). The identity T*P has no x-coordinate by
design, so index k = 0 (mod T) is an error rather than a sentinel value.
"""

import struct
from dataclasses import dataclass
from functools import cached_property

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
    xs: tuple[int, ...]  # xs[k-1] = x(kP), length order-1

    def curve(self) -> CurveParams:
        return CurveParams(self.p, self.a4, self.a6)

    def base_point(self):
        return (self.px, self.py)

    @cached_property
    def xs_array(self) -> np.ndarray:
        """xs as a read-only int64 array, converted once per table."""
        arr = np.array(self.xs, dtype=np.int64)
        arr.flags.writeable = False
        return arr


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
    xs = np.empty(walked, dtype=np.int64)
    ys = np.empty(walked, dtype=np.int64)
    xs[0], ys[0] = point
    n = 1  # xs[k - 1], ys[k - 1] hold kP for k <= n
    while n < walked:
        s = min(n, LANES)
        c = min(s, walked - n)
        xs[n:n + c], ys[n:n + c] = _add_point(
            curve, xs[n - s:n - s + c], ys[n - s:n - s + c], int(xs[s - 1]), int(ys[s - 1]))
        n += c
    if np.any((ys * ys - rhs_values(curve, xs)) % p):
        raise NotOnCurve("the orbit walk left the curve")
    if order % 2 == 0:
        at_half = ys[half - 1] == 0
    else:
        at_half = (xs[half] == xs[half - 1] and ys[half] != 0
                   and (ys[half] + ys[half - 1]) % p == 0)
    if not at_half:
        raise OrderMismatch(f"{order} * {point} is not the identity")
    head = xs[:half].tolist()  # the mirrored half shares these int objects
    return OrbitTable(
        p=p, a4=curve.a4, a6=curve.a6,
        px=point[0], py=point[1], order=order,
        xs=tuple(head + head[:order - 1 - half][::-1]),
    )


def x_of(table: OrbitTable, k: int) -> int:
    """x(kP) for any integer k, reduced mod the point order.

    k = 0 (mod T) lands on the identity, which has no x-coordinate; that
    raises IdentityHasNoX instead of returning a sentinel.
    """
    r = k % table.order
    if r == 0:
        raise IdentityHasNoX(f"k = {k} = 0 mod {table.order}")
    return table.xs[r - 1]


def save_orbit(table: OrbitTable, path) -> None:
    """Write the binary cache: magic, 6 little-endian u64 header words
    (p, a4, a6, x(P), y(P), T), then the T-1 x-values as u64."""
    header = struct.pack(
        "<6Q", table.p, table.a4, table.a6, table.px, table.py, table.order
    )
    body = struct.pack(f"<{len(table.xs)}Q", *table.xs)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC + header + body)


def load_orbit(path) -> OrbitTable:
    """Read a cache written by save_orbit and re-validate its invariants."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise ValueError(f"{path}: bad magic, not an orbit cache")
    rest = blob[len(CACHE_MAGIC):]
    if len(rest) < 48:
        raise ValueError(f"{path}: truncated header")
    p, a4, a6, px, py, order = struct.unpack_from("<6Q", rest)
    body = rest[48:]
    if len(body) != 8 * (order - 1):
        raise ValueError(f"{path}: expected {order - 1} x-values, found {len(body) // 8}")
    xs = struct.unpack(f"<{order - 1}Q", body)
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
    if table.order < 2 or len(table.xs) != table.order - 1:
        raise OrderMismatch("table length disagrees with the recorded order")
    xs = np.array(table.xs)  # int64, or uint64/object if a value overflows int64
    if xs.min() < 0 or xs.max() >= table.p:
        raise ValueError("x-value out of field range")
    if table.xs[0] != table.px:
        raise ValueError("first table entry must be x(P)")
    asymmetric = np.flatnonzero(xs != xs[::-1])
    if len(asymmetric):
        raise ValueError(f"symmetry x(kP) = x((T-k)P) fails at k={asymmetric[0] + 1}")
    if scalar_mul(curve, table.order, point) is not INFINITY:
        raise OrderMismatch("recorded order does not annihilate the base point")
