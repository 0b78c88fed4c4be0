"""Orbit tables: x-coordinates of kP for k = 1 .. T-1.

A table is built once by an additive walk and shared read-only afterwards;
every sum, count and character evaluation in the package reads from it.
The identity T*P has no x-coordinate by design, so index k = 0 (mod T) is
an error rather than a sentinel value.
"""

import struct
from dataclasses import dataclass

from .curve import INFINITY, CurveParams, is_on_curve, point_add, require_on_curve, scalar_mul
from .errors import IdentityHasNoX, NotOnCurve, OrderMismatch

# Versioned magic prefix of the binary cache format.
CACHE_MAGIC = b"ECSP1"


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


def build_orbit(curve: CurveParams, point, order: int) -> OrbitTable:
    """Walk P, 2P, ..., (T-1)P and record x-coordinates.

    `order` must be the exact order of `point`: the walk raises
    OrderMismatch if it hits the identity early or misses it at T.
    """
    if point is INFINITY:
        raise NotOnCurve("orbit needs an affine base point, not the identity")
    require_on_curve(curve, point)
    if order < 2:
        raise OrderMismatch("an affine point has order >= 2")
    xs = []
    current = point
    for k in range(1, order):
        if current is INFINITY:
            raise OrderMismatch(f"{k} * {point} is already the identity; order {order} is wrong")
        if not is_on_curve(curve, current):  # walk invariant, cheap vs the inversion
            raise NotOnCurve(f"walk left the curve at step {k}")
        xs.append(current[0])
        current = point_add(curve, current, point)
    if current is not INFINITY:
        raise OrderMismatch(f"{order} * {point} is not the identity")
    return OrbitTable(
        p=curve.p, a4=curve.a4, a6=curve.a6,
        px=point[0], py=point[1], order=order, xs=tuple(xs),
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
    if any(not (0 <= x < table.p) for x in table.xs):
        raise ValueError("x-value out of field range")
    if table.xs[0] != table.px:
        raise ValueError("first table entry must be x(P)")
    for k in range(1, table.order):
        if table.xs[k - 1] != table.xs[table.order - k - 1]:
            raise ValueError(f"symmetry x(kP) = x((T-k)P) fails at k={k}")
    if scalar_mul(curve, table.order, point) is not INFINITY:
        raise OrderMismatch("recorded order does not annihilate the base point")
