"""Orbit tables: x-coordinates of kP for k = 1 .. T-1.

A table is built once by a vectorised half walk and shared read-only
afterwards; every sum, count and character evaluation in the package reads
from it. Its x-values are stored once, as the read-only int64 array xs,
the walk's only array of its length. The table is a plain frozen
dataclass: the header (p, a4, a6, P, T) fixes every x(kP), so equality
and the hash read the header alone, and the constructor checks xs (a
read-only int64 array of length T-1 with values in [0, p)) without
copying it. The walk computes kP for k <= T/2 only, on a
baby/giant grid: L baby steps iP and about T/(2L) giant steps jL*P by the
affine law, then every other kP as a baby plus a giant step, many lanes
per numpy call, with one product-tree inversion per call. It mirrors the
rest through x(kP) = x((T-k)P). The identity T*P has no x-coordinate by
design, so index k = 0 (mod T) is an error rather than a sentinel value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import INFINITY, CurveParams, point_add, require_on_curve, rhs_values
from .errors import IdentityHasNoX, NotOnCurve, OrderMismatch
from .residue import reduce_mod

# Most baby steps of the orbit walk, the row length L of its grid. The walk
# makes L + T/(2L) scalar point_add calls (1-2 us each) for the baby and
# giant steps, so L = ceil(sqrt(T/2)) up to this cap; at T = 10^7 the cap
# gives 2048 + 2441 of them, under 10 ms of a walk of about 0.4 s.
LANES = 2048

# Lanes per vectorised call of the grid fill (whole rows of L, at least
# one): 256 kB per int64 temporary, and the product tree's fixed cost of
# about 2 log2(lanes) numpy calls spread over 2^15 points.
GRID_LANES = 1 << 15


@dataclass(frozen=True)
class OrbitTable:
    """x(kP) for k = 1 .. order-1, plus the provenance needed to rebuild it."""

    p: int
    a4: int
    a6: int
    px: int
    py: int
    order: int  # exact order T of the base point
    # read-only int64, xs[k-1] = x(kP); not compared, as the header fixes it
    xs: np.ndarray = field(compare=False)

    def __post_init__(self):
        xs = self.xs
        if (not isinstance(xs, np.ndarray) or xs.dtype != np.int64
                or xs.flags.writeable or xs.shape != (self.order - 1,)):
            raise ValueError("xs must be a read-only int64 array of length order - 1")
        if xs.size and (xs.min() < 0 or xs.max() >= self.p):
            raise ValueError(f"x-value outside [0, {self.p})")

    def curve(self) -> CurveParams:
        return CurveParams(self.p, self.a4, self.a6)

    def base_point(self):
        return (self.px, self.py)


def _inverses(d: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of every entry of d, nonzero residues, in one pow.

    A product tree (Montgomery's simultaneous inversion): pairwise products
    up to the root, one builtin pow(., -1, p) there, and two mulmods per
    level on the way down, where the inverse of a product times one factor
    is the inverse of the other. An odd level carries its last entry up.
    """
    levels = [d]
    while len(levels[-1]) > 1:
        a = levels[-1]
        h = len(a) // 2
        up = np.empty(len(a) - h, dtype=np.int64)
        np.multiply(a[0:2 * h:2], a[1::2], out=up[:h])
        reduce_mod(up[:h], p)
        up[h:] = a[2 * h:]
        levels.append(up)
    inv = np.array([pow(int(levels[-1][0]), -1, p)], dtype=np.int64)
    for a in reversed(levels[:-1]):
        h = len(a) // 2
        down = np.empty_like(a)
        np.multiply(inv[:h], a[1::2], out=down[0:2 * h:2])
        np.multiply(inv[:h], a[0:2 * h:2], out=down[1::2])
        reduce_mod(down[:2 * h], p)
        down[2 * h:] = inv[h:]
        inv = down
    return inv


def _add_point(curve: CurveParams, x: np.ndarray, y: np.ndarray,
               qx: np.ndarray, qy: np.ndarray):
    """(x, y) + (qx, qy) lane by lane, for arrays of affine points of the curve.

    Lanes where (x, y) = (qx, qy) double by the tangent. A lane whose sum is
    the identity raises OrderMismatch before any inversion. The
    denominators are inverted together by _inverses; every operand is
    reduced to [0, p) or shifted to be nonnegative, so products stay below
    2p^2 < 2^63 and reduce_mod applies.
    """
    p = curve.p
    den = qx - x
    tangent = np.flatnonzero(den == 0)
    den += p
    reduce_mod(den, p)
    num = qy - y
    num += p  # in [1, 2p)
    if len(tangent):
        tx, ty = x[tangent], y[tangent]
        if np.any((ty + qy[tangent]) % p == 0):
            raise OrderMismatch("the walk reached the identity before the half-point")
        num[tangent] = (3 * (tx * tx % p) + curve.a4) % p
        den[tangent] = 2 * ty % p
    slope = num * _inverses(den, p)
    reduce_mod(slope, p)
    x3 = slope * slope
    x3 += 2 * p - x - qx
    reduce_mod(x3, p)
    y3 = x - x3
    y3 += p
    y3 *= slope
    y3 += p - y
    return x3, reduce_mod(y3, p)


def _require_walk_on_curve(curve: CurveParams, x: np.ndarray, y: np.ndarray) -> None:
    """Raise NotOnCurve unless every (x, y) walked lies on the curve; the
    temporaries are the size of one grid call, not of the walk."""
    if np.any((y * y - rhs_values(curve, x)) % curve.p):
        raise NotOnCurve("the orbit walk left the curve")


def _affine_steps(curve: CurveParams, start, step, count: int) -> np.ndarray:
    """start + i*step for i = 0 .. count-1 by point_add, as a (count, 2) int64 array.

    Raises OrderMismatch where the walk reaches the identity.
    """
    points = [start] if count else []
    while len(points) < count:
        q = point_add(curve, points[-1], step)
        if q is INFINITY:
            raise OrderMismatch("the walk reached the identity before the half-point")
        points.append(q)
    return np.array(points, dtype=np.int64).reshape(count, 2)


def build_orbit(curve: CurveParams, point, order: int) -> OrbitTable:
    """Tabulate x(kP) for k = 1 .. T-1 from a walk over k <= T/2.

    The walk fills kP for k = 1 .. floor(T/2), and k = (T+1)/2 for odd T,
    on a baby/giant grid: baby steps iP for i = 1 .. L and giant steps
    jL*P by point_add, with L = min(LANES, ceil(sqrt(walked))), then every
    k = jL + i as the sum of the two, whole rows of L lanes per vectorised
    call up to GRID_LANES, with one product-tree inversion per call. It
    checks that no walked point is the identity, that every walked point
    lies on the curve, and the half-point relation: (T/2)P has y = 0 for
    even T; for odd T, ((T+1)/2)P and ((T-1)/2)P share an x and differ by
    P != O, so one is minus the other. Hence T*P = O while kP is affine
    for every proper divisor k of T, so T is the exact order; otherwise
    OrderMismatch. The rest mirrors through x(kP) = x((T-k)P). The walk
    never calls scalar_mul, so a check of the table against scalar_mul
    (verify's orbit spot values) compares two independent routes.
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
    lanes = min(LANES, math.isqrt(walked - 1) + 1)
    rows = -(-walked // lanes)  # row j holds kP for k = jL + 1 .. jL + L
    baby = _affine_steps(curve, point, point, lanes)
    step = tuple(baby[-1].tolist())  # L*P
    giant = _affine_steps(curve, step, step, rows - 1)  # jL*P for j = 1 .. rows-1
    xs[:lanes], y = baby.T
    _require_walk_on_curve(curve, xs[:lanes], y)
    per_call = max(1, min(rows - 1, GRID_LANES // lanes))  # rows per vectorised call
    bx, by = np.tile(xs[:lanes], per_call), np.tile(y, per_call)
    for j in range(1, rows, per_call):
        lo, hi = j * lanes, min((j + per_call) * lanes, walked)
        gx, gy = (np.repeat(g, lanes)[:hi - lo] for g in giant[j - 1:j - 1 + per_call].T)
        xs[lo:hi], y = _add_point(curve, bx[:hi - lo], by[:hi - lo], gx, gy)
        _require_walk_on_curve(curve, xs[lo:hi], y)
    # y[-1] is the y of the last walked point, k = walked
    at_half = y[-1] == 0 if order % 2 == 0 else xs[half] == xs[half - 1]
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
