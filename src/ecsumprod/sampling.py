"""Seeded sampling: unit subsets, curve discovery, base-point choice.

Everything here draws from SplitMix64 streams only, so any (seed, inputs)
pair reproduces bit-for-bit.
"""

import numpy as np

from .curve import (
    INFINITY, AffinePoints, CurveParams, CurveSummary, curve_summary, point_order, scalar_mul,
)
from .errors import TooLarge
from .residue import units_of
from .rng import SplitMix64

MAX_TRIES = 2000  # curve draws before random_curve gives up
SAMPLES = 30  # affine points max_order_point draws


def sample_unit_subset(t: int, k: int, seed: int) -> np.ndarray:
    """k distinct units of Z_t, drawn by a partial Fisher-Yates shuffle.

    The shuffle swaps entries of the fresh sorted unit array that
    units_of(t) returns, using SplitMix64(seed).below for the swap
    indices; the first k slots are returned as a sorted int64 array, the
    package's form of a set (empty for k = 0). A draw costs the sieve plus
    O(k) swaps. Equal (t, k, seed) always produce the same subset, and
    k = phi(t) returns the whole unit group no matter the seed.
    """
    pool = units_of(t)
    n = len(pool)
    if k < 0:
        raise ValueError("subset size must be nonnegative")
    if k > n:
        raise TooLarge(f"asked for {k} of the {n} units mod {t}")
    rng = SplitMix64(seed)
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(pool[:k])


def random_curve(p: int, rng: SplitMix64,
                 require_ordinary: bool = True) -> tuple[CurveParams, CurveSummary]:
    """Sample a nonsingular curve over F_p; singular draws are discarded.

    With require_ordinary, curves whose trace vanishes mod p are discarded
    too (the bilinear machinery needs them gone). Draw order is fixed, so
    a given rng state always yields the same curve.
    """
    for _ in range(MAX_TRIES):
        a4, a6 = rng.below(p), rng.below(p)
        if (4 * a4 * a4 * a4 + 27 * a6 * a6) % p == 0:
            continue
        curve = CurveParams(p, a4, a6)
        summary = curve_summary(curve)
        if require_ordinary and not summary.ordinary:
            continue
        return curve, summary
    raise RuntimeError(f"no usable curve over F_{p} after {MAX_TRIES} draws")


def max_order_point(curve: CurveParams, n_points: int, rng: SplitMix64):
    """Affine point of maximal order among seeded random samples.

    Draws with replacement from the affine points, ordered by x ascending
    and over each x with the smaller root y of f(x) before p - y, and keeps
    the first point attaining the largest order seen. Returns (point,
    order). The points are indexed through AffinePoints (p bytes, refused
    for p above curve.ENUMERATION_CAP), never listed. All draws are taken
    before any order is computed, so the rng advances the same whatever
    the orders; points and orders are then computed in draw order up to
    the first point of order n_points, which no later sample can beat.
    A sample that best_order already annihilates has an order dividing
    it, so its order is never computed.
    """
    affine = AffinePoints(curve)
    if not len(affine):
        raise ValueError("curve has no affine points to sample")
    draws = [rng.below(len(affine)) for _ in range(min(SAMPLES, len(affine)))]
    best, best_order = None, 0
    for i in draws:
        candidate = affine[i]
        if best_order and scalar_mul(curve, best_order, candidate) is INFINITY:
            continue
        order = point_order(curve, candidate, n_points)
        if order > best_order:
            best, best_order = candidate, order
        if order == n_points:
            break
    return best, best_order


def discover_instance(p: int, seed: int):
    """One-stop seeded instance on an ordinary curve: (curve, summary, point, order)."""
    rng = SplitMix64(seed)
    curve, summary = random_curve(p, rng)
    point, order = max_order_point(curve, summary.n_points, rng)
    return curve, summary, point, order
