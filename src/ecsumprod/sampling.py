"""Seeded sampling: unit subsets, curve discovery, base-point choice.

Everything here draws from SplitMix64 streams only, so any (seed, inputs)
pair reproduces bit-for-bit.
"""

from .curve import (
    ENUMERATION_CAP,
    CurveParams,
    CurveSummary,
    curve_summary,
    enumerate_points,
    point_order,
)
from .errors import TooLarge
from .residue import unit_array
from .rng import SplitMix64


def sample_unit_subset(t: int, k: int, seed: int) -> tuple[int, ...]:
    """k distinct units of Z_t, drawn by a partial Fisher-Yates shuffle.

    The shuffle walks the sorted unit array using SplitMix64(seed).below
    for the swap indices; the first k slots are returned sorted. Only the
    slots a swap touched are stored, so a draw costs O(k) besides the
    sieve. Equal (t, k, seed) always produce the same subset, and
    k = phi(t) returns the whole unit group no matter the seed.
    """
    pool = unit_array(t)
    n = len(pool)
    if k < 0:
        raise ValueError("subset size must be nonnegative")
    if k > n:
        raise TooLarge(f"asked for {k} of the {n} units mod {t}")
    rng = SplitMix64(seed)
    moved = {}  # slot -> unit swapped into it; other slots still hold pool[slot]
    for i in range(k):
        j = i + rng.below(n - i)
        moved[i], moved[j] = moved.get(j, pool[j]), moved.get(i, pool[i])
    return tuple(sorted(int(moved[i]) for i in range(k)))


def random_curve(
    p: int,
    rng: SplitMix64,
    require_ordinary: bool = True,
    cap: int = ENUMERATION_CAP,
    max_tries: int = 2000,
) -> tuple[CurveParams, CurveSummary]:
    """Sample a nonsingular curve over F_p; singular draws are discarded.

    With require_ordinary, curves whose trace vanishes mod p are discarded
    too (the bilinear machinery needs them gone). Draw order is fixed, so
    a given rng state always yields the same curve.
    """
    for _ in range(max_tries):
        a4, a6 = rng.below(p), rng.below(p)
        if (4 * a4 * a4 * a4 + 27 * a6 * a6) % p == 0:
            continue
        curve = CurveParams(p, a4, a6)
        summary = curve_summary(curve, cap=cap)
        if require_ordinary and not summary.ordinary:
            continue
        return curve, summary
    raise RuntimeError(f"no usable curve over F_{p} after {max_tries} draws")


def max_order_point(curve: CurveParams, points, n_points: int, rng: SplitMix64,
                    samples: int = 30):
    """Affine point of maximal order among seeded random samples.

    Draws (with replacement) from the affine points and keeps the first
    point attaining the largest order seen. Returns (point, order). All
    draws are taken before any order is computed, so the rng advances the
    same whatever the orders; orders are then computed in draw order up to
    the first point of order n_points, which no later sample can beat.
    """
    affine = points[1:]  # points[0] is the identity
    if not affine:
        raise ValueError("curve has no affine points to sample")
    draws = [affine[rng.below(len(affine))] for _ in range(min(samples, len(affine)) or 1)]
    best, best_order = None, 0
    for candidate in draws:
        order = point_order(curve, candidate, n_points)
        if order > best_order:
            best, best_order = candidate, order
        if order == n_points:
            break
    return best, best_order


def discover_instance(p: int, seed: int, require_ordinary: bool = True,
                      cap: int = ENUMERATION_CAP):
    """One-stop seeded instance: (curve, summary, point, order)."""
    rng = SplitMix64(seed)
    curve, summary = random_curve(p, rng, require_ordinary=require_ordinary, cap=cap)
    _, points = enumerate_points(curve, cap=cap)
    point, order = max_order_point(curve, points, summary.n_points, rng)
    return curve, summary, point, order
