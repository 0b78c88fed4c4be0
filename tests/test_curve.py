import tracemalloc

import numpy as np
import pytest

import ecsumprod.curve as curve_module
from conftest import SMALL_PRIMES
from ecsumprod import (
    AffinePoints,
    CapExceeded,
    CurveParams,
    INFINITY,
    InvariantViolation,
    NotOnCurve,
    OrbitTable,
    OrderNotDividing,
    build_orbit,
    curve_summary,
    enumerate_points,
    is_on_curve,
    point_add,
    point_order,
    scalar_mul,
)
from ecsumprod.curve import require_on_curve
from ecsumprod.rng import SplitMix64, derive_seed
import ecsumprod.sampling as sampling_module
from ecsumprod.sampling import discover_instance, max_order_point, random_curve
from oracles import oracle_add, oracle_points, oracle_scalar


def test_known_curve_points(known_curve):
    n, pts = enumerate_points(known_curve)
    assert n == 9
    assert pts == [INFINITY, (0, 1), (0, 4), (2, 1), (2, 4),
                   (3, 1), (3, 4), (4, 2), (4, 3)]
    assert all(is_on_curve(known_curve, q) for q in pts)


def test_known_curve_summary(known_summary):
    assert known_summary.n_points == 9
    assert known_summary.trace == -3
    assert known_summary.ordinary


def test_supersingular_example():
    s = curve_summary(CurveParams(5, 0, 1))
    assert s.n_points == 6 and s.trace == 0 and not s.ordinary


def test_add_examples(known_curve):
    p = (0, 1)
    assert point_add(known_curve, p, INFINITY) == p
    assert point_add(known_curve, INFINITY, p) == p
    assert point_add(known_curve, p, p) == (4, 2)  # tangent slope 1/2 = 3 mod 5
    assert point_add(known_curve, p, (0, (-1) % known_curve.p)) is INFINITY
    assert scalar_mul(known_curve, 3, p) == (2, 1)
    assert scalar_mul(known_curve, 9, p) is INFINITY
    assert scalar_mul(known_curve, 0, p) is INFINITY


def test_point_order_examples(known_curve):
    assert point_order(known_curve, (0, 1), 9) == 9
    assert point_order(known_curve, INFINITY, 9) == 1
    with pytest.raises(OrderNotDividing):
        point_order(known_curve, (0, 1), 8)
    n, pts = enumerate_points(known_curve)
    for q in pts:
        assert n % point_order(known_curve, q, n) == 0


def test_singular_rejected():
    with pytest.raises(ValueError):
        CurveParams(5, 0, 0)
    with pytest.raises(ValueError):
        CurveParams(7, 0, 0)


def test_off_curve_checked(known_curve):
    assert not is_on_curve(known_curve, (1, 1))
    with pytest.raises(NotOnCurve):
        require_on_curve(known_curve, (1, 1))
    assert require_on_curve(known_curve, (0, 1)) == (0, 1)


def test_numpy_int_points_become_python_ints():
    # x^3 at x near 10^7 wraps in int64; read as Python ints it does not
    curve, point = CurveParams(9999991, 2, 3), (9999987, 3607449)
    np_point = tuple(map(np.int64, point))
    assert is_on_curve(curve, point) and is_on_curve(curve, np_point)
    assert [type(c) for c in require_on_curve(curve, np_point)] == [int, int]
    assert require_on_curve(curve, np_point) == point
    # the group law and the orbit walk take the converted point
    curve, summary, point, order = discover_instance(1009, 1)
    np_point = tuple(map(np.int64, point))
    assert point_order(curve, np_point, summary.n_points) == order
    table, ref = build_orbit(curve, np_point, np.int64(order)), build_orbit(curve, point, order)
    assert [type(v) for v in (table.px, table.py, table.order)] == [int, int, int]
    assert table == ref and np.array_equal(table.xs, ref.xs)
    header = {k: np.int64(v) for k, v in vars(ref).items() if k != "xs"}
    copy = OrbitTable(**header, xs=ref.xs)
    assert {type(v) for k, v in vars(copy).items() if k != "xs"} == {int}


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(curve_module, "ENUMERATION_CAP", 50)
    with pytest.raises(CapExceeded):
        enumerate_points(CurveParams(101, 1, 1))
    with pytest.raises(CapExceeded):
        curve_summary(CurveParams(101, 1, 1))


def test_negative_scalar_rejected(known_curve):
    with pytest.raises(ValueError):
        scalar_mul(known_curve, -1, (0, 1))


def test_group_law_against_oracle():
    # every point pair on seeded random curves, two independent evaluators
    for p in (5, 7, 11, 13):
        rng = SplitMix64(9000 + p)
        for _ in range(6):
            curve, _ = random_curve(p, rng, require_ordinary=False)
            _, pts = enumerate_points(curve)
            assert pts == oracle_points(curve.p, curve.a4, curve.a6)
            for q1 in pts:
                for q2 in pts:
                    got = point_add(curve, q1, q2)
                    assert got == oracle_add(curve.p, curve.a4, curve.a6, q1, q2)
                    assert got == point_add(curve, q2, q1)  # commutativity


def test_group_axioms_sampled():
    rng = SplitMix64(77)
    for p in (5, 7, 11, 13):
        for _ in range(3):
            curve, summary = random_curve(p, rng, require_ordinary=False)
            n, pts = enumerate_points(curve)
            assert n == summary.n_points
            for _ in range(120):
                q1 = pts[rng.below(n)]
                q2 = pts[rng.below(n)]
                q3 = pts[rng.below(n)]
                left = point_add(curve, point_add(curve, q1, q2), q3)
                right = point_add(curve, q1, point_add(curve, q2, q3))
                assert left == right  # associativity
            for q in pts:
                neg = q if q is INFINITY else (q[0], (-q[1]) % p)
                assert point_add(curve, q, neg) is INFINITY
                assert scalar_mul(curve, n, q) is INFINITY  # Lagrange


def test_scalar_mul_against_oracle(known_curve):
    rng = SplitMix64(4)
    for p in (5, 13):
        curve, _ = random_curve(p, rng, require_ordinary=False)
        _, pts = enumerate_points(curve)
        for _ in range(40):
            q = pts[rng.below(len(pts))]
            k = rng.below(60)
            assert scalar_mul(curve, k, q) == oracle_scalar(curve.p, curve.a4, curve.a6, k, q)


# a4 = 0 (j = 0), a6 = 0 (the 2-torsion point (0, 0)), x^3 - x (all three
# 2-torsion points), and generic curves; y^2 = x^3 + 1 over F_5 is
# supersingular
@pytest.mark.parametrize("p, a4, a6", [
    (5, 0, 1), (5, 1, 1), (7, 0, 3), (7, 6, 0), (11, 1, 0), (13, 0, 2),
    (13, 2, 3), (17, 16, 0), (19, 3, 0), (23, 1, 1),
])
def test_scalar_mul_every_point_and_multiple(p, a4, a6):
    curve = CurveParams(p, a4, a6)
    pts = oracle_points(p, curve.a4, curve.a6)
    n = len(pts)
    for q in pts:
        for k in range(2 * n + 3):
            assert scalar_mul(curve, k, q) == oracle_scalar(p, curve.a4, curve.a6, k, q), (q, k)
    if a6 == 0:
        assert (0, 0) in pts  # a 2-torsion point, doubled to the identity


def test_hasse_window_all_small_primes():
    rng = SplitMix64(31337)
    for p in SMALL_PRIMES:
        curve, summary = random_curve(p, rng, require_ordinary=False)
        assert summary.trace * summary.trace <= 4 * p


def test_hasse_window_violation_raises(monkeypatch, known_curve):
    # every x a square root pair gives N = 2p + 1, far outside the window
    monkeypatch.setattr(curve_module, "_root_counts", lambda p: np.full(p, 2, dtype=np.uint8))
    with pytest.raises(InvariantViolation):
        curve_summary(known_curve)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_count_and_enumeration_match_oracle(p):
    # a6 = 0 curves carry the 2-torsion point (0, 0), so y = 0 rows occur
    tried = 0
    for a4, a6 in {(1, 0), (p - 1, 0), (0, 1), (1, 1), (2, 3), (3, p - 2)}:
        try:
            curve = CurveParams(p, a4, a6)
        except ValueError:  # singular for this p
            continue
        tried += 1
        expected = oracle_points(p, curve.a4, curve.a6)
        n, pts = enumerate_points(curve)
        assert pts == expected
        assert n == len(expected) == curve_summary(curve).n_points
    assert tried >= 4


def test_max_order_point_matches_full_scan():
    # stopping at the first point of order N keeps the pick and the rng stream
    for p in (13, 101, 1009):
        for seed in range(4):
            rng = SplitMix64(seed)
            curve, summary = random_curve(p, rng)
            pts = oracle_points(p, curve.a4, curve.a6)
            n = len(pts)
            ref = SplitMix64(rng.state)
            draws = [pts[1 + ref.below(n - 1)] for _ in range(min(30, n - 1))]
            orders = [point_order(curve, q, n) for q in draws]
            best = orders.index(max(orders))
            assert max_order_point(curve, n, rng) == (draws[best], orders[best])
            assert rng.next_u64() == ref.next_u64()



def test_max_order_point_skips_draws_that_cannot_win(monkeypatch):
    # The sweep's curve at p = 10009, master seed 1, has N = 9900 and no
    # point of order N (the group is Z/3 x Z/3300), so no draw stops the
    # loop early: every one of the 30 draws had its order computed. A draw
    # that the best order so far annihilates has an order dividing it.
    rng = SplitMix64(derive_seed(1, 10009, 0))
    curve, summary = random_curve(10009, rng)
    assert summary.n_points == 9900
    ref = SplitMix64(rng.state)
    for _ in range(sampling_module.SAMPLES):
        ref.below(summary.n_points - 1)
    orders = []
    real_order = sampling_module.point_order

    def counting_order(*args):
        orders.append(real_order(*args))
        return orders[-1]

    monkeypatch.setattr(sampling_module, "point_order", counting_order)
    assert max_order_point(curve, summary.n_points, rng) == ((5459, 731), 3300)
    assert rng.state == ref.state
    assert 1 <= len(orders) < sampling_module.SAMPLES
    assert max(orders) == 3300

# BLOCK = STRIDE = 2 and 3 split F_p into many blocks and strides, so points
# fall on both sides of every boundary, and pairs (x, y), (x, p - y)
# straddle none.
@pytest.mark.parametrize("block", [2, 3, curve_module.BLOCK])
@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_affine_points_match_enumeration(monkeypatch, p, block):
    # a6 = 0 curves have the point (0, 0), so y = 0 rows occur; p = 1 (mod 4)
    # runs fp_sqrt's Tonelli-Shanks loop, p = 3 (mod 4) skips it
    monkeypatch.setattr(curve_module, "BLOCK", block)
    monkeypatch.setattr(curve_module, "STRIDE", min(block, curve_module.STRIDE))
    tried = 0
    for a4, a6 in {(1, 0), (p - 1, 0), (0, 1), (1, 1), (2, 3), (3, p - 2), (p - 3, 5)}:
        try:
            curve = CurveParams(p, a4, a6)
        except ValueError:  # singular for this p
            continue
        tried += 1
        pts = oracle_points(p, curve.a4, curve.a6)
        n = len(pts)
        affine = AffinePoints(curve)
        assert len(affine) == n - 1
        assert [affine[i] for i in range(n - 1)] == pts[1:]
        assert enumerate_points(curve) == (n, pts)
        for i in (-1, n - 1):
            with pytest.raises(IndexError):
                affine[i]
    assert tried >= 5


def test_affine_points_cap(monkeypatch):
    monkeypatch.setattr(curve_module, "ENUMERATION_CAP", 50)
    with pytest.raises(CapExceeded, match="point enumeration needs p <= 50, got 101"):
        AffinePoints(CurveParams(101, 1, 1))
    with pytest.raises(CapExceeded):
        max_order_point(CurveParams(101, 1, 1), 105, SplitMix64(0))


def test_max_order_point_lists_no_points(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_points was called")

    monkeypatch.setattr(curve_module, "enumerate_points", refuse)
    curve, summary, point, order = discover_instance(1009, 1)
    # the pick of `ecsumprod curve find --p 1009 --seed 1`, first row
    assert (curve.a4, curve.a6, point, order) == (346, 387, (384, 578), 1011)


def test_max_order_point_memory_at_p_1000003():
    # The point list took 121 p bytes here. The index holds p bytes of
    # counts and builds them from p bytes of root counts and int64 blocks;
    # locating a point takes one more block.
    p = 1_000_003
    rng = SplitMix64(3)
    curve, summary = random_curve(p, rng)
    tracemalloc.start()
    try:
        point, order = max_order_point(curve, summary.n_points, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * p + 3 * 8 * curve_module.BLOCK
    assert is_on_curve(curve, point) and summary.n_points % order == 0


@pytest.mark.parametrize("p, seed", [(101, 1), (1009, 1), (1009, 2), (10007, 4)])
def test_discover_instance_tabulates_each_curve_once(monkeypatch, p, seed):
    picked = discover_instance(p, seed)
    tabulated, summarised = [], []
    real_roots, real_summary = curve_module._root_counts, sampling_module.curve_summary

    def counting_roots(q):
        tabulated.append(q)
        return real_roots(q)

    def counting_summary(curve):
        summarised.append(curve)
        return real_summary(curve)

    monkeypatch.setattr(curve_module, "_root_counts", counting_roots)
    monkeypatch.setattr(sampling_module, "curve_summary", counting_summary)
    curve_module._affine_counts.cache_clear()
    assert discover_instance(p, seed) == picked
    # one tabulation per summarised candidate; the accepted one is indexed
    # from the counts its summary made
    assert tabulated == [p] * len(summarised) and summarised[-1] == picked[0]


def test_affine_points_take_counts_of_their_own_curve_only():
    c1, c2 = CurveParams(101, 1, 1), CurveParams(101, 2, 3)
    curve_summary(c1)
    other = AffinePoints(c2)  # c1's counts are not taken for c2
    assert [other[i] for i in range(len(other))] == oracle_points(101, 2, 3)[1:]
    same = AffinePoints(c1)
    assert [same[i] for i in range(len(same))] == oracle_points(101, 1, 1)[1:]
    again = AffinePoints(c1)  # a hit: the counts built for same
    assert [again[i] for i in range(len(again))] == oracle_points(101, 1, 1)[1:]
    info = curve_module._affine_counts.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)
    assert again._counts is same._counts and not same._counts.flags.writeable
