import struct

import numpy as np
import pytest

import ecsumprod.orbit as orbit_module
from ecsumprod import (
    CurveParams,
    IdentityHasNoX,
    NotOnCurve,
    OrderMismatch,
    build_orbit,
    enumerate_points,
    load_orbit,
    point_order,
    save_orbit,
    scalar_mul,
    x_of,
)
from ecsumprod.orbit import CACHE_MAGIC, OrbitTable, validate_orbit
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance
from oracles import oracle_add


def test_known_orbit(known_table):
    assert known_table.xs == (0, 4, 2, 3, 3, 2, 4, 0)
    assert known_table.order == 9
    assert known_table.base_point() == (0, 1)


def test_x_of(known_table):
    assert x_of(known_table, 1) == 0
    assert x_of(known_table, 2) == 4
    assert x_of(known_table, 10) == 0  # 10 = 1 mod 9
    assert x_of(known_table, -1) == 0  # x(-P) = x(8P)
    for k in (9, 0, 18, -9):
        with pytest.raises(IdentityHasNoX):
            x_of(known_table, k)


def test_symmetry(known_table):
    t = known_table.order
    for k in range(1, t):
        assert x_of(known_table, k) == x_of(known_table, t - k)


def test_order_two_orbit():
    curve = CurveParams(5, 1, 0)  # (0,0) is 2-torsion: y = 0
    table = build_orbit(curve, (0, 0), 2)
    assert table.xs == (0,)


def test_wrong_order_rejected(known_curve):
    with pytest.raises(OrderMismatch):
        build_orbit(known_curve, (0, 1), 10)  # walk hits the identity at 9
    with pytest.raises(OrderMismatch):
        build_orbit(known_curve, (0, 1), 3)  # 3P is not the identity
    with pytest.raises(OrderMismatch):
        build_orbit(known_curve, (0, 1), 1)
    with pytest.raises(NotOnCurve):
        build_orbit(known_curve, (1, 1), 9)
    with pytest.raises(NotOnCurve):
        build_orbit(known_curve, None, 9)


def test_spot_values_against_scalar_mul(known_curve, known_table):
    rng = SplitMix64(11)
    for _ in range(100):
        k = 1 + rng.below(500)
        if k % 9 == 0:
            continue
        q = scalar_mul(known_curve, k % 9, (0, 1))
        assert x_of(known_table, k) == q[0]


def test_cache_round_trip(tmp_path, known_table):
    path = tmp_path / "orbit.bin"
    save_orbit(known_table, path)
    blob = path.read_bytes()
    assert blob[:5] == CACHE_MAGIC
    assert len(blob) == 5 + 6 * 8 + 8 * (known_table.order - 1)
    header = struct.unpack_from("<6Q", blob, 5)
    assert header == (5, 1, 1, 0, 1, 9)
    assert load_orbit(path) == known_table


def test_cache_rejects_corruption(tmp_path, known_table):
    path = tmp_path / "orbit.bin"
    save_orbit(known_table, path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad_magic.bin"
    bad.write_bytes(b"XXXXX" + blob[5:])
    with pytest.raises(ValueError):
        load_orbit(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_orbit(short)

    tampered = bytearray(blob)
    tampered[5 + 48] ^= 1  # flip a bit of x(1P); breaks x(P) consistency
    bad2 = tmp_path / "tampered.bin"
    bad2.write_bytes(tampered)
    with pytest.raises((ValueError, OrderMismatch, NotOnCurve)):
        load_orbit(bad2)


def test_validate_orbit_catches_symmetry_break(known_table):
    xs = list(known_table.xs)
    xs[1] = (xs[1] + 1) % 5
    broken = OrbitTable(p=5, a4=1, a6=1, px=0, py=1, order=9, xs=tuple(xs))
    with pytest.raises(ValueError):
        validate_orbit(broken)


def test_validate_orbit_reports_first_failure(known_table):
    fields = dict(p=5, a4=1, a6=1, px=0, py=1, order=9)
    xs = list(known_table.xs)  # (0, 4, 2, 3, 3, 2, 4, 0)
    xs[2], xs[5] = 0, 1  # breaks the symmetry at k = 3, 6 (and 3 = 9 - 6)
    with pytest.raises(ValueError, match=r"fails at k=3$"):
        validate_orbit(OrbitTable(xs=tuple(xs), **fields))
    for bad in ((-1, -1), (5, 5), (2**64 - 1, 2**64 - 1), (-1, 2**64 - 1)):
        xs = list(known_table.xs)
        xs[3], xs[4] = bad  # symmetric when equal; only the range is wrong
        with pytest.raises(ValueError, match="out of field range"):
            validate_orbit(OrbitTable(xs=tuple(xs), **fields))


def test_random_orbits_symmetric_and_consistent():
    for i, p in enumerate((101, 211, 307)):
        curve, summary, point, order = discover_instance(p, seed=500 + i)
        table = build_orbit(curve, point, order)
        assert len(table.xs) == order - 1
        assert table.xs == tuple(reversed(table.xs))
        assert point_order(curve, point, summary.n_points) == order
        _, pts = enumerate_points(curve)
        assert point in pts


def _oracle_walk(curve, point):
    """x(kP) for k = 1 .. T-1 by repeated oracle addition, and T."""
    xs, acc = [], point
    while acc is not None:
        xs.append(acc[0])
        acc = oracle_add(curve.p, curve.a4, curve.a6, acc, point)
    return tuple(xs), len(xs) + 1


# LANES = 1 and 2 put a doubling inside a lane on every curve; with 2 and 3
# the larger orbits take many lane rows, and 3 leaves a partial last row.
@pytest.mark.parametrize("lanes", [1, 2, 3, orbit_module.LANES])
def test_walk_matches_oracle_on_every_point(monkeypatch, lanes):
    monkeypatch.setattr(orbit_module, "LANES", lanes)
    orders = set()
    for p, a4, a6 in ((5, 1, 1), (7, 1, 0), (11, 1, 0), (13, 2, 3), (23, 1, 1), (37, 2, 0)):
        curve = CurveParams(p, a4, a6)
        _, pts = enumerate_points(curve)
        for q in pts[1:]:
            xs, t = _oracle_walk(curve, q)
            orders.add(t)
            assert build_orbit(curve, q, t).xs == xs
            for bad in {t - 1, t + 1, 2 * t, t // 2}:
                with pytest.raises(OrderMismatch):
                    build_orbit(curve, q, bad)
    assert {2, 3} <= orders
    assert any(t % 2 and t > 3 for t in orders) and any(t % 2 == 0 and t > 4 for t in orders)


def test_order_above_hasse_bound_rejected(known_curve):
    # N <= p + 1 + 2 sqrt(p) < 11; a huge order is refused before the walk
    # would ask for its arrays
    for order in (11, 10**15):
        with pytest.raises(OrderMismatch):
            build_orbit(known_curve, (0, 1), order)


def test_large_table_spot_values():
    curve, _, point, order = discover_instance(100_003, seed=1)
    table = build_orbit(curve, point, order)
    assert len(table.xs) == order - 1
    lanes = orbit_module.LANES
    ks = {1, 2, lanes - 1, lanes, lanes + 1, 2 * lanes + 1,
          order // 2, order // 2 + 1, order - 1}
    rng = SplitMix64(2)
    ks |= {1 + rng.below(order - 1) for _ in range(40)}
    for k in ks:
        assert table.xs[k - 1] == scalar_mul(curve, k, point)[0]


def test_xs_array_is_a_cached_read_only_view(known_curve, known_table):
    arr = known_table.xs_array
    assert arr.dtype == np.int64 and arr.tolist() == list(known_table.xs)
    assert not arr.flags.writeable and known_table.xs_array is arr
    fresh = build_orbit(known_curve, (0, 1), 9)
    assert fresh == known_table and hash(fresh) == hash(known_table)
    assert repr(fresh) == repr(known_table) and "xs_array" not in repr(known_table)
