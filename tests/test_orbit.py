import copy
import dataclasses
import hashlib
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

import ecsumprod.curve as curve_module
import ecsumprod.orbit as orbit_module
from ecsumprod import (
    CurveParams,
    IdentityHasNoX,
    NotOnCurve,
    OrderMismatch,
    build_orbit,
    enumerate_points,
    point_order,
    scalar_mul,
    x_of,
)
from ecsumprod.orbit import OrbitTable
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance
from oracles import oracle_add


def test_known_orbit(known_table):
    assert known_table.xs.tolist() == [0, 4, 2, 3, 3, 2, 4, 0]
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
    assert table.xs.tolist() == [0]


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


def test_random_orbits_symmetric_and_consistent():
    for i, p in enumerate((101, 211, 307)):
        curve, summary, point, order = discover_instance(p, seed=500 + i)
        table = build_orbit(curve, point, order)
        assert len(table.xs) == order - 1
        assert table.xs.tolist() == table.xs[::-1].tolist()
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
            assert build_orbit(curve, q, t).xs.tolist() == list(xs)
            for bad in {t - 1, t + 1, 2 * t, t // 2}:
                with pytest.raises(OrderMismatch):
                    build_orbit(curve, q, bad)
    assert {2, 3} <= orders
    assert any(t % 2 and t > 3 for t in orders) and any(t % 2 == 0 and t > 4 for t in orders)


def _grid_layout(order):
    """The walk's (walked, L, rows, rows per call) under the current constants."""
    walked = order - order // 2
    lanes = min(orbit_module.LANES, math.isqrt(walked - 1) + 1)
    rows = -(-walked // lanes)
    return walked, lanes, rows, max(1, min(rows - 1, orbit_module.GRID_LANES // lanes))


# GRID_LANES = 1 makes calls of one row, and 12 calls of two to four rows
# of L = 3 .. 6, so the last call is often partial; the default fills each
# grid here in one call.
@pytest.mark.parametrize("grid", [1, 12, orbit_module.GRID_LANES])
def test_walk_layout_edge_cases(monkeypatch, grid):
    monkeypatch.setattr(orbit_module, "GRID_LANES", grid)
    seen = set()
    for p, a4, a6 in ((5, 1, 1), (7, 0, 3), (11, 1, 0), (17, 16, 0), (29, 1, 1),
                      (31, 2, 0), (37, 2, 0), (41, 1, 3), (53, 3, 5)):
        curve = CurveParams(p, a4, a6)
        _, pts = enumerate_points(curve)
        for q in pts[1:]:
            xs, t = _oracle_walk(curve, q)
            assert build_orbit(curve, q, t).xs.tolist() == list(xs)
            walked, lanes, rows, per_call = _grid_layout(t)
            if t <= 4:
                seen.add(t)
            if math.isqrt(walked) ** 2 == walked and walked > 1:
                seen.add("square")
            if 2 * lanes <= walked:
                seen.add("doubling lane")  # 2L*P = LP + LP, by the tangent
            if walked % lanes:
                seen.add("partial row")
            if rows > 2 and (rows - 1) % per_call:
                seen.add("partial call")
    wanted = {2, 3, 4, "square", "doubling lane", "partial row"}
    assert wanted | ({"partial call"} if grid == 12 else set()) <= seen


def test_wrong_order_identity_in_a_grid_lane(monkeypatch):
    # claiming 2t for a point of order t walks to k = t, which lands inside
    # the grid (not on a baby or giant step) when L < t and L does not divide t
    raised = []
    real = orbit_module._add_point

    def spy(*args):
        try:
            return real(*args)
        except OrderMismatch:
            raised.append(args)
            raise

    monkeypatch.setattr(orbit_module, "_add_point", spy)
    hits = 0
    for p, a4, a6 in ((29, 1, 1), (37, 2, 0), (41, 1, 3), (53, 3, 5)):
        curve = CurveParams(p, a4, a6)
        _, pts = enumerate_points(curve)
        for q in pts[1:]:
            _, t = _oracle_walk(curve, q)
            _, lanes, _, _ = _grid_layout(2 * t)
            if (2 * t - p - 1) ** 2 > 4 * p or t <= lanes or t % lanes == 0:
                continue
            before = len(raised)
            with pytest.raises(OrderMismatch, match="identity before the half-point"):
                build_orbit(curve, q, 2 * t)
            assert len(raised) == before + 1
            hits += 1
    assert hits >= 5


@pytest.mark.parametrize("corrupt", ["first", "middle", "last"])
def test_walk_off_the_curve_in_a_later_grid_call(monkeypatch, corrupt):
    # each grid call's points are checked as they are made, so a bad lane
    # in any call raises, not only one that a check over the whole walk sees
    curve, _, point, order = discover_instance(10007, 4)
    _, lanes, rows, _ = _grid_layout(order)
    monkeypatch.setattr(orbit_module, "GRID_LANES", 2 * lanes)
    n_calls = -(-(rows - 1) // 2)
    target = {"first": 0, "middle": n_calls // 2, "last": n_calls - 1}[corrupt]
    real = orbit_module._add_point
    calls = []

    def spy(*args):
        x3, y3 = real(*args)
        if len(calls) == target:
            y3 = y3.copy()
            y3[-1] = (y3[-1] + 1) % curve.p  # 2y + 1 != 0 here: off the curve
        calls.append(len(x3))
        return x3, y3

    monkeypatch.setattr(orbit_module, "_add_point", spy)
    assert n_calls >= 3
    with pytest.raises(NotOnCurve, match="left the curve"):
        build_orbit(curve, point, order)
    assert len(calls) == target + 1


def test_walk_memory_at_p_1000003():
    # the table is the walk's only walk-length array: the y-values and the
    # on-curve check's temporaries are the size of one grid call
    curve, _, point, order = discover_instance(1_000_003, 1)
    tracemalloc.start()
    try:
        table = build_orbit(curve, point, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.xs.nbytes + 4 * 2**20


def test_build_orbit_calls_no_scalar_mul(monkeypatch):
    # verify's orbit_spot_values checks the table against scalar_mul, which
    # means something only while the walk does not use it
    curve, _, point, order = discover_instance(10007, 4)
    expected = build_orbit(curve, point, order)

    def refuse(*args, **kwargs):
        raise AssertionError("scalar_mul was called")

    monkeypatch.setattr(curve_module, "scalar_mul", refuse)
    assert not hasattr(orbit_module, "scalar_mul")  # orbit.py does not import it
    again = build_orbit(curve, point, order)
    assert again == expected and np.array_equal(again.xs, expected.xs)
    assert build_orbit(CurveParams(5, 1, 0), (0, 0), 2).xs.tolist() == [0]


@pytest.mark.parametrize("p", [5, 10007, 2**31 - 1])
def test_inverses_match_pow(p):
    rng = np.random.default_rng(p)
    for n in list(range(1, 40)) + [64, 65, 1000, 4097]:
        d = rng.integers(1, p, size=n, dtype=np.int64)
        inv = orbit_module._inverses(d, p)
        assert inv.dtype == np.int64
        assert inv.tolist() == [pow(v, -1, p) for v in d.tolist()]


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


def test_xs_is_a_read_only_array(known_curve, known_table):
    arr = known_table.xs
    assert arr.dtype == np.int64 and not arr.flags.writeable
    fresh = build_orbit(known_curve, (0, 1), 9)
    assert fresh == known_table and hash(fresh) == hash(known_table)
    assert np.array_equal(fresh.xs, known_table.xs)
    assert repr(fresh) == repr(known_table)


def _traced_peak(fn):
    """fn() and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hash_and_repr_build_no_t_length_object():
    curve, _, point, order = discover_instance(10007, 4)
    table = build_orbit(curve, point, order)
    text, peak = _traced_peak(lambda: (hash(table), repr(table))[1])
    assert len(text) < 1000 and peak < 64 * 1024


# sha256 of b"ECSP1", the header words (p, a4, a6, x(P), y(P), T) as
# little-endian u64 and the x-values as little-endian u64, for
# discover_instance(p, seed): the bytes of the binary orbit cache the
# package once wrote, recorded when the table was still a tuple.
_CACHE_SHA256 = {
    (5, 1): "253e78f2d512225ff55079b05866f0e0c3c0976a9f2e7c79c32861bad5d8e663",
    (101, 2): "cadf1e6f0e6e84e0544aaee41753a80e51850e3fb2c072a5fba7db57b840e5ca",
    (1009, 3): "366516a15d5880733a1ac5f6d9efeb726f92ab99191a9d418374a2041cce50e2",
    (10007, 4): "c4eab98a2af2bab4da231bc5b715104ab353e3f2e99f53264733086c21266674",
    (65537, 5): "71bf8ca7e807f44a945f2179d170d7481e71b99be2a27bfa87e58e901ccfc2cf",
}


@pytest.mark.parametrize("p, seed", sorted(_CACHE_SHA256))
def test_array_native_table(p, seed):
    curve, _, point, order = discover_instance(p, seed)
    table = build_orbit(curve, point, order)
    header = struct.pack("<6Q", p, table.a4, table.a6, table.px, table.py, order)
    blob = b"ECSP1" + header + table.xs.astype("<u8").tobytes()
    assert hashlib.sha256(blob).hexdigest() == _CACHE_SHA256[p, seed]

    arr = table.xs
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert type(x_of(table, 1)) is int and x_of(table, -1) == point[0]

    fields = dict(p=table.p, a4=table.a4, a6=table.a6, px=table.px, py=table.py, order=order)
    with pytest.raises(ValueError, match="read-only int64 array"):
        OrbitTable(xs=tuple(arr.tolist()), **fields)
    assert OrbitTable(xs=arr, **fields).xs is arr  # read-only int64: kept, not copied
    assert dataclasses.replace(table, xs=arr) == table


def test_table_array_is_private(known_table):
    # the constructor checks and never copies: anything but a read-only int64
    # array of length T - 1 is refused, so the table cannot change under its reader
    writable = np.array(known_table.xs)
    int32 = np.array(known_table.xs, dtype=np.int32)
    int32.flags.writeable = False
    short = known_table.xs[:-1]
    for bad in (writable, int32, tuple(known_table.xs.tolist()), short):
        with pytest.raises(ValueError, match="read-only int64 array of length order - 1"):
            dataclasses.replace(known_table, xs=bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        known_table.xs = ()


def _read_only(values):
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def test_table_rejects_x_values_outside_the_field(known_table):
    # a value outside [0, p) would wrap in the set kernels' hit masks
    for values in ([-1, 4, 2, 3, 3, 2, 4, -1], [5, 4, 2, 3, 3, 2, 4, 5],
                   [0, 4, 2, 3, 3, 2, 4, 2**62]):
        with pytest.raises(ValueError, match=r"x-value outside \[0, 5\)"):
            dataclasses.replace(known_table, xs=_read_only(values))
    ok = dataclasses.replace(known_table, xs=_read_only([0, 4, 2, 3, 3, 2, 4, 0]))
    assert ok == known_table
    empty = OrbitTable(p=5, a4=1, a6=1, px=0, py=1, order=1, xs=_read_only([]))
    assert empty.xs.size == 0


def _round_trips(table):
    yield "pickle", pickle.loads(pickle.dumps(table))
    yield "pickle protocol 2", pickle.loads(pickle.dumps(table, protocol=2))
    yield "deepcopy", copy.deepcopy(table)
    yield "copy", copy.copy(table)


def test_copied_table_is_an_equal_table():
    # copies are ordinary dataclass copies: copy.copy shares the array,
    # deepcopy and pickle give a copy of it with the same x-values
    curve, _, point, order = discover_instance(1009, 2)
    table = build_orbit(curve, point, order)
    for how, twin in _round_trips(table):
        assert twin == table and hash(twin) == hash(table), how
        assert twin.xs.dtype == np.int64 and np.array_equal(twin.xs, table.xs), how
    assert copy.copy(table).xs is table.xs
    assert not table.xs.flags.writeable
