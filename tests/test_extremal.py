import math

import numpy as np
import pytest

import ecsumprod.extremal as extremal
from ecsumprod import (
    InvariantViolation,
    build_orbit,
    extremal_report,
    mobius_identity_residual,
    mobius_identity_residuals,
    units_with_x_below,
)
from ecsumprod.residue import euler_phi, units_of
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance
from oracles import naive_mobius_residual


def test_units_below_window(known_table):
    # xs = (0, 4, 2, 3, 3, 2, 4, 0); units of Z_9 are 1,2,4,5,7,8
    assert units_with_x_below(known_table, 3).tolist() == [1, 8]
    assert units_with_x_below(known_table, 1).tolist() == [1, 8]
    assert units_with_x_below(known_table, 0).tolist() == []
    assert units_with_x_below(known_table, 5).tolist() == [1, 2, 4, 5, 7, 8]
    with pytest.raises(ValueError):
        units_with_x_below(known_table, -1)


def test_report_known_window(known_table):
    rep = extremal_report(known_table, window=3)
    assert (rep.size_a, rep.size_s, rep.size_t) == (2, 1, 1)
    assert rep.ratio == pytest.approx(1 / math.sqrt(10))
    assert rep.predicted_size_a == pytest.approx(3.6)


def test_report_default_window(known_table):
    # phi(9) = 6, so the default window is 3
    assert extremal_report(known_table) == extremal_report(known_table, window=3)
    assert extremal_report(known_table).h_window == 3


def test_report_empty_a(known_table):
    rep = extremal_report(known_table, window=0)
    assert (rep.size_a, rep.size_s, rep.size_t) == (0, 0, 0)
    assert rep.ratio is None  # and no raise: #S = 0 <= max(0, 2H-1) = 0


def test_report_wraparound_window():
    curve, summary, point, order = discover_instance(61, seed=4)
    table = build_orbit(curve, point, order)
    rep = extremal_report(table, window=61)  # 2*61 - 2 >= 61, interval wraps
    assert rep.size_s <= 61 < 2 * 61 - 1


def test_report_raises_when_the_sum_set_outgrows_2h(monkeypatch, known_table):
    # a window filter that lets every unit in: x-values 0, 2, 3, 4 of the
    # known table sum to more than 2H - 1 = 1 residues at H = 1
    monkeypatch.setattr(extremal, "units_with_x_below", lambda table, window: units_of(table.order))
    with pytest.raises(InvariantViolation, match="exceeds 2H - 1 at H = 1"):
        extremal_report(known_table, window=1)
    assert extremal_report(known_table, window=3).size_s == 5  # 2H - 1 = 5 = p


def test_size_a_monotone_in_window(known_table):
    sizes = [extremal_report(known_table, window=w).size_a for w in range(6)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 6  # window past max x captures every unit


def test_bounds_hold_across_instances():
    for i, p in enumerate((101, 151, 211, 307)):
        curve, summary, point, order = discover_instance(p, seed=60 + i)
        table = build_orbit(curve, point, order)
        for window in (0, 3, order // 4, None):
            rep = extremal_report(table, window=window)  # raises past #S <= 2H - 1
            assert rep.size_t <= euler_phi(order)
            if rep.size_a:
                assert rep.ratio == pytest.approx(
                    max(rep.size_s, rep.size_t) / math.sqrt(p * rep.size_a))


def test_mobius_residual_known(known_table):
    assert mobius_identity_residual(known_table, 0) == 0.0
    for lam in range(5):
        assert mobius_identity_residual(known_table, lam) < 1e-9 * known_table.order


def test_mobius_lambda_zero_is_phi_identity():
    # lambda = 0 reduces the sieve to phi(T) = sum_{d|T} mu(d) (T/d - 1)
    for i, p in enumerate((61, 101, 151)):
        curve, summary, point, order = discover_instance(p, seed=20 + i)
        table = build_orbit(curve, point, order)
        assert mobius_identity_residual(table, 0) < 1e-12 * order


def test_mobius_residual_random():
    rng = SplitMix64(5150)
    for i in range(10):
        p = (101, 211, 401)[i % 3]
        curve, summary, point, order = discover_instance(p, seed=500 + i)
        table = build_orbit(curve, point, order)
        for _ in range(5):
            lam = rng.below(p)
            assert mobius_identity_residual(table, lam) < 1e-9 * order


def test_mobius_rejects_tiny_order():
    from ecsumprod.orbit import OrbitTable

    xs = np.empty(0, dtype=np.int64)
    xs.flags.writeable = False
    stub = OrbitTable(p=5, a4=1, a6=1, px=0, py=1, order=1, xs=xs)
    with pytest.raises(ValueError):
        mobius_identity_residual(stub, 1)


@pytest.mark.parametrize("p, seed", [(5, 1), (61, 1), (61, 3), (101, 1), (211, 2), (1009, 2)])
def test_mobius_residuals_match_oracle(p, seed):
    # T = 68, 24, 111, 216, 1000 carry squared and repeated prime factors
    curve, summary, point, order = discover_instance(p, seed=seed)
    table = build_orbit(curve, point, order)
    lams = [0, 1, 2, p - 1, p, p + 5, -3, 10 ** 30 + 7]
    got = mobius_identity_residuals(table, lams)
    assert got.shape == (len(lams),)
    for lam, value in zip(lams, got):
        assert abs(value - naive_mobius_residual(table, lam % p)) < 1e-12 * order
        assert value == mobius_identity_residual(table, lam)  # the one-lambda call
    assert got[0] == 0.0 and got[4] == 0.0  # lambda = 0 is exact
    assert mobius_identity_residuals(table, []).shape == (0,)


def test_mobius_residuals_on_the_known_table(known_table):
    # T = 9: units 1, 2, 4, 5, 7, 8; the multiples of 3 are 3 and 6
    got = mobius_identity_residuals(known_table, range(5))
    assert got[0] == 0.0
    for lam in range(5):
        assert abs(got[lam] - naive_mobius_residual(known_table, lam)) < 1e-12 * 9
