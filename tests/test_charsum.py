import ast
import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ecsumprod.charsum as charsum_module
from ecsumprod import (
    CapExceeded,
    CurveParams,
    DomainError,
    TrivialCharacter,
    bilinear_ratio_scan,
    bilinear_sum,
    bilinear_sum_bound,
    build_orbit,
    count_solutions,
    curve_summary,
    histogram_sums,
    is_prime,
    product_index_set,
    solutions_spectrum,
    subgroup_scan,
    subgroup_sum,
    subgroup_sums,
    sum_set,
)
from ecsumprod.residue import euler_phi, units_of
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance, max_order_point, sample_unit_subset
from oracles import naive_bilinear, naive_count, naive_subgroup_sum, spectrum_tolerance

UNITS9 = units_of(9)

# The scan's two routes, forced by patching its cost rule.
_ROUTES = {"matmul": lambda size_m, p: True, "fft": lambda size_m, p: False}


def _on_each_route(scan):
    """{route: scan()} with the cost rule patched to force each route."""
    reports = {}
    for route, rule in _ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charsum_module, "_direct_route", rule)
            reports[route] = scan()
    return reports


def _naive_histogram_sum(hist, lam):
    p = len(hist)
    return sum(complex(w) * cmath.exp(2j * cmath.pi * (lam * z % p) / p)
               for z, w in enumerate(hist.tolist()) if w)


_HIST_RNG = np.random.default_rng(9)


# The Mobius sieve passes a float difference with negative entries, the
# subgroup sums a nonnegative int64 count.
@pytest.mark.parametrize("hist", [
    _HIST_RNG.integers(-3, 4, size=101),
    _HIST_RNG.integers(0, 3, size=1009) * (_HIST_RNG.random(1009) < 0.3),
    np.where(_HIST_RNG.random(211) < 0.5, 0.0, _HIST_RNG.normal(size=211)),
    np.array([0.0, -1.0, 0.0, 0.0, 2.5]),
], ids=["int_101", "sparse_int_1009", "float_211", "float_5"])
def test_histogram_sums_match_oracle(hist):
    p = len(hist)
    lams = [0, 1, 2, p - 1, p, p + 3, 7 * p + 1, -1, -p - 2,
            10 ** 30 + 1, -(10 ** 30) - 1, 2 ** 63 + 5]
    got = histogram_sums(hist, lams)
    assert got.dtype == complex and got.shape == (len(lams),)
    tol = 1e-12 * max(1.0, float(np.abs(hist).sum()))
    for lam, value in zip(lams, got):
        assert abs(value - _naive_histogram_sum(hist, lam)) < tol
    assert np.array_equal(histogram_sums(hist, iter(lams)), got)
    assert histogram_sums(hist, []).shape == (0,)


def test_histogram_sums_of_a_zero_histogram():
    for hist in (np.zeros(7, dtype=np.int64), np.zeros(101)):
        assert np.array_equal(histogram_sums(hist, [0, 1, 5, -3]), np.zeros(4, dtype=complex))


def test_histogram_sums_copies_no_grid_without_empty_rows():
    # verify's sum of psi over F_p: every row of the grid is live, so the
    # grid (8p bytes) is the only p-sized array it may allocate
    p = 1000003
    hist = np.ones(p)
    tracemalloc.start()
    try:
        total = histogram_sums(hist, [1])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert abs(total) < 1e-6


def test_bilinear_matches_oracle(known_table):
    for lam in range(5):
        got = bilinear_sum(known_table, UNITS9, UNITS9, lam)
        want = naive_bilinear(known_table, UNITS9, UNITS9, lam)
        assert got == pytest.approx(want, abs=1e-9)


def test_bilinear_trivial_character(known_table):
    # lambda = 0 makes every phase 1, so the sum is exactly #K * #M
    assert bilinear_sum(known_table, UNITS9, UNITS9, 0) == pytest.approx(36.0, abs=1e-9)
    assert bilinear_sum(known_table, [1, 2], [4, 5, 7], 0) == pytest.approx(6.0, abs=1e-9)


def test_bilinear_empty(known_table):
    assert bilinear_sum(known_table, [], UNITS9, 1) == 0.0


def test_bilinear_random_instances():
    rng = SplitMix64(77)
    for i in range(6):
        p = (61, 101)[i % 2]
        curve, summary, point, order = discover_instance(p, seed=700 + i)
        table = build_orbit(curve, point, order)
        phi = euler_phi(order)
        k = sample_unit_subset(order, min(1 + rng.below(7), phi), rng.next_u64())
        m = sample_unit_subset(order, min(1 + rng.below(7), phi), rng.next_u64())
        lam = 1 + rng.below(p - 1)
        assert bilinear_sum(table, k, m, lam) == pytest.approx(
            naive_bilinear(table, k, m, lam), abs=1e-8)


def test_bilinear_sum_builds_no_p_length_array():
    # the roots come from the #K * #M gathered x-values only; a table of
    # every root at p = 10^6 would take 16 MB
    table = _table(1000003, 1)
    k = sample_unit_subset(table.order, 16, 1)
    m = sample_unit_subset(table.order, 16, 2)
    tracemalloc.start()
    try:
        bilinear_sum(table, k, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bound_value():
    want = 6 ** 0.5 * 6 ** (2 / 3) * 9 ** (2 / 3) * 5 ** (1 / 12) * math.log(5) ** (1 / 3)
    assert bilinear_sum_bound(1, 6, 6, 9, 5) == pytest.approx(want)
    assert bilinear_sum_bound(1, 6, 6, 9, 5) == pytest.approx(46.89685380417448)


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        bilinear_sum_bound(0, 6, 6, 9, 5)
    with pytest.raises(DomainError):
        bilinear_sum_bound(1, 0, 6, 9, 5)
    with pytest.raises(DomainError):
        bilinear_sum_bound(1, 6, 6, 0, 5)
    with pytest.raises(DomainError):
        bilinear_sum_bound(1, 6, 6, 9, 1)


def test_bound_k_exponent():
    # doubling #K scales the bound by exactly 2^(1 - 1/(2 nu))
    for nu in (1, 2, 3, 10):
        r = bilinear_sum_bound(nu, 12, 7, 30, 101) / bilinear_sum_bound(nu, 6, 7, 30, 101)
        assert r == pytest.approx(2 ** (1 - 1 / (2 * nu)))
    # and the exponent climbs toward 1 as nu grows
    r_small = bilinear_sum_bound(1, 12, 7, 30, 101) / bilinear_sum_bound(1, 6, 7, 30, 101)
    r_large = bilinear_sum_bound(50, 12, 7, 30, 101) / bilinear_sum_bound(50, 6, 7, 30, 101)
    assert r_small < r_large < 2


def test_scan_known_instance(known_table):
    want = max(naive_bilinear(known_table, UNITS9, UNITS9, lam) for lam in range(1, 5))
    for rep in _on_each_route(lambda: bilinear_ratio_scan(known_table, UNITS9, UNITS9, nu=1)).values():
        assert rep.lam == 1
        assert rep.value == pytest.approx(19.41640786499874)
        assert rep.rhs == pytest.approx(46.89685380417448)
        assert rep.ratio == pytest.approx(rep.value / rep.rhs)
        # the scan max agrees with a direct sweep through the oracle
        assert rep.value == pytest.approx(want, abs=1e-9)


def test_scan_deterministic(known_table):
    def twice():
        return [bilinear_ratio_scan(known_table, UNITS9, UNITS9, nu=2) for _ in range(2)]
    for a, b in _on_each_route(twice).values():
        assert a == b


def test_scan_guards(known_table, monkeypatch):
    with pytest.raises(DomainError):
        bilinear_ratio_scan(known_table, [], UNITS9, nu=1)
    monkeypatch.setattr(charsum_module, "SCAN_CAP", 3)
    with pytest.raises(CapExceeded):
        bilinear_ratio_scan(known_table, UNITS9, UNITS9, nu=1)


def test_subgroup_sum_known(known_table):
    got = subgroup_sum(known_table, 1)
    assert got == pytest.approx(-0.6180339887498953 - 1.9021130325903068j)
    assert got == pytest.approx(naive_subgroup_sum(known_table, 1), abs=1e-9)
    # the imaginary part is genuinely nonzero: equal paired terms, not conjugate
    assert abs(got.imag) > 1.9


def test_subgroup_sum_conjugation(known_table):
    for lam in (1, 2):
        assert subgroup_sum(known_table, 5 - lam) == pytest.approx(
            subgroup_sum(known_table, lam).conjugate())


def test_subgroup_sum_trivial_rejected(known_table):
    with pytest.raises(TrivialCharacter):
        subgroup_sum(known_table, 0)
    with pytest.raises(TrivialCharacter):
        subgroup_sum(known_table, 5)


def test_subgroup_sum_size_bound():
    for i in range(5):
        curve, summary, point, order = discover_instance(211, seed=40 + i)
        table = build_orbit(curve, point, order)
        rng = SplitMix64(i)
        for _ in range(5):
            lam = 1 + rng.below(210)
            assert abs(subgroup_sum(table, lam)) <= order - 1 + 1e-9


def test_subgroup_scan_known(known_table, monkeypatch):
    rep = subgroup_scan(known_table)
    assert rep.max_abs == pytest.approx(2.0000000000000004)
    assert rep.max_over_sqrt_p == pytest.approx(rep.max_abs / math.sqrt(5))
    want = max(abs(naive_subgroup_sum(known_table, lam)) for lam in range(1, 5))
    assert rep.max_abs == pytest.approx(want, abs=1e-9)
    assert abs(subgroup_sum(known_table, rep.lam)) == pytest.approx(rep.max_abs)
    monkeypatch.setattr(charsum_module, "SCAN_CAP", 3)
    with pytest.raises(CapExceeded):
        subgroup_scan(known_table)


def test_solutions_worked_instance(known_table):
    h = product_index_set([1, 2], [1, 2], 9)
    s = sum_set(known_table, [1, 2], [1, 2])
    val = solutions_spectrum(known_table, [1, 2], h, s)
    assert val.real == pytest.approx(10.0, abs=1e-9)
    assert abs(val.imag) < 1e-9
    assert solutions_spectrum(known_table, {2, 1}, h.tolist(), s.tolist()).real == pytest.approx(10.0)


def test_solutions_empty(known_table):
    assert solutions_spectrum(known_table, [], [1], [0]) == 0j
    assert solutions_spectrum(known_table, [1], [], [0]).real == 0.0


def test_solutions_match_count():
    rng = SplitMix64(31337)
    wide = SplitMix64(4242)
    for i in range(12):
        p = (61, 101, 151)[i % 3]
        curve, summary, point, order = discover_instance(p, seed=900 + i)
        table = build_orbit(curve, point, order)
        phi = euler_phi(order)
        a = sample_unit_subset(order, min(1 + rng.below(10), phi), rng.next_u64())
        b = sample_unit_subset(order, min(1 + rng.below(10), phi), rng.next_u64())
        s = sum_set(table, a, b)
        h = product_index_set(a, b, order)
        # Inputs no (A, B) need produce: any unit subset H, and any S in
        # F_p, here with both ends 0 and p - 1.
        wide_h = sample_unit_subset(order, min(1 + wide.below(20), phi), wide.next_u64())
        wide_s = sorted({0, p - 1} | {wide.below(p) for _ in range(1 + wide.below(20))})
        for hs, ss in ((h, s), (wide_h, wide_s)):
            exact = count_solutions(table, b, hs, ss)
            assert exact == naive_count(table, b, hs, ss)
            val = solutions_spectrum(table, b, hs, ss)
            tol = spectrum_tolerance(p, len(b), len(hs), len(ss))
            assert abs(val.real - exact) < tol
            assert abs(val.imag) < tol
            assert round(val.real) == exact
        for hs, ss in (([], wide_s), (wide_h, [])):
            assert count_solutions(table, b, hs, ss) == 0
            assert solutions_spectrum(table, b, hs, ss) == 0j


def _table(p, seed):
    curve, summary, point, order = discover_instance(p, seed=seed)
    return build_orbit(curve, point, order)


_KNOWN = build_orbit(CurveParams(5, 1, 1), (0, 1), 9)
_SCAN_TABLES = (_KNOWN, _table(61, 5), _table(101, 6), _table(211, 7))


@st.composite
def scan_inputs(draw):
    """A table and nonempty K, M; M optionally closed under m -> T - m,
    which puts weight 2 on its x-histogram."""
    table = draw(st.sampled_from(_SCAN_TABLES))
    units = units_of(table.order)
    k = draw(st.sets(st.sampled_from(units), min_size=1, max_size=6))
    m = draw(st.sets(st.sampled_from(units), min_size=1, max_size=6))
    if draw(st.booleans()):
        m |= {table.order - j for j in m}
    return table, k, m


_UNITS211 = units_of(_SCAN_TABLES[3].order)


@given(scan_inputs())
@example((_KNOWN, set(UNITS9), set(UNITS9)))
@example((_SCAN_TABLES[3], {_UNITS211[4]}, set(_UNITS211[:9])))
@example((_SCAN_TABLES[3], set(_UNITS211[:7]), set(_UNITS211[2:5])))
def test_bilinear_scan_matches_full_lambda_oracle(inputs):
    table, k, m = inputs
    p = table.p
    naive = [naive_bilinear(table, k, m, lam) for lam in range(1, p)]
    # On the FFT route, BLOCK = 1 gives blocks of one complex row (2
    # K-rows), and 36p * c bytes blocks of c complex rows; at #K = 7 those
    # leave last blocks of 1, 3 and 1 K-rows, the last complex row half
    # empty. On the matmul route BLOCK = 1 gives blocks of one K-row.
    for block in (charsum_module.BLOCK, 1, 2 * 36 * p, 3 * 36 * p):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charsum_module, "BLOCK", block)
            reports = _on_each_route(lambda: bilinear_ratio_scan(table, k, m, nu=1))
        for rep in reports.values():
            assert 1 <= rep.lam <= (p - 1) // 2
            assert rep.value == pytest.approx(max(naive), abs=1e-9)
            assert naive[rep.lam - 1] == pytest.approx(rep.value, abs=1e-9)


def test_subgroup_scan_matches_full_lambda_oracle():
    for table in _SCAN_TABLES:
        p = table.p
        naive = [abs(naive_subgroup_sum(table, lam)) for lam in range(1, p)]
        rep = subgroup_scan(table)
        assert 1 <= rep.lam <= (p - 1) // 2
        assert rep.max_abs == pytest.approx(max(naive), abs=1e-9)
        assert naive[rep.lam - 1] == pytest.approx(rep.max_abs, abs=1e-9)


def _j0_tables(primes):
    """(table, zeta) on y^2 = x^3 + a6, a6 = 1..5, with the base point that
    `ecsumprod charsum --seed 0` picks, where zeta^3 = 1 mod p and the orbit's
    x-values are stable under x -> zeta x. There (x, y) -> (zeta x, y) maps
    the orbit onto itself, so |sum| at lambda, zeta lambda and zeta^2 lambda
    are exactly equal."""
    for p in primes:
        zeta = next(z for z in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if z != 1)
        for a6 in range(1, 6):
            curve = CurveParams(p, 0, a6)
            point, order = max_order_point(curve, curve_summary(curve).n_points, SplitMix64(0))
            table = build_orbit(curve, point, order)
            if np.array_equal(np.sort(table.xs), np.sort(table.xs * zeta % p)):
                yield table, zeta


def _exact_tie_lambda(values, p, zeta):
    """Smallest lambda of the best exact-tie class {+-zeta^i lambda}, and
    the gap to the next class. values[lam - 1] for lam = 1 .. p // 2; a
    class's value is the mean over its members, which the symmetry makes
    equal, so no roundoff decides which member is reported."""
    classes, seen = [], set()
    for lam in range(1, p // 2 + 1):
        if lam not in seen:
            members = {min(m, p - m) for m in (lam, lam * zeta % p, lam * zeta * zeta % p)}
            seen |= members
            tied = [values[m - 1] for m in members]
            assert max(tied) - min(tied) < 1e-9 * max(tied)
            classes.append((float(np.mean(tied)), min(members)))
    classes.sort(reverse=True)
    gap = classes[0][0] - classes[1][0] if len(classes) > 1 else math.inf
    return classes[0][1], gap


def _abs_character_sums(xs, p):
    """|sum over x in xs of psi_lambda(x)| for lambda = 1 .. p // 2, by numpy exp."""
    lams = np.arange(1, p // 2 + 1)
    return np.abs(np.exp(2j * np.pi * (np.outer(lams, xs) % p) / p).sum(axis=1))


def test_subgroup_scan_reports_the_smallest_tied_lambda():
    # `ecsumprod charsum --p 103 --a4 0 --a6 4 --seed 0`: lambda = 2, 9, 11
    # (lambda * {1, 46, 56} mod 103, folded) tie exactly; argmax picked 11
    (table, zeta), = [(t, z) for t, z in _j0_tables([103]) if t.a6 == 4]
    assert (table.order, table.px, table.py) == (111, 39, 60)
    rep = subgroup_scan(table)
    assert rep.lam == 2
    assert _exact_tie_lambda(_abs_character_sums(table.xs, 103), 103, zeta)[0] == 2
    assert rep.max_abs == charsum_module._half_spectrum_abs(table.xs[None, :], 103).max()


def test_scans_report_the_smallest_tied_lambda_on_j0_curves():
    checked = 0
    for table, zeta in _j0_tables([p for p in range(13, 400) if p % 3 == 1 and is_prime(p)]):
        p, units = table.p, units_of(table.order)
        sub_want, sub_gap = _exact_tie_lambda(_abs_character_sums(table.xs, p), p, zeta)
        # with K = M = the units, the bilinear sum is phi(T) |sum over units|
        bil_want, bil_gap = _exact_tie_lambda(
            len(units) * _abs_character_sums(table.xs[units - 1], p), p, zeta)
        if min(sub_gap / table.order, bil_gap / len(units) ** 2) < 1e-9:
            continue  # two classes nearly tie by coincidence: no exact answer
        assert subgroup_scan(table).lam == sub_want
        reports = _on_each_route(lambda: bilinear_ratio_scan(table, units, units, nu=1))
        assert [rep.lam for rep in reports.values()] == [bil_want, bil_want]
        checked += 1
    assert checked >= 60


# discover_instance picks of odd order (101: T = 111, 1009: T = 1011) and
# of even order (61: T = 68, 1009: T = 1000), and the T = 2 orbit whose only
# term is the middle one.
_PARITY_TABLES = {
    "odd_known": _KNOWN,
    "odd_101": _table(101, 1),
    "odd_1009": _table(1009, 1),
    "even_61": _table(61, 1),
    "even_1009": _table(1009, 2),
    "even_2": build_orbit(CurveParams(5, 1, 0), (0, 0), 2),
}


@pytest.mark.parametrize("name", sorted(_PARITY_TABLES))
def test_subgroup_sums_match_oracle(name):
    table = _PARITY_TABLES[name]
    p = table.p
    assert table.order % 2 == (0 if name.startswith("even") else 1)
    lams = [lam for lam in (1, 2, p - 1, p + 3, 7 * p + 1, -1, -p - 2) if lam % p]
    got = subgroup_sums(table, lams)
    assert got.dtype == complex and got.shape == (len(lams),)
    for lam, value in zip(lams, got):
        assert abs(value - naive_subgroup_sum(table, lam)) < 1e-12 * table.order
        assert value == subgroup_sum(table, lam)  # the one-lambda call is the same pass
    assert abs(got).max() <= table.order - 1 + 1e-9
    # lambda is reduced mod p exactly, even past int64
    huge = [lam for lam in (10 ** 30 + 1, -(10 ** 30) - 1, 10 ** 30 + 2) if lam % p]
    assert list(subgroup_sums(table, huge)) == list(subgroup_sums(table, [lam % p for lam in huge]))
    assert subgroup_sums(table, []).shape == (0,)


def test_subgroup_sums_reject_the_trivial_character(known_table):
    for lams in ([0], [1, 5], [2, -10]):
        with pytest.raises(TrivialCharacter):
            subgroup_sums(known_table, lams)


def test_subgroup_sums_known_value_stays_nonreal(known_table):
    got = subgroup_sums(known_table, [1, 4])
    assert got[0] == pytest.approx(-0.6180339887498953 - 1.9021130325903068j)
    assert got[1] == pytest.approx(got[0].conjugate())
    assert abs(got[0].imag) > 1.9


def test_solutions_spectrum_makes_one_fft_row(monkeypatch):
    # h1 + i*h3 share one complex row and h2 is read by histogram_sums of
    # the unpacked spectra, whatever #B
    shapes = []
    real_fft = np.fft.fft

    def counting_fft(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    table = _PARITY_TABLES["even_1009"]
    p = table.p
    for size in (8, 64):
        a = sample_unit_subset(table.order, size, 1)
        b = sample_unit_subset(table.order, size, 2)
        h = product_index_set(a, b, table.order)
        s = sum_set(table, a, b)
        exact = count_solutions(table, b, h, s)
        shapes.clear()
        val = solutions_spectrum(table, b, h, s)
        assert shapes == [(p,)], size
        assert round(val.real) == exact
        assert abs(val.imag) < spectrum_tolerance(p, len(b), len(h), len(s))


def _routes_agree(table, b, h, s):
    """The character route gives count_solutions' J within FFT roundoff."""
    exact = count_solutions(table, b, h, s)
    val = solutions_spectrum(table, b, h, s)
    tol = charsum_module._fft_roundoff(table.p, len(b) ** 2 * len(h) * math.sqrt(len(s)))
    assert round(val.real) == exact
    assert abs(val.real - exact) < tol and abs(val.imag) < tol


@pytest.mark.parametrize("name", sorted(_PARITY_TABLES))
def test_b_routes_agree_on_parity_tables(name):
    table = _PARITY_TABLES[name]
    phi = euler_phi(table.order)
    for i, size in enumerate((1, 3, 8, 24)):
        a = sample_unit_subset(table.order, min(size, phi), 10 + i)
        b = sample_unit_subset(table.order, min(size, phi), 20 + i)
        _routes_agree(table, b, product_index_set(a, b, table.order), sum_set(table, a, b))


@pytest.mark.parametrize("p", [211, 1009, 10007])
def test_b_routes_agree_on_random_instances(p):
    rng = SplitMix64(p)
    for seed in range(2):
        table = _table(p, 40 + seed)
        phi = euler_phi(table.order)
        for size in (2, 8, 40):
            b = sample_unit_subset(table.order, min(size, phi), rng.next_u64())
            # any unit subset H and any S in F_p, both ends of F_p included
            h = sample_unit_subset(table.order, min(1 + rng.below(50), phi), rng.next_u64())
            s = sorted({0, p - 1} | {rng.below(p) for _ in range(1 + rng.below(50))})
            _routes_agree(table, b, h, s)


_SPECTRUM_RSS = """
import resource
from ecsumprod import build_orbit, discover_instance, product_index_set, sample_unit_subset, sum_set
from ecsumprod.charsum import solutions_spectrum
curve, summary, point, order = discover_instance(1000003, 1)
table = build_orbit(curve, point, order)
a, b = sample_unit_subset(order, 8, 1), sample_unit_subset(order, 8, 2)
h, s = product_index_set(a, b, order), sum_set(table, a, b)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
solutions_spectrum(table, b, h, s)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_solutions_spectrum_max_rss_at_p_1000003():
    # pocketfft's Bluestein work space is about 90p bytes a row and
    # invisible to tracemalloc, so a fresh process reads its max RSS: the
    # row plus the 48p bytes of spectra grew it by 139 MB
    src = str(Path(charsum_module.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SPECTRUM_RSS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 <= 180e6  # ru_maxrss is in KiB


def test_solutions_spectrum_traced_peak_at_p_1000003():
    # numpy's arrays only: the row h1 + i*h3, its unpacking W and g (16p
    # bytes each), histogram_sums' 8p-byte grid and the 8T-byte population.
    # pocketfft's Bluestein work space is not traced; the max-RSS test
    # above bounds it.
    # #B = 8 is the identity suite's size; #B = 64 has eight times as many
    # distinct x(bP) for histogram_sums to read.
    table = _table(1000003, 1)
    for size in (8, 64):
        a = sample_unit_subset(table.order, size, 1)
        b = sample_unit_subset(table.order, size, 2)
        h, s = product_index_set(a, b, table.order), sum_set(table, a, b)
        tracemalloc.start()
        try:
            solutions_spectrum(table, b, h, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 68 * table.p, size


_BLAS_NAMES = ("dot", "vdot", "inner", "tensordot", "matmul")


def _blas_spellings(tree, module):
    """(line, spelling) of each @ and each dot, vdot, inner, tensordot or
    matmul named in a parsed module, but matmul inside
    charsum._matmul_kernel."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in _BLAS_NAMES and not (
                name == "matmul" and module == "charsum.py" and scope[:1] == ("_matmul_kernel",)):
            found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_source_spells_no_blas_call():
    # Patching np.dot and np.matmul misses a @ b and ndarray.dot, and one
    # BLAS call grows a fresh process's max RSS by about 0.4 MB.
    modules = sorted(Path(charsum_module.__file__).parent.glob("*.py"))
    assert "charsum.py" in [path.name for path in modules]
    for path in modules:
        assert _blas_spellings(ast.parse(path.read_text()), path.name) == [], path.name
    # the scan sees each spelling, and excuses matmul in one function only
    probe = ast.parse("a @ b\nx @= y\nv.dot(w)\nnp.vdot(a, b)\nnp.inner(a, b)\n"
                      "np.tensordot(a, b)\nnp.matmul(a, b)\nfrom numpy import dot\ndot(a, b)\n"
                      "def _matmul_kernel():\n    def kernel():\n        return np.matmul(a, b)\n")
    assert [name for _, name in _blas_spellings(probe, "charsum.py")] == [
        "@", "@", "dot", "vdot", "inner", "tensordot", "matmul", "dot"]
    assert len(_blas_spellings(probe, "sumprod.py")) == 9


def _dead_private_names(trees):
    """Module-level _names defined in {module: parsed tree} that no other
    top-level statement of any of the trees reads, one entry a definition.
    Reads match by name alone, so a read of one module's _name keeps
    another module's _name of that spelling alive."""
    defined, read = [], []
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.append((node.id, stmt))
                elif isinstance(node, ast.Attribute):
                    read.append((node.attr, stmt))
    return sorted(name for name, stmt in defined
                  if not any(seen == name and where is not stmt for seen, where in read))


def test_source_has_no_dead_private_helpers():
    # A private helper, class or constant that src/ never reads is dead
    # code: tests alone may not keep it alive.
    modules = sorted(Path(charsum_module.__file__).parent.glob("*.py"))
    assert "charsum.py" in [path.name for path in modules]
    trees = {path.name: ast.parse(path.read_text()) for path in modules}
    assert _dead_private_names(trees) == []
    # the scan sees a function, a class and a constant nobody reads, in
    # each module that defines it; a recursive call keeps nothing alive,
    # and a read from a function or from another module does
    probe = {
        "a.py": ast.parse("_RULE = 8\n_SEEN: int = 1\nclass _Box:\n    pass\n"
                          "def _route(n):\n    return _route(n - 1)\n"
                          "def _used():\n    return _SEEN\n"
                          "def api():\n    return _used() + b._shared()\n"),
        "b.py": ast.parse("def _shared():\n    return 0\n_RULE = 9\n"),
    }
    assert _dead_private_names(probe) == ["_Box", "_RULE", "_RULE", "_route"]


@pytest.mark.parametrize("blas", ["vdot", "dot", "inner", "matmul"])
def test_spectra_make_no_blas_call(monkeypatch, blas):
    # The threaded complex BLAS dot wakes every OpenBLAS thread for rows of
    # length p; einsum runs on the calling thread.
    table = _PARITY_TABLES["even_1009"]
    a = sample_unit_subset(table.order, 8, 1)
    b = sample_unit_subset(table.order, 8, 2)
    h = product_index_set(a, b, table.order)
    s = sum_set(table, a, b)
    exact = count_solutions(table, b, h, s)
    hist = np.bincount(table.xs, minlength=table.p)

    def refuse(*args, **kwargs):
        raise AssertionError(f"np.{blas} called")

    monkeypatch.setattr(np, blas, refuse)
    assert round(solutions_spectrum(table, b, h, s).real) == exact
    got = histogram_sums(hist, [1, 2, 5])
    assert abs(got[0] - naive_subgroup_sum(table, 1)) < 1e-12 * table.order


def test_full_scans_pack_two_rows_per_fft(monkeypatch):
    table = _PARITY_TABLES["odd_1009"]
    p = table.p
    k = sample_unit_subset(table.order, 13, 1)
    m = sample_unit_subset(table.order, 7, 2)
    # #M = 7 takes the matmul route at p = 1009; force the FFT route
    monkeypatch.setattr(charsum_module, "_direct_route", _ROUTES["fft"])
    expected = bilinear_ratio_scan(table, k, m, nu=1)
    calls = []
    real_fft = np.fft.fft

    def counting_fft(a, *args, **kwargs):
        calls.append(("fft", np.shape(a)))
        return real_fft(a, *args, **kwargs)

    def counting_rfft(a, *args, **kwargs):
        calls.append(("rfft", np.shape(a)))
        raise AssertionError("the scans pack real rows into complex ones")

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    # The default BLOCK holds all 13 K-rows at p = 1009: one call, 7 rows.
    assert bilinear_ratio_scan(table, k, m, nu=1) == expected
    assert calls == [("fft", (7, p))]
    # 2 complex rows (4 K-rows) per block: ceil(13 / 4) calls, the last
    # one of a single half-empty row.
    calls.clear()
    monkeypatch.setattr(charsum_module, "BLOCK", 2 * 36 * p)
    rep = bilinear_ratio_scan(table, k, m, nu=1)
    assert calls == [("fft", (2, p))] * 3 + [("fft", (1, p))]
    assert rep.lam == expected.lam
    assert rep.value == pytest.approx(expected.value, rel=1e-12)
    calls.clear()
    subgroup_scan(table)
    assert calls == [("fft", (1, p))]


def _scan_peak_at_p_10007():
    table = _table(10007, 1)
    k = sample_unit_subset(table.order, 40, 1)
    m = sample_unit_subset(table.order, 40, 2)
    # an untraced call first, so first-call allocations (numpy's FFT plan
    # cache and the like) stay out of the traced peak
    bilinear_ratio_scan(table, k, m, nu=2)
    tracemalloc.start()
    try:
        bilinear_ratio_scan(table, k, m, nu=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bilinear_scan_block_memory_at_p_10007():
    # the matmul route: blocks of 4 K-rows in BLOCK // 3 bytes of
    # temporaries, plus the 16p-byte roots table
    assert _scan_peak_at_p_10007() <= 3.0e6


def test_bilinear_fft_scan_block_memory_at_p_10007(monkeypatch):
    # the FFT route: blocks of 16 K-rows in 8 complex rows of 36p bytes
    monkeypatch.setattr(charsum_module, "_direct_route", _ROUTES["fft"])
    assert _scan_peak_at_p_10007() <= 3.0e6


def test_matmul_scan_makes_no_fft_call(monkeypatch):
    # the default rule sends #M = 40 at p = 10007 to the matmul route, whose
    # matmuls each stay within GEMM_MACS multiply-adds and two rows or more
    # (one uncut product per K-row would be 71 x 40 x 71)
    table = _table(10007, 1)
    k = sample_unit_subset(table.order, 40, 1)
    m = sample_unit_subset(table.order, 40, 2)
    assert charsum_module._direct_route(len(m), table.p)
    fft = _on_each_route(lambda: bilinear_ratio_scan(table, k, m, nu=1))["fft"]

    def refuse(*args, **kwargs):
        raise AssertionError("the matmul route makes no FFT")

    shapes = []
    real_matmul = np.matmul

    def counting_matmul(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return real_matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np, "matmul", counting_matmul)
    rep = bilinear_ratio_scan(table, k, m, nu=1)
    assert shapes and all(a[-1] == b[-2] == len(m) and a[-3] > 1 for a, b in shapes)
    assert all(2 <= a[-2] and a[-2] * a[-1] * b[-1] <= charsum_module.GEMM_MACS
               for a, b in shapes)
    assert rep.lam == fft.lam
    assert abs(rep.value - fft.value) <= charsum_module._fft_roundoff(table.p, len(k) * len(m))


def test_scan_routes_agree_at_the_cap():
    table = _table(99991, 1)
    assert table.p <= charsum_module.SCAN_CAP
    k = sample_unit_subset(table.order, 40, 1)
    m = sample_unit_subset(table.order, 40, 2)
    reports = _on_each_route(lambda: bilinear_ratio_scan(table, k, m, nu=2))
    assert reports["matmul"].lam == reports["fft"].lam
    assert (abs(reports["matmul"].value - reports["fft"].value)
            <= charsum_module._fft_roundoff(table.p, len(k) * len(m)))
