import dataclasses
import hashlib

import numpy as np
import pytest

import ecsumprod.charsum as charsum
import ecsumprod.extremal as extremal
import ecsumprod.verify as verify
from ecsumprod import build_orbit, run_identity_suite
from ecsumprod.curve import CurveParams, curve_summary
from ecsumprod.field import is_prime
from ecsumprod.residue import factorize
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance

EXPECTED_NAMES = [
    "group_order",
    "orbit_symmetry",
    "orbit_spot_values",
    "orthogonality",
    "mobius_identity",
    "trivial_bilinear",
    "solution_count",
    "subgroup_bound",
]


def test_known_instance_passes(known_table, known_summary):
    results = run_identity_suite(known_table, known_summary.n_points, seed=7)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_tiny_order_instance_passes():
    # T = 2 exercises the degenerate single-entry orbit end to end
    curve = CurveParams(5, 1, 0)
    table = build_orbit(curve, (0, 0), 2)
    summary = curve_summary(curve)
    results = run_identity_suite(table, summary.n_points, seed=3)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_medium_instances_pass():
    for i, p in enumerate((101, 211, 1009)):
        curve, summary, point, order = discover_instance(p, seed=80 + i)
        table = build_orbit(curve, point, order)
        results = run_identity_suite(table, summary.n_points, seed=i)
        assert all(r.ok for r in results), (p, [r for r in results if not r.ok])


def test_results_are_deterministic(known_table, known_summary):
    a = run_identity_suite(known_table, known_summary.n_points, seed=11)
    b = run_identity_suite(known_table, known_summary.n_points, seed=11)
    assert a == b


def test_violation_is_reported_not_raised(known_table, known_summary):
    # feed a wrong group order; only the order check should go red
    results = run_identity_suite(known_table, known_summary.n_points + 1, seed=7)
    by_name = {r.name: r for r in results}
    assert not by_name["group_order"].ok
    assert by_name["orbit_symmetry"].ok


def test_orbit_symmetry_check_sees_a_broken_table(known_table, known_summary):
    xs = known_table.xs.copy()
    xs[1] = 1  # x(2P) no longer equals x(7P)
    xs.flags.writeable = False
    broken = dataclasses.replace(known_table, xs=xs)
    by_name = {r.name: r for r in run_identity_suite(broken, known_summary.n_points, seed=7)}
    assert not by_name["orbit_symmetry"].ok
    assert by_name["group_order"].ok


@pytest.mark.parametrize("p", [101, 1009])
def test_orthogonality_check_sees_a_perturbed_root(monkeypatch, p):
    # one root rotated by 1e-8 rad: the sum over F_p comes from
    # histogram_sums and never sees it, so psi_{j+k} = psi_j psi_k on the
    # sampled pairs must give it away
    curve, summary, point, order = discover_instance(p, seed=5)
    table = build_orbit(curve, point, order)
    if p <= verify.EXHAUSTIVE_CAP:
        bad = p // 3
    else:  # the first sampled index, drawn after the 10 orbit spot checks
        rng = SplitMix64(5)
        for _ in range(10):
            rng.below(10 * order)
        bad = rng.below(p)
    good = verify._roots
    monkeypatch.setattr(verify, "_roots", lambda j, q: np.where(
        np.asarray(j) % q == bad, good(j, q) * np.exp(1e-8j), good(j, q)))
    by_name = {r.name: r for r in run_identity_suite(table, summary.n_points, seed=5)}
    assert not by_name["orthogonality"].ok
    assert by_name["mobius_identity"].ok


def _suite_by_name(p, seed):
    curve, summary, point, order = discover_instance(p, seed=seed)
    table = build_orbit(curve, point, order)
    return {r.name: r for r in run_identity_suite(table, summary.n_points, seed=seed)}


# discover_instance(p, 2) has T = 52 = 2^2 * 13, 216 = 2^3 * 3^3, 1000 = 2^3 * 5^3
MUTATION_INSTANCES = [(101, 2), (211, 2), (1009, 2)]


@pytest.mark.parametrize("p, seed", MUTATION_INSTANCES)
@pytest.mark.parametrize("divisor", ["one", "smallest_prime"])
def test_mobius_check_sees_a_zeroed_weight(monkeypatch, p, seed, divisor):
    order = discover_instance(p, seed=seed)[3]
    zeroed = 1 if divisor == "one" else factorize(order)[0][0]
    real_mobius = extremal.mobius
    assert real_mobius(zeroed) != 0  # a squarefree divisor of T
    monkeypatch.setattr(extremal, "mobius", lambda d: 0 if d == zeroed else real_mobius(d))
    by_name = _suite_by_name(p, seed)
    assert not by_name["mobius_identity"].ok
    assert by_name["solution_count"].ok and by_name["subgroup_bound"].ok


@pytest.mark.parametrize("p, seed", MUTATION_INSTANCES)
@pytest.mark.parametrize("position", [0, -1, "middle"])
def test_mobius_check_sees_a_dropped_unit(monkeypatch, p, seed, position):
    real_units = extremal.units_of

    def one_unit_short(t):
        units = real_units(t)
        return np.delete(units, len(units) // 2 if position == "middle" else position)

    monkeypatch.setattr(extremal, "units_of", one_unit_short)
    by_name = _suite_by_name(p, seed)
    assert not by_name["mobius_identity"].ok
    assert by_name["solution_count"].ok


def _perturb_fft_row(monkeypatch, perturb):
    """Apply perturb to a copy of the spectrum's one FFT row, h1 + i*h3."""
    real_fft = np.fft.fft

    def perturbed_fft(row, *args, **kwargs):
        assert np.ndim(row) == 1
        row = np.array(row, dtype=complex)
        perturb(row)
        return real_fft(row, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", perturbed_fft)


def _double_h1(monkeypatch):
    def perturb(row):
        row.real *= 2

    _perturb_fft_row(monkeypatch, perturb)


def _raise_one_h2_cell(monkeypatch):
    # J's B side weights histogram_sums of g at each distinct x(bP)
    # by its count. Doubling both sums at the first x doubles its count, and
    # every (a, b1 = b2 = b, h = ab) with that x(bP) gains solutions.
    real_spectrum, real_sums = verify.solutions_spectrum, charsum.histogram_sums

    def doubled_first(hist, lams):
        sums = real_sums(hist, lams)
        sums[0] *= 2
        return sums

    def perturbed_spectrum(*args):
        with pytest.MonkeyPatch.context() as mp:  # subgroup_sums keeps the real sums
            mp.setattr(charsum, "histogram_sums", doubled_first)
            return real_spectrum(*args)

    monkeypatch.setattr(verify, "solutions_spectrum", perturbed_spectrum)


def _drop_one_h3_cell(monkeypatch):
    # a sum x(aP) + x(bP) leaves S, and with it the solution (b, b, ab)
    def perturb(row):
        row.imag[np.flatnonzero(row.imag)[0]] = 0

    _perturb_fft_row(monkeypatch, perturb)


@pytest.mark.parametrize("perturb", [_double_h1, _raise_one_h2_cell, _drop_one_h3_cell])
@pytest.mark.parametrize("p, seed", MUTATION_INSTANCES)
def test_solution_count_check_sees_a_perturbed_histogram(monkeypatch, perturb, p, seed):
    perturb(monkeypatch)
    by_name = _suite_by_name(p, seed)
    assert not by_name["solution_count"].ok
    assert by_name["mobius_identity"].ok and by_name["subgroup_bound"].ok


# sha256 of repr([(p, [(name, ok), ...]), ...]) over every prime 5 .. 1200,
# instance and suite seed 1 + (index of p mod 3), recorded before the
# identity kernels were vectorised.
SUITE_FLAGS_SHA256 = "e19d380ae1bc8eab83f0f5176581649c4c6ae0b6fdcd05d6668d0943b748ea9e"


def test_suite_flags_golden():
    flags = []
    primes = [p for p in range(5, 1201) if is_prime(p)]
    for i, p in enumerate(primes):
        seed = 1 + i % 3
        curve, summary, point, order = discover_instance(p, seed)
        table = build_orbit(curve, point, order)
        results = run_identity_suite(table, summary.n_points, seed)
        flags.append((p, [(r.name, r.ok) for r in results]))
    assert len(flags) == 194
    assert hashlib.sha256(repr(flags).encode()).hexdigest() == SUITE_FLAGS_SHA256
