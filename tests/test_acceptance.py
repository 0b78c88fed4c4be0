"""Acceptance criteria, one test per criterion.

Each test prints one `CRITERION nn PASS|FAIL name` line (run with -s to see
them live). Tolerances are stated inline; nothing here is loosened to pass.
The whole module is budgeted to finish in well under three minutes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ecsumprod import (
    CurveParams,
    bilinear_ratio_scan,
    bilinear_sum,
    build_orbit,
    count_solutions,
    curve_summary,
    enumerate_points,
    mobius_identity_residual,
    parse_config,
    point_add,
    point_order,
    product_index_set,
    render_csv,
    run_sweep,
    solutions_spectrum,
    sum_set,
)
from ecsumprod.charsum import _roots
from ecsumprod.residue import euler_phi
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance, random_curve, sample_unit_subset
from conftest import SMALL_PRIMES
from oracles import oracle_add, oracle_points, spectrum_tolerance


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:02d} FAIL {name}", flush=True)
        raise
    print(f"CRITERION {num:02d} PASS {name}", flush=True)


def test_criterion_01_group_law():
    # 20 random curves over each of p = 5, 7, 11, 13; every point pair,
    # identity included, must match an independently written evaluator.
    # The whole check must finish in under 10 seconds.
    with criterion(1, "group law matches independent evaluator"):
        start = time.perf_counter()
        rng = SplitMix64(20260201)
        for p in (5, 7, 11, 13):
            for _ in range(20):
                curve, summary = random_curve(p, rng, require_ordinary=False)
                n, points = enumerate_points(curve)
                assert points == oracle_points(p, curve.a4, curve.a6)
                assert n == summary.n_points
                for pt1 in points:
                    for pt2 in points:
                        got = point_add(curve, pt1, pt2)
                        want = oracle_add(p, curve.a4, curve.a6, pt1, pt2)
                        assert got == want, (curve, pt1, pt2, got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"group-law sweep took {elapsed:.1f} s"


def test_criterion_02_known_instance():
    # y^2 = x^3 + x + 1 over F_5 with P = (0, 1), checked exactly.
    with criterion(2, "known small instance reproduced exactly"):
        curve = CurveParams(5, 1, 1)
        summary = curve_summary(curve)
        assert summary.n_points == 9
        assert summary.trace == -3
        assert summary.ordinary is True
        n, points = enumerate_points(curve)
        assert points == [None, (0, 1), (0, 4), (2, 1), (2, 4),
                          (3, 1), (3, 4), (4, 2), (4, 3)]
        assert point_order(curve, (0, 1), 9) == 9
        table = build_orbit(curve, (0, 1), 9)
        assert table.xs.tolist() == [0, 4, 2, 3, 3, 2, 4, 0]


def test_criterion_03_orbit_symmetry():
    # x(kP) = x((T-k)P) exactly on 100 sampled (curve, point) instances
    # with p up to 1009.
    with criterion(3, "orbit symmetry on 100 instances"):
        primes = (101, 211, 307, 401, 503, 601, 701, 809, 907, 1009)
        count = 0
        for p in primes:
            for i in range(10):
                curve, summary, point, order = discover_instance(p, seed=1000 * p + i)
                table = build_orbit(curve, point, order)
                for k in range(1, order):
                    assert table.xs[k - 1] == table.xs[order - k - 1], (curve, point, k)
                count += 1
        assert count == 100


def test_criterion_04_orthogonality():
    # (1/p) sum_lambda psi_lambda(z) = [z = 0] with residual < 1e-9,
    # exhaustive over z for every prime p <= 101.
    with criterion(4, "character orthogonality residual < 1e-9"):
        for p in SMALL_PRIMES:
            lams = np.arange(p, dtype=np.int64)
            zs = np.arange(p, dtype=np.int64)
            totals = _roots((lams[:, None] * zs[None, :]) % p, p).sum(axis=0) / p
            target = np.zeros(p)
            target[0] = 1.0
            residual = float(np.abs(totals - target).max())
            assert residual < 1e-9, (p, residual)


def test_criterion_05_counting_equals_characters():
    # J by direct counting vs the character expansion on 200 random
    # instances (p <= 1009, set sizes <= 30), within the FFT roundoff bound
    # 16 eps ceil(log2 p) (#B)^2 #H sqrt(#S) and equal after rounding,
    # plus the exact lower bound J >= #A (#B)^2; worked instance included.
    with criterion(5, "solution count equals character expansion"):
        known = build_orbit(CurveParams(5, 1, 1), (0, 1), 9)
        s = sum_set(known, [1, 2], [1, 2])
        h = product_index_set([1, 2], [1, 2], 9)
        j = count_solutions(known, [1, 2], h, s)
        assert j == 10 and j >= 2 * 4
        val = solutions_spectrum(known, [1, 2], h, s)
        assert abs(val.real - 10) < spectrum_tolerance(5, 2, len(h), len(s))
        assert round(val.real) == 10

        rng = SplitMix64(555)
        primes = (61, 101, 151, 211, 307, 401, 503, 601, 701, 809, 907, 1009)
        for i in range(200):
            p = primes[i % len(primes)]
            curve, summary, point, order = discover_instance(p, seed=7000 + i)
            table = build_orbit(curve, point, order)
            phi = euler_phi(order)
            size_a = min(1 + rng.below(30), phi)
            size_b = min(1 + rng.below(30), phi)
            a_set = sample_unit_subset(order, size_a, rng.next_u64())
            b_set = sample_unit_subset(order, size_b, rng.next_u64())
            s = sum_set(table, a_set, b_set)
            h = product_index_set(a_set, b_set, order)
            j = count_solutions(table, b_set, h, s)
            assert j >= len(a_set) * len(b_set) ** 2
            val = solutions_spectrum(table, b_set, h, s)
            tol = spectrum_tolerance(p, len(b_set), len(h), len(s))
            assert abs(val.real - j) < tol, (curve, point, j, val)
            assert abs(val.imag) < tol
            assert round(val.real) == j


def test_criterion_06_mobius_identity():
    # sieve identity residual < 1e-9 * T on 500 (curve, lambda) pairs,
    # trivial character included.
    with criterion(6, "unit-orbit sieve identity residual < 1e-9 T"):
        rng = SplitMix64(606)
        pairs = 0
        for i in range(25):
            p = (101, 151, 211, 307, 401)[i % 5]
            curve, summary, point, order = discover_instance(p, seed=8000 + i)
            table = build_orbit(curve, point, order)
            lams = [0] + [rng.below(p) for _ in range(19)]
            for lam in lams:
                assert mobius_identity_residual(table, lam) < 1e-9 * order
                pairs += 1
        assert pairs == 500


def test_criterion_07_small_sum_set_construction():
    # Window construction across a sweep: #T <= phi(T) always, and
    # #S <= 2H - 1 whenever the interval does not wrap. Both observed
    # ratios must be emitted; no success threshold is asserted on them.
    with criterion(7, "window construction bounds and ratios"):
        cfg = parse_config({
            "mode": "theorem3", "p_range": [5, 200], "master_seed": 77,
        })
        rows = run_sweep(cfg)
        assert len(rows) == len(cfg.primes())
        for rec in rows:
            assert rec.error in ("", "EmptyConstruction"), rec
            assert rec.sizeT <= euler_phi(rec.T), rec
            if 2 * rec.H - 2 < rec.p:
                assert rec.sizeS <= max(0, 2 * rec.H - 1), rec
            assert rec.predicted_sizeA is not None
            if rec.sizeA:
                assert rec.ratio is not None
                assert rec.ratio == max(rec.sizeS, rec.sizeT) / math.sqrt(rec.p * rec.sizeA)
                assert rec.sizeA_over_predicted is not None


def test_criterion_08_trivial_character_and_scans():
    # Trivial character collapses the bilinear sum to #K * #M within 1e-9;
    # full nontrivial scans complete for every prime p <= 101 and rerun
    # byte-identically.
    with criterion(8, "trivial character value and full scan determinism"):
        for i, p in enumerate(SMALL_PRIMES):
            curve, summary, point, order = discover_instance(p, seed=9000 + i)
            table = build_orbit(curve, point, order)
            phi = euler_phi(order)
            k_set = sample_unit_subset(order, min(12, phi), i)
            assert abs(bilinear_sum(table, k_set, k_set, 0) - len(k_set) ** 2) < 1e-9
            first = bilinear_ratio_scan(table, k_set, k_set, nu=1)
            second = bilinear_ratio_scan(table, k_set, k_set, nu=1)
            assert repr(first).encode() == repr(second).encode()
            assert 1 <= first.lam < p


def test_criterion_09_sweep_contract():
    # Reruns are byte-identical, a failing cell cannot poison its
    # neighbors, and identities mode passes on 3 curves per p in {5, 7, 11}.
    with criterion(9, "sweep determinism, isolation and identities"):
        cfg = parse_config({
            "mode": "theorem2", "p_list": [5, 7, 11],
            "curves_per_p": 2, "sets_per_curve": 2, "master_seed": 3,
        })
        assert render_csv(run_sweep(cfg)).encode() == render_csv(run_sweep(cfg)).encode()

        crash = parse_config({"mode": "theorem2", "p_list": [10000019, 5], "master_seed": 1})
        rows = run_sweep(crash)
        assert rows[0].error == "CapExceeded" and rows[0].p == 10000019
        assert rows[1].error == "" and rows[1].p == 5

        ids = parse_config({
            "mode": "identities", "p_list": [5, 7, 11],
            "curves_per_p": 3, "master_seed": 9,
        })
        id_rows = run_sweep(ids)
        assert len(id_rows) == 9
        assert all(r.error == "" for r in id_rows), [r for r in id_rows if r.error]
