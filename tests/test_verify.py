import dataclasses

from ecsumprod import build_orbit, run_identity_suite
from ecsumprod.curve import CurveParams, curve_summary
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
    xs = list(known_table.xs)
    xs[1] = 1  # x(2P) no longer equals x(7P)
    broken = dataclasses.replace(known_table, xs=tuple(xs))
    by_name = {r.name: r for r in run_identity_suite(broken, known_summary.n_points, seed=7)}
    assert not by_name["orbit_symmetry"].ok
    assert by_name["group_order"].ok
