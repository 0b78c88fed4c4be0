import math
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ecsumprod.sumprod as sumprod_module
from ecsumprod import (
    CurveParams,
    InvariantViolation,
    NotAUnit,
    build_orbit,
    count_solutions,
    parse_config,
    prod_set,
    product_index_set,
    run_sweep,
    solutions_via_characters,
    sum_product_report,
    sum_set,
)
from ecsumprod.cli import main
from ecsumprod.residue import euler_phi, units_of
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance, sample_unit_subset
from oracles import naive_count, naive_prod_set, naive_sum_set


def test_sum_set_examples(known_table):
    assert sum_set(known_table, [1, 2], [1, 2]) == (0, 3, 4)
    assert sum_set(known_table, [1], [1]) == (0,)  # 2 * x(P) mod 5
    assert sum_set(known_table, [], [1]) == ()


def test_product_index_set_examples(known_table):
    assert product_index_set([1, 2], [1, 2], 9) == (1, 2, 4)
    units = set(units_of(9))
    assert set(product_index_set(units, units, 9)) <= units


def test_prod_set_examples(known_table):
    assert prod_set(known_table, [1, 2], [1, 2]) == (0, 3, 4)


def test_non_unit_rejected(known_table):
    with pytest.raises(NotAUnit):
        sum_set(known_table, [3], [1])  # gcd(3, 9) = 3
    with pytest.raises(ValueError):
        sum_set(known_table, [0], [1])
    with pytest.raises(ValueError):
        sum_set(known_table, [9], [1])


def test_count_examples(known_table):
    s = sum_set(known_table, [1, 2], [1, 2])
    h = product_index_set([1, 2], [1, 2], 9)
    assert count_solutions(known_table, [1, 2], h, s) == 10
    assert count_solutions(known_table, [], h, s) == 0
    assert count_solutions(known_table, [1, 2], h, ()) == 0


def test_count_matches_pure_python():
    rng = SplitMix64(2024)
    for i in range(15):
        p = (61, 101, 151)[i % 3]
        curve, summary, point, order = discover_instance(p, seed=100 + i)
        table = build_orbit(curve, point, order)
        phi = euler_phi(order)
        a = sample_unit_subset(order, min(1 + rng.below(8), phi), rng.next_u64())
        b = sample_unit_subset(order, min(1 + rng.below(8), phi), rng.next_u64())
        s = sum_set(table, a, b)
        h = product_index_set(a, b, order)
        assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_report_worked_instance(known_table):
    rep = sum_product_report(known_table, [1, 2], [1, 2])
    assert (rep.size_a, rep.size_b, rep.size_s, rep.size_t, rep.size_h) == (2, 2, 3, 3, 3)
    assert rep.solutions == 10
    assert rep.solutions_lower == 8
    assert rep.lhs == 9
    assert rep.min_branch in ("q_side", "bilinear_side")
    assert rep.ratio == rep.lhs / rep.rhs
    assert rep.exponent == pytest.approx(math.log(9) / math.log(2))
    assert rep.delta == pytest.approx(
        math.sqrt(3) * 2 ** (2 / 3) * 9 ** (2 / 3) * 5 ** (1 / 12) * math.log(5) ** (1 / 3))


def test_report_invariants_random():
    for i in range(8):
        curve, summary, point, order = discover_instance(211, seed=300 + i)
        table = build_orbit(curve, point, order)
        phi = euler_phi(order)
        a = sample_unit_subset(order, min(10, phi), i)
        b = sample_unit_subset(order, min(6, phi), i + 50)
        rep = sum_product_report(table, a, b)
        assert rep.solutions >= rep.solutions_lower
        assert rep.size_t >= -(-rep.size_h // 2)
        assert rep.lhs == rep.size_s * rep.size_t
        assert rep.size_s <= rep.size_a * rep.size_b
        assert rep.size_h <= rep.size_a * rep.size_b
        if rep.min_branch == "q_side":
            assert rep.rhs == curve.p * rep.size_a
        else:
            assert rep.rhs < curve.p * rep.size_a


def test_swap_symmetry(known_table):
    units = units_of(9)
    rng = SplitMix64(9)
    for _ in range(20):
        a = sample_unit_subset(9, 1 + rng.below(6), rng.next_u64())
        b = sample_unit_subset(9, 1 + rng.below(6), rng.next_u64())
        assert sum_set(known_table, a, b) == sum_set(known_table, b, a)
        assert prod_set(known_table, a, b) == prod_set(known_table, b, a)
        assert product_index_set(a, b, 9) == product_index_set(b, a, 9)


_KNOWN = build_orbit(CurveParams(5, 1, 1), (0, 1), 9)


@given(st.data())
def test_monotone_under_growth(data):
    # growing A can only grow S, H and the prod set
    table_units = units_of(9)
    a = tuple(sorted(data.draw(st.sets(st.sampled_from(table_units), min_size=1))))
    b = tuple(sorted(data.draw(st.sets(st.sampled_from(table_units), min_size=1))))
    bigger = tuple(sorted(set(a) | set(data.draw(st.sets(st.sampled_from(table_units))))))
    assert set(sum_set(_KNOWN, a, b)) <= set(sum_set(_KNOWN, bigger, b))
    assert set(product_index_set(a, b, 9)) <= set(product_index_set(bigger, b, 9))
    assert set(prod_set(_KNOWN, a, b)) <= set(prod_set(_KNOWN, bigger, b))


def _table(p, seed):
    curve, summary, point, order = discover_instance(p, seed=seed)
    return build_orbit(curve, point, order)


_ORACLE_TABLES = (_KNOWN, _table(61, 3), _table(211, 4))


@st.composite
def kernel_inputs(draw):
    """A table, A, B (optionally closed under b -> T - b, which gives
    x-histogram weight 2), an arbitrary unit set H and residue set S."""
    table = draw(st.sampled_from(_ORACLE_TABLES))
    units = units_of(table.order)
    a = draw(st.sets(st.sampled_from(units), max_size=12))
    b = draw(st.sets(st.sampled_from(units), max_size=12))
    if draw(st.booleans()):
        b |= {table.order - m for m in b}
    h = draw(st.sets(st.sampled_from(units), max_size=24))
    sums = draw(st.sets(st.integers(0, table.p - 1), max_size=24))
    return table, a, b, h, sums


@given(kernel_inputs())
@example((_KNOWN, set(), {1, 8}, {1}, {0}))
@example((_KNOWN, {1, 2}, set(), set(), set()))
@example((_KNOWN, {1, 8}, {1, 8}, {1, 2, 4}, {0, 3, 4}))
def test_kernels_match_oracles(inputs):
    table, a, b, h, sums = inputs
    # BLOCK = 3 puts every row in its own block
    for block in (sumprod_module.BLOCK, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sumprod_module, "BLOCK", block)
            assert sum_set(table, a, b) == naive_sum_set(table, a, b)
            assert prod_set(table, a, b) == naive_prod_set(table, a, b)
            assert count_solutions(table, b, h, sums) == naive_count(table, b, h, sums)
            s = sum_set(table, a, b)
            hab = product_index_set(a, b, table.order)
            assert count_solutions(table, b, hab, s) == naive_count(table, b, hab, s)


def test_count_solutions_memory_at_p_50021():
    # The pointwise kernel asked for a |B|^2 |H| int64 array (8.2 GiB) here.
    table = _table(50021, 1)
    a = sample_unit_subset(table.order, 200, 1)
    b = sample_unit_subset(table.order, 200, 2)
    s = sum_set(table, a, b)
    h = product_index_set(a, b, table.order)
    tracemalloc.start()
    try:
        j = count_solutions(table, b, h, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert j >= 200 * 200 ** 2
    assert j == round(solutions_via_characters(table, a, b))


def test_invariant_violation_fails_the_cell(monkeypatch, capsys):
    monkeypatch.setattr(sumprod_module, "count_solutions", lambda *args: 0)
    with pytest.raises(InvariantViolation):
        sum_product_report(_KNOWN, [1, 2], [1, 2])
    rows = run_sweep(parse_config({"mode": "theorem2", "p_list": [5, 7], "master_seed": 42}))
    assert [r.error for r in rows] == ["InvariantViolation"] * 2
    argv = ["sumprod", "--p", "5", "--a4", "1", "--a6", "1", "--px", "0", "--py", "1"]
    assert main(argv) == 2
    assert "quadruple count 0" in capsys.readouterr().err
