import math
import tracemalloc

import numpy as np
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
from ecsumprod.errors import TooLarge
from ecsumprod.residue import euler_phi, units_of
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance, sample_unit_subset
from ecsumprod.sumprod import check_unit_subset
from oracles import (
    naive_count,
    naive_prod_set,
    naive_sum_set,
    oracle_check_unit_subset,
    oracle_sample_unit_subset,
)


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


def _outcome(fn, *args):
    """A call's result, or its exception class and message."""
    try:
        return fn(*args)
    except (ValueError, NotAUnit, TooLarge) as exc:
        return type(exc), str(exc)


def _container(kind, members):
    """members in one of the shapes callers pass: a fresh one per call."""
    if kind == "generator":
        return (m for m in members)
    if kind == "numpy ints":
        return [np.int32(m) if abs(m) < 2**31 else m for m in members]
    if kind == "ndarray":
        try:
            return np.array(members, dtype=np.int64)
        except OverflowError:
            return np.array(members, dtype=object)
    if kind == "uint64 ndarray":
        return np.array([m % 2**64 for m in members], dtype=np.uint64)
    return {"list": list, "tuple": tuple, "set": set}[kind](members)


_KINDS = ("list", "tuple", "set", "generator", "numpy ints", "ndarray", "uint64 ndarray")
_SMALL = st.integers(-3, 63)
_HUGE = st.sampled_from([2**63, -(2**63) - 1, 2**70])


@given(st.integers(1, 60), st.sampled_from(_KINDS),
       st.lists(st.one_of(_SMALL, _SMALL, _SMALL, _HUGE), max_size=12), st.booleans())
@example(9, "list", [3, 0], False)  # the smallest bad member decides: 0
@example(9, "ndarray", [4, 2**63, 3], False)
@example(9, "uint64 ndarray", [2, -1], False)
@example(1, "tuple", [], False)
def test_unit_validator_matches_oracle(t, kind, members, units_only):
    if units_only:  # the valid path, with duplicates
        members = [m for m in members if 1 <= m < t and math.gcd(m, t) == 1] * 2
    got = _outcome(check_unit_subset, _container(kind, members), t)
    want = _outcome(oracle_check_unit_subset, _container(kind, members), t, NotAUnit)
    assert got == want
    if not (got and isinstance(got[0], type)):
        assert all(type(m) is int for m in got)


@given(kernel_inputs())
@example((_KNOWN, {1}, {1, 2}, {1, 2, 4}, {0, 4}))  # x(2P) = p - 1: c1ext read at p and 2p - 1
def test_count_solutions_array_inputs(inputs):
    table, a, b, h, sums = inputs
    want = naive_count(table, b, h, sums)
    sorted_arrays = [np.array(sorted(x), dtype=np.int64) for x in (b, h, sums)]
    repeated_arrays = [np.array(list(x) * 2, dtype=np.int64) for x in (b, h, sums)]
    for block in (sumprod_module.BLOCK, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sumprod_module, "BLOCK", block)
            assert count_solutions(table, tuple(b), tuple(h), tuple(sums)) == want
            assert count_solutions(table, *sorted_arrays) == want
            assert count_solutions(table, *repeated_arrays) == want
            a_arr, b_arr = np.array(sorted(a), dtype=np.int64), sorted_arrays[0]
            assert sum_product_report(table, a_arr, b_arr) == sum_product_report(table, a, b)


def test_count_wrap_example_is_live():
    # the @example above only covers the wrap if some quadruple lands there
    assert _KNOWN.xs[1] == _KNOWN.p - 1
    assert naive_count(_KNOWN, {1, 2}, {1, 2, 4}, {0, 4}) > 0


def test_sample_unit_subset_matches_oracle():
    rng = SplitMix64(77)
    cases = [(t, k) for t in range(2, 120)
             for k in sorted({0, 1, euler_phi(t) // 2, euler_phi(t)})]
    cases += [(9971, 0), (9971, 56), (10205, 56), (10205, euler_phi(10205))]
    for t, k in cases:
        for _ in range(3):
            seed = rng.next_u64()
            assert sample_unit_subset(t, k, seed) == oracle_sample_unit_subset(
                t, k, SplitMix64(seed)), (t, k, seed)
    for t, k in ((10, 5), (10, -1), (97, 97)):
        assert _outcome(sample_unit_subset, t, k, 1) == _outcome(
            oracle_sample_unit_subset, t, k, SplitMix64(1), TooLarge)
