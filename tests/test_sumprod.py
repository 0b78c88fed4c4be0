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
    solutions_spectrum,
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
    assert sum_set(known_table, [1, 2], [1, 2]).tolist() == [0, 3, 4]
    assert sum_set(known_table, [1], [1]).tolist() == [0]  # 2 * x(P) mod 5
    assert sum_set(known_table, [], [1]).tolist() == []


def test_product_index_set_examples(known_table):
    assert product_index_set([1, 2], [1, 2], 9).tolist() == [1, 2, 4]
    units = set(units_of(9))
    assert set(product_index_set(units, units, 9)) <= units


def test_prod_set_examples(known_table):
    assert prod_set(known_table, [1, 2], [1, 2]).tolist() == [0, 3, 4]


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
        assert sum_set(known_table, a, b).tolist() == sum_set(known_table, b, a).tolist()
        assert prod_set(known_table, a, b).tolist() == prod_set(known_table, b, a).tolist()
        assert product_index_set(a, b, 9).tolist() == product_index_set(b, a, 9).tolist()


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
            assert sum_set(table, a, b).tolist() == list(naive_sum_set(table, a, b))
            assert prod_set(table, a, b).tolist() == list(naive_prod_set(table, a, b))
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
    assert j == round(solutions_spectrum(table, b, h, s).real)


def test_count_solutions_index_products_stay_few(monkeypatch):
    # #B * min(#H, phi(T) - #H) index products h * b1^-1, in blocks of at
    # most BLOCK, whichever side of phi(T) / 2 H lies on
    table = _table(1009, 2)
    t = table.order
    phi = euler_phi(t)
    a = sample_unit_subset(t, 30, 1)
    b = sample_unit_subset(t, 30, 2)
    s = sum_set(table, a, b)
    h_small = sample_unit_subset(t, phi // 4, 3)
    h_large = np.setdiff1d(units_of(t), sample_unit_subset(t, phi // 8, 4))
    expected = [naive_count(table, b, h, s) for h in (h_small, h_large)]
    real_reduce_mod = sumprod_module.reduce_mod
    blocks = []

    def counting_reduce_mod(k, n, *args):
        if n == t:
            blocks.append(k.size)
        return real_reduce_mod(k, n, *args)

    monkeypatch.setattr(sumprod_module, "reduce_mod", counting_reduce_mod)
    for block in (32, 300, 4096):
        monkeypatch.setattr(sumprod_module, "BLOCK", block)
        for h, want in zip((h_small, h_large), expected):
            blocks.clear()
            assert count_solutions(table, b, h, s) == want
            assert sum(blocks) == len(b) * min(len(h), phi - len(h))
            assert max(blocks) <= block


def test_count_solutions_exact_at_p_1000003():
    # index products h * b^-1 reach T^2 ~ 10^12, past 32 bits; the
    # reduction mod T must stay exact
    table = _table(1_000_003, 1)
    a = sample_unit_subset(table.order, 12, 1)
    b = sample_unit_subset(table.order, 12, 2)
    s = sum_set(table, a, b)
    h = product_index_set(a, b, table.order)
    assert max(h) * max(b) > 2**32
    assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_count_solutions_memory_at_p_1000003():
    table = _table(1_000_003, 1)
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
    assert peak < 16 * 2**20
    assert j >= 200 * 200 ** 2


def test_count_solutions_all_units_but_few():
    # #H > phi(T) / 2: the gather runs over the units outside H, here none
    # and one
    table = _table(211, 4)
    t = table.order
    units = units_of(t)
    b = sample_unit_subset(t, 12, 1)
    s = sample_unit_subset(table.p, 60, 2)
    for h in (units, units[1:], np.delete(units, len(units) // 2)):
        assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_count_solutions_dense_sum_values():
    # #S > p / 2 and S = F_p, where J = #B^2 #H
    table = _table(211, 4)
    t, p = table.order, table.p
    b = sample_unit_subset(t, 10, 1)
    h = sample_unit_subset(t, 20, 2)
    dense = np.setdiff1d(np.arange(p), sample_unit_subset(p, p // 3, 3))
    assert len(dense) > p / 2
    assert count_solutions(table, b, h, dense) == naive_count(table, b, h, dense)
    assert count_solutions(table, b, h, range(p)) == len(b) ** 2 * len(h)
    assert naive_count(table, b, h, range(p)) == len(b) ** 2 * len(h)


def test_count_solutions_paired_b():
    # b and T - b share x(bP): the same shifted copy is added once for each
    table = _table(211, 4)
    t = table.order
    half = sample_unit_subset(t, 8, 1)
    b = np.union1d(half, t - half[:5])
    h = sample_unit_subset(t, 20, 2)
    s = sample_unit_subset(table.p, 90, 3)
    assert len(np.unique(table.xs[b - 1])) < len(b)
    assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_count_solutions_wide_weights():
    # #B = 256: g reaches #B, past uint8
    table = _table(1009, 2)
    t, p = table.order, table.p
    b = sample_unit_subset(t, 256, 1)
    h = sample_unit_subset(t, 2, 2)
    for s in (range(p), range(1, p)):
        assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_count_solutions_b_closed_under_negation():
    # every x-value of B counted twice, and g in uint16 (#B = 256)
    table = _table(1009, 2)
    t, p = table.order, table.p
    units = units_of(t)
    half = units[units < t / 2][:128]
    b = np.union1d(half, t - half)
    assert len(b) == 256 and np.array_equal(b, np.sort(t - b))
    h = sample_unit_subset(t, 2, 2)
    s = sample_unit_subset(p, p // 2, 3)
    assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)
    assert count_solutions(table, b, h, range(p)) == len(b) ** 2 * len(h)


def test_count_solutions_index_products_past_int32():
    # T just above 46340: index products h * b1^-1 lie between 2^31 and
    # 2^32, where an int32 product would wrap
    table = _table(46399, 1)
    t = table.order
    assert 46340 < t and t * t < 2**32
    top = units_of(t)[-12:]
    b = [pow(int(u), -1, t) for u in top]  # b^-1 among the largest units
    h = units_of(t)[-40:]
    s = sample_unit_subset(table.p, table.p // 2, 1)
    assert 2**31 < int(top[0]) * int(h[0]) and int(top[-1]) * int(h[-1]) < 2**32
    assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_count_solutions_makes_no_fft(monkeypatch):
    # the counting route stays independent of the character route
    def no_fft(*args, **kwargs):
        raise AssertionError("count_solutions called an FFT")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_fft)
    for table in _ORACLE_TABLES[1:]:
        t = table.order
        b = sample_unit_subset(t, 6, 1)
        s = sample_unit_subset(table.p, table.p // 3, 2)
        for h in (sample_unit_subset(t, 5, 3), units_of(t)):
            assert count_solutions(table, b, h, s) == naive_count(table, b, h, s)


def test_invariant_violation_fails_the_cell(monkeypatch, capsys):
    monkeypatch.setattr(sumprod_module, "count_solutions", lambda *args: 0)
    with pytest.raises(InvariantViolation):
        sum_product_report(_KNOWN, [1, 2], [1, 2])
    rows = run_sweep(parse_config({"mode": "theorem2", "p_list": [5, 7], "master_seed": 42}))
    assert [r.error for r in rows] == ["InvariantViolation"] * 2
    argv = ["sumprod", "--p", "5", "--a4", "1", "--a6", "1", "--px", "0", "--py", "1"]
    assert main(argv) == 1  # an invariant violation, not a usage error
    assert "quadruple count 0" in capsys.readouterr().err


def test_saturated_sum_set_pins_j(monkeypatch):
    # all units at p = 101 give S = F_p, where each (b1, b2, h) has exactly
    # one u: J = #B^2 #H, and a count off by #B still clears J >= #A #B^2
    curve, summary, point, order = discover_instance(101, seed=1)
    table = build_orbit(curve, point, order)
    units = units_of(order)
    rep = sum_product_report(table, units, units)
    assert rep.size_s == 101
    assert rep.solutions == rep.size_b ** 2 * rep.size_h
    real_count = sumprod_module.count_solutions
    monkeypatch.setattr(sumprod_module, "count_solutions",
                        lambda table, b, h, s: real_count(table, b, h, s) + len(b))
    with pytest.raises(InvariantViolation, match="S = F_p"):
        sum_product_report(table, units, units)


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
    if isinstance(got, np.ndarray):  # the valid path
        assert got.dtype == np.int64
        got, want = got.tolist(), list(want)
    assert got == want


@pytest.mark.parametrize("members", [
    [1.5, 2], [2.0, 4], [True, 2], [False], ["3", "4"], "34", [np.float64(2)], [None],
    np.array([1.0, 2.0]), np.array([True, False]), np.array(["1", "2"]),
], ids=repr)
def test_unit_validator_rejects_non_integers(members):
    # a float was truncated, a bool read as 0 or 1 and a str parsed
    with pytest.raises(ValueError, match="is not an integer"):
        check_unit_subset(members, 9)
    with pytest.raises(ValueError, match="is not an integer"):
        count_solutions(_KNOWN, [1, 2], [1, 2, 4], members)


def test_unit_validator_accepts_integer_types():
    # every numpy integer type passes the member check, not only int32 and int64
    members = [np.int32(4), np.uint8(2), 7, np.int64(2)]
    assert check_unit_subset(members, 9).tolist() == [2, 4, 7]
    assert check_unit_subset(np.array([7, 1], dtype=np.uint16), 9).tolist() == [1, 7]


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
            assert sample_unit_subset(t, k, seed).tolist() == list(oracle_sample_unit_subset(
                t, k, SplitMix64(seed))), (t, k, seed)
    for t, k in ((10, 5), (10, -1), (97, 97)):
        assert _outcome(sample_unit_subset, t, k, 1) == _outcome(
            oracle_sample_unit_subset, t, k, SplitMix64(1), TooLarge)


def _unit_check_outcomes(members, t):
    """check_unit_subset's and the oracle's outcome on one member list."""
    got = _outcome(check_unit_subset, members, t)
    if isinstance(got, np.ndarray):
        assert got.dtype == np.int64
        got = tuple(got.tolist())
    return got, _outcome(oracle_check_unit_subset, members, t, NotAUnit)


@pytest.mark.parametrize("ts", [range(-1, 301), [2**16], [3**10], [30030]],
                         ids=["t=-1..300", "t=2^16", "t=3^10", "t=30030"])
def test_unit_check_matches_oracle_on_every_member(ts):
    rng = SplitMix64(5)
    for t in ts:
        for m in range(-2, t + 2):
            got, want = _unit_check_outcomes([m], t)
            assert got == want, (t, m)
        for _ in range(20):  # small mixed lists, duplicates allowed
            members = [rng.below(t + 4) - 2 for _ in range(1 + rng.below(6))]
            got, want = _unit_check_outcomes(members, t)
            assert got == want, (t, members)


@pytest.mark.parametrize("ts", [range(-1, 301), [2**16], [3**10], [30030]],
                         ids=["t=-1..300", "t=2^16", "t=3^10", "t=30030"])
def test_unit_check_matches_oracle_on_canonical_arrays(ts):
    # sorted distinct int64 arrays with bad members at either end or
    # inside: the end tests and the sieve gather must find the smallest
    rng = SplitMix64(6)
    for t in ts:
        for m in range(-2, t + 2):
            got, want = _unit_check_outcomes(np.array([m], dtype=np.int64), t)
            assert got == want, (t, m)
        units = [m for m in range(1, min(t, 40)) if math.gcd(m, t) == 1]
        cases = [units + [t], [0] + units, [-2] + units + [t + 1]]
        cases += [sorted(set(units) | {m}) for m in range(1, min(t, 40))]
        for _ in range(20):  # small mixed sets
            cases.append(sorted({rng.below(t + 4) - 2 for _ in range(1 + rng.below(6))}))
        for members in cases:
            got, want = _unit_check_outcomes(np.array(members, dtype=np.int64), t)
            assert got == want, (t, members)


def test_unit_check_returns_a_new_array():
    members = sample_unit_subset(9930, 56, 1)
    members.flags.writeable = False
    for arr in (members, np.array([], dtype=np.int64)):
        got = check_unit_subset(arr, 9930)
        assert np.array_equal(got, arr) and got.dtype == np.int64
        assert got is not arr and not np.shares_memory(got, arr)
        assert got.flags.writeable
    # any other form is sorted and deduplicated
    for arr in (members[::-1].copy(), np.repeat(members, 2), members.astype(np.int32)):
        assert np.array_equal(check_unit_subset(arr, 9930), members)


@pytest.mark.parametrize("t", [998638, 9999204])
def test_unit_check_matches_oracle_at_large_t(t):
    rng = SplitMix64(t)
    units = sample_unit_subset(t, 100, 1)
    assert _unit_check_outcomes(units[::-1], t)[0] == tuple(units.tolist())
    for _ in range(30):  # mostly units, with a few members drawn from [-2, t + 1]
        members = units[:rng.below(100)].tolist()
        members += [rng.below(t + 4) - 2 for _ in range(rng.below(4))]
        got, want = _unit_check_outcomes(members, t)
        assert got == want, (t, members)


@pytest.mark.parametrize("t", [-1, 0])
def test_unit_check_below_one(t):
    # no member lies in [1, t - 1]: an empty set passes, any member is outside
    assert check_unit_subset([], t).dtype == np.int64
    assert check_unit_subset([], t).tolist() == []
    for members in ([1], [0], [3, 2]):
        with pytest.raises(ValueError, match="outside"):
            check_unit_subset(members, t)


def test_sample_unit_subset_leaves_units_of_alone():
    # the shuffle swaps inside the array units_of returns: that array is fresh
    for t, k in ((9930, 56), (101, 50), (10205, euler_phi(10205))):
        before = units_of(t)
        assert np.array_equal(sample_unit_subset(t, k, 3), sample_unit_subset(t, k, 3))
        assert np.array_equal(units_of(t), before)
