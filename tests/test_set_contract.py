"""Every public function that returns a set returns it in one form: a
sorted, distinct int64 array, with the values of an independent oracle."""

import numpy as np
import pytest

from ecsumprod import (
    CurveParams,
    build_orbit,
    prod_set,
    product_index_set,
    sample_unit_subset,
    sum_set,
    units_of,
    units_with_x_below,
)
from ecsumprod.rng import SplitMix64
from ecsumprod.sampling import discover_instance
from ecsumprod.sumprod import check_unit_subset
from oracles import (
    naive_prod_set,
    naive_product_index_set,
    naive_sum_set,
    naive_units_with_x_below,
    oracle_check_unit_subset,
    oracle_sample_unit_subset,
    oracle_units,
)

_KNOWN = build_orbit(CurveParams(5, 1, 1), (0, 1), 9)  # xs = (0, 4, 2, 3, 3, 2, 4, 0)
_curve, _, _point, _order = discover_instance(211, 4)
_T211 = build_orbit(_curve, _point, _order)
_A211 = [int(m) for m in sample_unit_subset(_T211.order, 12, 1)]
_B211 = [int(m) for m in sample_unit_subset(_T211.order, 9, 2)]

# (id, package call, oracle call)
_CASES = [
    ("units_of", lambda: units_of(9), lambda: oracle_units(9)),
    ("units_of_2", lambda: units_of(2), lambda: oracle_units(2)),
    ("units_of_360", lambda: units_of(360), lambda: oracle_units(360)),
    ("check_unit_subset", lambda: check_unit_subset([8, 1, 2, 1], 9),
     lambda: oracle_check_unit_subset([8, 1, 2, 1], 9)),
    ("check_unit_subset_empty", lambda: check_unit_subset([], 9),
     lambda: oracle_check_unit_subset([], 9)),
    ("sample_unit_subset", lambda: sample_unit_subset(100, 10, 7),
     lambda: oracle_sample_unit_subset(100, 10, SplitMix64(7))),
    ("sample_unit_subset_empty", lambda: sample_unit_subset(9, 0, 1),
     lambda: oracle_sample_unit_subset(9, 0, SplitMix64(1))),
    ("sum_set", lambda: sum_set(_T211, _A211, _B211),
     lambda: naive_sum_set(_T211, _A211, _B211)),
    ("sum_set_empty", lambda: sum_set(_KNOWN, [], [1]),
     lambda: naive_sum_set(_KNOWN, [], [1])),
    ("product_index_set", lambda: product_index_set(_A211, _B211, _T211.order),
     lambda: naive_product_index_set(_A211, _B211, _T211.order)),
    ("product_index_set_empty", lambda: product_index_set([1, 2], [], 9),
     lambda: naive_product_index_set([1, 2], [], 9)),
    ("prod_set", lambda: prod_set(_T211, _A211, _B211),
     lambda: naive_prod_set(_T211, _A211, _B211)),
    ("prod_set_empty", lambda: prod_set(_KNOWN, [], [1, 2]),
     lambda: naive_prod_set(_KNOWN, [], [1, 2])),
    ("units_with_x_below", lambda: units_with_x_below(_T211, 60),
     lambda: naive_units_with_x_below(_T211, 60)),
    ("units_with_x_below_empty", lambda: units_with_x_below(_KNOWN, 0),
     lambda: naive_units_with_x_below(_KNOWN, 0)),
]


@pytest.mark.parametrize("call, oracle", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES])
def test_sets_are_sorted_int64_arrays(call, oracle):
    got = call()
    assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.ndim == 1
    assert np.all(got[1:] > got[:-1])
    assert got.tolist() == list(oracle())


def test_nonempty_cases_are_live():
    # the non-empty cases must not pass on empty results
    for name, call, _ in _CASES:
        if not name.endswith("_empty"):
            assert len(call()) > 0, name
