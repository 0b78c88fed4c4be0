import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecsumprod import divisors, euler_phi, factorize, mobius, units_of
from ecsumprod.residue import reduce_mod, unit_sieve
from oracles import oracle_mobius, oracle_phi


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(9) == [(3, 2)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def test_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    assert all(euler_phi(n) == oracle_phi(n) for n in range(1, 300))


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert all(mobius(n) == oracle_mobius(n) for n in range(1, 300))


def test_divisors_examples():
    assert divisors(9) == (1, 3, 9)
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)


def test_units_examples():
    assert units_of(9).tolist() == [1, 2, 4, 5, 7, 8]
    assert len(units_of(360)) == euler_phi(360)
    for t in range(2, 300):
        assert units_of(t).tolist() == [m for m in range(1, t) if math.gcd(m, t) == 1]
    with pytest.raises(ValueError):
        units_of(1)


def test_unit_sieve_is_cached_read_only_and_lent_as_copies():
    sieve = unit_sieve(360)
    assert sieve is unit_sieve(360)
    assert sieve.dtype == bool and not sieve.flags.writeable
    with pytest.raises(ValueError):
        sieve[1] = False
    # a copy of it and units_of are fresh writable arrays: their callers
    # write into them (count_solutions, sample_unit_subset)
    mask, units = unit_sieve(360).copy(), units_of(360)
    assert mask.flags.writeable and units.flags.writeable
    assert np.array_equal(mask, sieve) and np.array_equal(units, np.flatnonzero(sieve))
    mask[:] = True
    units[:] = 0
    assert unit_sieve(360) is sieve
    assert units_of(360).tolist() == [m for m in range(1, 360) if math.gcd(m, 360) == 1]
    assert unit_sieve(360).copy().sum() == euler_phi(360)
    unit_sieve(361)
    assert unit_sieve.cache_info().currsize == 1  # t bytes for the last modulus only
    for t in (1, 0, -5):
        with pytest.raises(ValueError, match="unit_sieve needs t >= 2"):
            unit_sieve(t).copy()
        with pytest.raises(ValueError):
            units_of(t)


@given(arrays(np.int64, st.integers(0, 64), elements=st.integers(0, (1 << 62) - 1)),
       st.integers(1, 1 << 31))
def test_reduce_mod_equals_remainder(k, n):
    expected = k % n
    assert reduce_mod(k, n) is k
    assert np.array_equal(k, expected)


def test_mobius_divisor_sum_is_zero():
    # sum over d | T of mu(d) is 1 at T = 1 and 0 for every larger T
    assert sum(mobius(d) for d in divisors(1)) == 1
    for t in range(2, 10001):
        assert sum(mobius(d) for d in divisors(t)) == 0


def test_phi_divisor_sum_is_t():
    for t in range(1, 10001):
        assert sum(euler_phi(d) for d in divisors(t)) == t


def test_unit_group_closure_exhaustive():
    # closed under multiplication and inverses for every modulus up to 500
    for t in range(2, 501):
        units = np.array(units_of(t), dtype=np.int64)
        unit_set = set(units.tolist())
        products = np.unique(units[:, None] * units[None, :] % t)
        assert set(products.tolist()) <= unit_set
        assert {pow(a, -1, t) for a in units.tolist()} == unit_set


@given(st.integers(1, 500), st.integers(1, 500))
def test_phi_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
