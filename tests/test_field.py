import pytest

from conftest import SMALL_PRIMES
from ecsumprod import CapExceeded, fp_sqrt, is_prime, legendre
from ecsumprod.field import MODULUS_CAP, validate_prime_modulus
from oracles import oracle_squares


def test_legendre_examples():
    assert legendre(4, 5) == 1
    assert legendre(3, 5) == -1
    assert legendre(0, 5) == 0
    assert legendre(10, 5) == 0


def test_legendre_matches_square_sets():
    for p in SMALL_PRIMES:
        squares = oracle_squares(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expected


def test_sqrt_examples():
    assert fp_sqrt(4, 5) == 2
    assert fp_sqrt(0, 5) == 0
    assert fp_sqrt(3, 5) is None


def test_sqrt_exhaustive_small_primes():
    # p = 3 (mod 4) has s = 1, where Tonelli-Shanks skips its loop; p = 1
    # (mod 4) runs it
    for p in SMALL_PRIMES:
        nonzero_squares = 0
        for a in range(p):
            r = fp_sqrt(a, p)
            if legendre(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a
                assert r <= p - r  # canonical smaller root
                if a:
                    nonzero_squares += 1
        assert nonzero_squares == (p - 1) // 2


def test_is_prime_spots():
    assert is_prime(2) and is_prime(5) and is_prime(1009) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(1009 * 1013)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_refuses_n_beyond_its_witness_bound():
    # 4759123141 = 48781 * 97561 is a strong pseudoprime to 2, 7 and 61, so
    # the three witnesses decide n only below it
    assert is_prime(2147483659) and is_prime(4759123129)
    assert not is_prime(4759123139)
    for n in (4759123141, 48781 * 97561, 2**61 - 1):
        with pytest.raises(ValueError, match="exact only below 4759123141"):
            is_prime(n)


def test_validate_prime_modulus():
    assert validate_prime_modulus(5) == 5
    with pytest.raises(ValueError):
        validate_prime_modulus(4)
    with pytest.raises(ValueError):
        validate_prime_modulus(3)  # prime but below 5
    with pytest.raises(CapExceeded):
        validate_prime_modulus(MODULUS_CAP + 1)
    # the package's one cap guard, errors.check_cap, words the message
    with pytest.raises(CapExceeded, match=r"^modulus needs p <= 2147483647, got 2147483648$"):
        validate_prime_modulus(2**31)
    with pytest.raises(TypeError):
        validate_prime_modulus(5.0)
