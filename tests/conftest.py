import pytest
from hypothesis import settings

import ecsumprod.curve as curve_module
from ecsumprod import CurveParams, build_orbit, curve_summary

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# Primes small enough for exhaustive loops but covering both sqrt branches.
SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97, 101)


@pytest.fixture(autouse=True)
def fresh_counts_memo():
    # curve._affine_counts keeps the last curve's counts; a test that patches
    # what they are built from must not be handed those of an earlier test.
    curve_module._affine_counts.cache_clear()


@pytest.fixture(scope="session")
def known_curve():
    return CurveParams(5, 1, 1)


@pytest.fixture(scope="session")
def known_summary(known_curve):
    return curve_summary(known_curve)


@pytest.fixture(scope="session")
def known_table(known_curve):
    return build_orbit(known_curve, (0, 1), 9)
