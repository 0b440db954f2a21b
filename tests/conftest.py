import os
from fractions import Fraction

import pytest
from hypothesis import settings

from effalg import instances

# The property tests draw the same examples on every run unless
# HYPOTHESIS_PROFILE=explore asks for fresh random draws, and more of them;
# a fault that exploring finds is pinned with @example.
settings.register_profile("ci", derandomize=True, max_examples=150)
settings.register_profile("explore", derandomize=False, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def bool3():
    return instances.make_boolean(3)


@pytest.fixture(scope="session")
def mv42():
    return instances.make_mv_product(4, 2)


@pytest.fixture(scope="session")
def mv83():
    return instances.make_mv_product(8, 3)


@pytest.fixture(scope="session")
def l8():
    return instances.make_mv_product(8, 1)


@pytest.fixture(scope="session")
def mo2():
    return instances.make_mo2()


@pytest.fixture(scope="session")
def hsum_l8():
    left = instances.make_mv_product(8, 1)
    right = instances.make_mv_product(8, 1)
    ident = [Fraction(i, 8) for i in range(9)]
    return instances.make_horizontal_sum(left, right, ident, ident)


@pytest.fixture(scope="session")
def matrix2():
    return instances.make_matrix(2)


@pytest.fixture(scope="session")
def matrix3():
    return instances.make_matrix(3)
