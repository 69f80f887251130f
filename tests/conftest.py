import pytest

from psprimes.sieve import shared_table


@pytest.fixture(scope="session")
def table():
    # big enough for every dyadic range the suite touches (x = 2^20 needs 2x)
    return shared_table(1 << 21)
