import pytest

from galilei21 import algebra, cli

# Every certificate the package computes once per process.  A test that
# corrupts the law it proves must see it computed anew, so each test starts
# and ends with none cached.  The functions are taken here, at import, so a
# test that replaces one of them by a stub cannot hide it from the teardown.
CERTIFICATES = (algebra.jacobi_certified, algebra.k_removal_certified, cli._certified_exact_rows)


def clear_certificates():
    for certificate in CERTIFICATES:
        certificate.cache_clear()


@pytest.fixture(autouse=True)
def fresh_certificates():
    clear_certificates()
    yield
    clear_certificates()
