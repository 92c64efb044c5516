import pytest

from galilei21 import cli

# The one cache of certificates the package computes once per process.  A test
# that corrupts the law a certificate proves must see it computed anew, so each
# test starts and ends with none cached.  The function is taken here, at import,
# so a test that replaces it by a stub cannot hide it from the teardown.
CERTIFIED = cli._certified


@pytest.fixture(autouse=True)
def fresh_certificates():
    CERTIFIED.cache_clear()
    yield
    CERTIFIED.cache_clear()
