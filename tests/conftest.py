import zlib

import numpy as np
import pytest


@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded by its module and name, so a
    test's inputs do not depend on which tests ran before it."""
    key = "%s::%s" % (request.module.__name__,
                      request.node.nodeid.split("::", 1)[1])
    return np.random.default_rng(zlib.crc32(key.encode()))
