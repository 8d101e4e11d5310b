import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail a test that ends with the cyclic garbage collector disabled, so
    a pause that leaks out of `cli.dispatch` cannot hide in the suite."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
