import multiprocessing
import os

import pytest
from hypothesis import settings

# CI selects this profile (HYPOTHESIS_PROFILE=ci): a failing example is
# printed as a blob that @reproduce_failure replays locally
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail any test that leaves a child process running, such as a pool
    worker; the children are stopped first, so the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], f"child processes left running: {left}"
