import multiprocessing

import pytest


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
