"""Suite-wide hooks and fixtures."""

import faulthandler
import os
import sys

import pytest

# Far above the slowest test (about 4 s), so only a hang reaches it.
TEST_TIME_LIMIT_S = 120
_terminal_fd = pytest.StashKey[int]()


def pytest_configure(config):
    # Each test's output is captured, and a capture file is lost when the
    # process exits, so the traceback goes to a copy of the terminal's stderr.
    config.stash[_terminal_fd] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_terminal_fd])


@pytest.fixture(autouse=True)
def time_limit(request):
    """Turn a hung test into a failure: past the limit, dump every thread's
    traceback and exit the test process."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_terminal_fd])
    yield
    faulthandler.cancel_dump_traceback_later()
