"""The test setup itself: a failing hypothesis test is reported as a failure."""

import os
import subprocess
import sys

import pertwave

FAILING_MODULE = '''
import pytest
from hypothesis import given, strategies as st

pytestmark = pytest.mark.filterwarnings("error")


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    """hypothesis reports a failure by importing libcst, whose DeprecationWarning a
    module's filterwarnings("error") mark turned into an INTERNALERROR that ended the
    run; with conftest loaded (-p conftest) the run reports 1 failed, 1 passed."""
    (tmp_path / "test_fails.py").write_text(FAILING_MODULE)
    path = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(pertwave.__file__)),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "conftest",
                          "-p", "no:cacheprovider", "test_fails.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1 and "1 failed, 1 passed" in run.stdout
