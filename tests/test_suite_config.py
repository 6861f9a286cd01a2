"""The tier-1 session's own settings in ``pyproject.toml``: a failing
property test is reported as one failure, and the tests after it still run.

hypothesis's failure report imports libcst, which warns on
``mypy_extensions.TypedDict``; under ``error::DeprecationWarning`` alone
that warning ends the session with an ``INTERNALERROR``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
