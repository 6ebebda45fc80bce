"""The test configuration itself: a failing property test leaves every other
result in the summary.

``pyproject.toml`` turns every warning into an error.  When a hypothesis
``@given`` test fails, hypothesis's report hook reaches the deprecated
``mypy_extensions.TypedDict``, and that warning, raised as an error, ended
the session with an INTERNALERROR that dropped every result not yet
reported.  One ``ignore`` entry for that exact message keeps the summary
whole."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x != 0


def test_b_plain_test_that_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_others_reported(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), done.stdout
