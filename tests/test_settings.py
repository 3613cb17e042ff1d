"""The test settings themselves: a failing property is reported as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_is_a_failure_not_an_internal_error(tmp_path):
    # Reporting a failing property imports hypothesis's patching support,
    # which imports libcst where it is installed; its import warnings must
    # not turn into an INTERNALERROR (exit 3) under the warning filters.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    done = subprocess.run(
        [sys.executable, *argv, "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
