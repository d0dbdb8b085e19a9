"""The test configuration reports a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_a_failing_property_test_is_reported_as_one_failure(tmp_path):
    # Hypothesis reports a failing example through libcst, whose import warns;
    # under the configuration's ``error`` filter that warning must not end the
    # run in INTERNALERROR.
    pytest.importorskip("libcst")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_property.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
