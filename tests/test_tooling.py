"""The project's pytest settings: a failing property test reports its example, and the run goes on."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    pass
"""


def test_a_failing_given_test_is_reported_and_later_tests_run(tmp_path):
    # hypothesis's failure reporter imports libcst, which warns on import; under error::DeprecationWarning
    # that warning was an INTERNALERROR (exit 3) that lost the falsifying example and every later test
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_probe.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
