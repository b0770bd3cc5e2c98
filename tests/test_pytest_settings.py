"""The pytest settings in pyproject.toml, run on a probe file in a fresh pytest process:
a failing property test reports its falsifying example and the session goes on, and a
DeprecationWarning raised by a test still fails it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 5


def test_deprecation_warning_fails():
    warnings.warn("old", DeprecationWarning)


def test_after():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
                           str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "FAILED test_probe.py::test_deprecation_warning_fails" in out
    assert proc.returncode == 1 and "2 failed, 1 passed" in out
