"""The repository's pytest settings count every failing test.

Each test runs pytest in a subprocess, in a temporary directory, under the
settings of the repository's `pyproject.toml`, and reads its summary line.
"""

import subprocess
import sys
from pathlib import Path

SETTINGS = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _pytest(tmp_path, source):
    (tmp_path / "test_probe.py").write_text(source, encoding="utf-8")
    cmd = [sys.executable, "-m", "pytest", "-c", str(SETTINGS), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
           "-q", "test_probe.py"]
    return subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)


def test_a_failing_property_is_counted_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report imports a module that warns on import; the
    # run must count the failure, not end in an internal error
    done = _pytest(tmp_path, """from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_after():
    pass
""")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def test_any_other_warning_fails_its_test(tmp_path):
    done = _pytest(tmp_path, """import warnings


def test_warns():
    warnings.warn("stale", DeprecationWarning)


def test_after():
    pass
""")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
