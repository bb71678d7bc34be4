"""The repository's pytest configuration keeps a failing hypothesis test reportable."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    """Reporting a falsifying example imports libcst, which warns on import; unless the
    configuration lets that warning pass, ``error::DeprecationWarning`` turns it into an
    INTERNALERROR that prints no example and runs no later test."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "\n"
        "def test_after():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
