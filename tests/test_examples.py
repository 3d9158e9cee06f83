"""The shipped examples run end to end, with deprecations as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "name", ["quickstart", "knn_search", "isosurface_rendering", "vmscope_query"]
)
def test_example_exits_zero(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(EXAMPLES / f"{name}.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stdout + done.stderr
