"""Every ``repro`` package imports on its own in a fresh interpreter.

Import cycles only show when a package is the first thing imported, so
each one gets its own subprocess.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(
    "repro." + path.parent.name
    for path in (SRC / "repro").glob("*/__init__.py")
) + ["repro", "repro.cli"]


@pytest.mark.parametrize("module", PACKAGES)
def test_package_imports_first(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=SRC,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
