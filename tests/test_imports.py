"""Every ``repro`` package imports on its own in a fresh interpreter,
and every module's ``__all__`` resolves.

Import cycles only show when a package is the first thing imported, so
each one gets its own subprocess.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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


def test_every_module_imports_and_its_exports_resolve():
    """Every module imports, and every name a module's ``__all__``
    lists resolves: a package ``__init__`` re-exports names from its
    modules, so a deletion that left its re-export behind would
    otherwise break only a user's ``from repro.<package> import``."""
    names = sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # Importing ``python -m repro``'s entry point runs the CLI.
        if info.name != "repro.__main__"
    )
    assert {"repro.core", "repro.metrics", "repro.sim"} <= set(names)
    missing = []
    for name in ["repro", *names]:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        ]
    assert missing == []
