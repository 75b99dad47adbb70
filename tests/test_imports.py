"""Import hygiene: every module stands alone, no circular imports.

Layering matters in this codebase (models < stats < core < baselines <
engine < bench); a stray import can silently create a cycle that only
bites under a particular import order.  Importing every module in a
fresh interpreter, alone, proves none exists.
"""

from __future__ import annotations

import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_standalone(module_name):
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module_name}"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, (
        f"import {module_name} failed:\n{completed.stderr}"
    )


def test_public_package_exports_resolve():
    """Every name in each package's __all__ must actually exist."""
    import importlib

    for package_name in (
        "repro",
        "repro.models",
        "repro.core",
        "repro.baselines",
        "repro.engine",
        "repro.datagen",
        "repro.stats",
        "repro.bench",
    ):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", ()):
            assert hasattr(package, name), (
                f"{package_name}.__all__ lists missing name {name!r}"
            )


def test_import_does_not_load_scipy():
    """SciPy is only needed by the GF sweeps, which import it on first
    use; the package, the CLI and the serving core must start
    without it."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.cli, repro.serve; "
            "print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
