import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest
import scipy

import divspec as ds

MODULES = ["aperture", "cli", "operators", "pas", "specfun", "spectrum"]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# removed from the API; nothing may still provide them
REMOVED = [
    "BesselOrderRange",
    "DiscreteDiversityReport",
    "basis_v",
    "discrete_report",
    "_gauss_line",
    "_oracle_nodes",
    "_check_tail_args",
    "_operator_builder",
    "_gram_half",
    "_pas_half",
    "basis_matrix",
    "bessel_j_orders",
    "bessel_abs_tail",
    "bessel_sq_tail",
    "_build",
    "QuadratureConvergenceError",
    "_default_order",
    "_DOUBLING_TOL",
    "_array_factor",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"divspec.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", [None] + MODULES)
def test_removed_names_gone(name):
    module = importlib.import_module("divspec" if name is None else f"divspec.{name}")
    assert [attr for attr in REMOVED if hasattr(module, attr)] == []


def test_operator_carries_no_square_root():
    # R^(1/2) is taken where it is read, by the solve, never kept with R
    assert "rtilde_root" not in {field.name for field in dataclasses.fields(ds.TruncatedOperator)}


def _imported_names(path):
    """Dotted name of everything a source file imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_imports_only_scipy_special(name):
    # R is built with numpy; nothing of scipy but scipy.special is needed
    names = _imported_names(SRC / "divspec" / f"{name}.py")
    scipy_names = [n for n in names if n.split(".")[0] == "scipy"]
    assert [n for n in scipy_names if not n.startswith("scipy.special")] == []


@pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 17),
    reason="scipy.special imports scipy.linalg at module level before scipy 1.17",
)
def test_cli_import_leaves_scipy_linalg_out():
    # scipy.linalg costs import time and memory that divspec does not need
    code = "import sys, divspec.cli; print('scipy.linalg' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
