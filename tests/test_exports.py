import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

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
    "bessel_j",
    "bessel_i_ratio",
    "bessel_abs_tail",
    "bessel_sq_tail",
    "_build",
    "QuadratureConvergenceError",
    "_default_order",
    "_DOUBLING_TOL",
    "_array_factor",
    "rtilde_matrix",
    "diversity_measure",
    "smallest_enclosing_circle",
    "translate",
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


def test_package_exports_what_its_modules_list():
    # the package re-exports exactly each module's __all__; cli is its own namespace
    exported = {name for name in vars(ds) if not name.startswith("_")} - set(MODULES)
    modules = [importlib.import_module(f"divspec.{name}") for name in MODULES if name != "cli"]
    listed = set().union(*(module.__all__ for module in modules))
    assert exported == listed
    assert len(exported) == 40


def test_spectrum_carries_no_reciprocal_and_oracle_takes_no_knobs():
    assert "inv_omega" not in {field.name for field in dataclasses.fields(ds.DiversitySpectrum)}
    assert list(inspect.signature(ds.nystrom_oracle).parameters) == ["aperture", "model"]


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
def test_imports_no_scipy(name):
    # scipy is a test dependency only: specfun's two recurrences give the J_n
    # and I_k/I_0 that divspec evaluates
    names = _imported_names(SRC / "divspec" / f"{name}.py")
    assert [n for n in names if n.split(".")[0] == "scipy"] == []


def _python(code, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, cwd=cwd
    ).stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy costs import time and memory that divspec does not need
    code = "import sys, divspec.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    assert _python(code) == "False"


# the circle diagonal under a uniform and a von Mises PAS, a radius sweep, the
# disk diagonal and the transform factor of eight lines
BLOCKED_RUNS = [
    ("spectrum", "scenarios/fig2.cfg"),
    ("spectrum", "scenarios/fig3.cfg"),
    ("sweep", "scenarios/fig5.cfg"),
    ("spectrum", "divbench/configs/disk3.cfg"),
    ("spectrum", "divbench/configs/lines8.cfg"),
]


def test_runs_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes every import of scipy raise ImportError;
    # the CLI must still run and write the bytes it writes in this process
    root = SRC.parent
    runs = [
        [command, "--config", str(root / cfg), "--out", f"{k}.csv"]
        for k, (command, cfg) in enumerate(BLOCKED_RUNS)
    ]
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from divspec.cli import main\n"
        f"codes = [main(args) for args in {runs!r}]\n"
        "try:\n"
        "    import scipy.special\n"
        "except ImportError:\n"
        "    print(codes)\n"
    )
    assert _python(code, cwd=blocked) == str([0] * len(runs))
    from divspec.cli import main

    for args in runs:
        out = tmp_path / args[-1]
        assert main([*args[:-1], str(out)]) == 0
        assert (blocked / args[-1]).read_bytes() == out.read_bytes(), args
