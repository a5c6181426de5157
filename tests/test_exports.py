import importlib

import pytest

MODULES = ["aperture", "cli", "operators", "pas", "specfun", "spectrum"]

# removed from the API; nothing may still provide them
REMOVED = [
    "BesselOrderRange",
    "DiscreteDiversityReport",
    "basis_v",
    "discrete_report",
    "_gauss_line",
    "_oracle_nodes",
    "_check_tail_args",
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
