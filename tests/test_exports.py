"""Public names: every ``__all__`` entry resolves, and none is listed twice."""

import importlib

import pytest

MODULES = (
    "chsim",
    "chsim.arena",
    "chsim.cli",
    "chsim.election",
    "chsim.energy",
    "chsim.metrics",
    "chsim.network",
    "chsim.simulator",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
