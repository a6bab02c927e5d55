"""Public names: every ``__all__`` entry resolves, none is listed twice,
and each has one home submodule."""

import importlib

import pytest

MODULES = (
    "chsim",
    "chsim.arena",
    "chsim.cli",
    "chsim.config",
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


def test_each_public_name_has_one_home():
    homes = {}
    for name in (m for m in MODULES if m != "chsim"):
        for attr in importlib.import_module(name).__all__:
            homes.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in homes.items() if len(mods) > 1} == {}
    package = importlib.import_module("chsim")
    assert [attr for attr in package.__all__ if attr not in homes] == []
