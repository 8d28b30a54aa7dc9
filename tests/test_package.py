import importlib
import pkgutil

import pytest

import volterra_feller

# every module but the command line front end, whose main is not library API
_MODULES = [m.name for m in pkgutil.iter_modules(volterra_feller.__path__)
            if not m.name.startswith("_") and m.name != "cli"]


@pytest.mark.parametrize("name", _MODULES)
def test_package_exports_every_public_name_of_each_module(name):
    module = importlib.import_module(f"volterra_feller.{name}")
    for attr in getattr(module, "__all__", ()):
        assert attr in volterra_feller.__all__
        assert getattr(volterra_feller, attr) is getattr(module, attr)


def test_package_names_are_stated_once():
    assert len(volterra_feller.__all__) == len(set(volterra_feller.__all__))
    # the function, not its module
    assert volterra_feller.simulate is importlib.import_module("volterra_feller.simulate").simulate
    assert {"scheme_discrepancy", "KERNEL_KINDS", "STAND_INS", "stand_in_scheme"} <= set(
        volterra_feller.__all__)
