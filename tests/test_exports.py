import importlib

import pytest

# every module but cli declares its public names
MODULES = ("cli", "suites", "dunkl", "exactalg", "symbolcalc", "transport", "laxdyn")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    module = importlib.import_module(f"calogero.{name}")
    exported = getattr(module, "__all__", None)
    assert (exported is None) == (name == "cli")
    exported = exported or []
    assert len(set(exported)) == len(exported)
    namespace: dict = {}
    # a name listed in __all__ but missing from the module raises here
    exec(f"from calogero.{name} import *", namespace)
    for n in exported:
        assert namespace[n] is getattr(module, n)
