"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import uiokit

# __main__ runs the command line on import.
MODULES = ["uiokit"] + sorted(
    f"uiokit.{info.name}" for info in pkgutil.iter_modules(uiokit.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_all_exported_names(module):
    # A star import raises AttributeError for a name in __all__ that the
    # module no longer defines.
    exec(f"from {module} import *", {})


def test_package_names_resolve_on_first_use():
    # The package imports its names lazily: a star import and dir() list
    # every name of __all__, and each is the object its submodule defines.
    namespace = {}
    exec("from uiokit import *", namespace)
    assert set(uiokit.__all__) <= set(namespace)
    assert set(uiokit.__all__) <= set(dir(uiokit))
    for name in uiokit.__all__:
        home = uiokit._HOME.get(name)
        if home is not None:
            module = importlib.import_module(f"uiokit.{home}")
            assert namespace[name] is getattr(module, name), name
    for info in pkgutil.iter_modules(uiokit.__path__):
        if info.name != "__main__":
            assert info.name in dir(uiokit)
            assert getattr(uiokit, info.name) is importlib.import_module(
                f"uiokit.{info.name}")
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        uiokit.nonexistent
