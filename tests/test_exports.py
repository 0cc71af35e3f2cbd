"""Every name a module lists in ``__all__`` exists."""

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
