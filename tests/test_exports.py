"""Each module's ``__all__`` resolves, and the package re-exports only those names.

A deletion that leaves a stale ``__all__`` entry, or a package import of a name
that no module exports, fails here rather than at a caller's ``import *``.
"""
import importlib
import pkgutil
import types

import levyrisk

MODULES = [importlib.import_module(f"levyrisk.{info.name}")
           for info in pkgutil.iter_modules(levyrisk.__path__)]


def test_every_all_name_resolves():
    assert {m.__name__ for m in MODULES} >= {"levyrisk.factors", "levyrisk.evar", "levyrisk.cli"}
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace), module.__name__


def test_package_names_come_from_module_all():
    exported = set().union(*(module.__all__ for module in MODULES))
    public = {name for name, value in vars(levyrisk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public, "the package exports nothing"
    assert sorted(public - exported) == []
