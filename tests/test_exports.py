"""Each module's ``__all__`` resolves, and the package re-exports only those names.

A deletion that leaves a stale ``__all__`` entry, or a package import of a name
that no module exports, fails here rather than at a caller's ``import *``.  A
public name, and each public method of an exported class, must also have a
reader outside the tests.
"""
import importlib
import pkgutil
import re
import types
from pathlib import Path

import levyrisk

MODULES = [importlib.import_module(f"levyrisk.{info.name}")
           for info in pkgutil.iter_modules(levyrisk.__path__)]
ROOT = Path(__file__).resolve().parents[1]


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


def test_every_public_name_has_a_reader_outside_the_tests():
    # A reference is any mention in README.md, in bench/, or in the package
    # source outside the name's own def/class line and the export lists (the
    # __all__ blocks and the package __init__).
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in (ROOT / "bench").rglob("*") if path.is_file()
              and path.suffix in (".py", ".md")]
    for module in MODULES:
        source = Path(module.__file__).read_text()
        texts.append(re.sub(r"^__all__ = \[.*?\]$", "", source, flags=re.S | re.M))
    lines = [line for text in texts for line in text.splitlines()]
    unread = []
    for module in MODULES:
        for name in module.__all__:
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                unread.append(f"{module.__name__}.{name}")
            # A public method, property, classmethod or staticmethod of an
            # exported class is read through an attribute: any mention of ``.name``.
            value = getattr(module, name)
            if not isinstance(value, type) or value.__module__ != module.__name__:
                continue
            for attr, member in vars(value).items():
                if attr.startswith("_") or not isinstance(
                        member, (types.FunctionType, property, classmethod, staticmethod)):
                    continue
                dotted = re.compile(rf"\.{re.escape(attr)}\b")
                if not any(dotted.search(line) for line in lines):
                    unread.append(f"{module.__name__}.{name}.{attr}")
    assert unread == []

