"""The export lists agree with what the modules define and the package binds.

Every name in a submodule's ``__all__`` must resolve on that module, and
every name ``timeop/__init__.py`` imports from a submodule must be in
that submodule's ``__all__``, so a deleted function cannot linger as a
stale export.  No module imports another module's private
(underscore) name: what one module needs of another is public.
"""

import ast
import importlib
from pathlib import Path

import pytest

import timeop

PACKAGE = Path(timeop.__file__).resolve().parent
# __main__ runs the command line on import
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


def package_bindings():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"timeop.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"timeop.{module}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module,name", package_bindings())
def test_package_binds_only_exported_names(module, name):
    mod = importlib.import_module(f"timeop.{module}")
    assert name in mod.__all__
    assert getattr(timeop, name) is getattr(mod, name)


def private_imports(path):
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("timeop"))
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("module", MODULES + ["__init__", "__main__"])
def test_no_module_imports_a_private_name(module):
    assert private_imports(PACKAGE / f"{module}.py") == []
