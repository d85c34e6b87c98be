"""The export lists agree with what the modules define and the package binds.

Every name in a submodule's ``__all__`` must resolve on that module, and
every name ``timeop/__init__.py`` imports from a submodule must be in
that submodule's ``__all__``, so a deleted function cannot linger as a
stale export.  No module imports another module's private
(underscore) name: what one module needs of another is public.  Every
module-level name, and every public method and property of a class, is
read somewhere in the program, its demos or its benchmark, so a name
with no caller is deleted rather than kept for its tests.  The
hand-composed routes to W_t's weights that the weighted-shift value
replaced stay deleted, and that value keeps only the two operations the
run path calls.
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


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "timeop").glob("*.py"))
# the program and everything that drives it; tests are not callers
CALLER_FILES = SOURCES + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def module_level_names(path):
    """The functions, classes and constants a module defines at its top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def public_members(path):
    """The public methods and properties that a module's classes define."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def loaded_names(path):
    """Every name a file reads, as a bare name or an attribute.

    ``perfbench/spans.py`` names the calls it wraps as strings such as
    ``"MarkovEvolution.__init__"``, so its string parts count as reads.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (path.name == "spans.py" and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield from node.value.split(".")


def caller_reads():
    return {name for path in CALLER_FILES for name in loaded_names(path)}


def test_every_module_level_name_has_a_caller():
    # an import or an __all__ entry is not a use: a name only the tests
    # read is dead code, and deleting it deletes its tests
    loaded = caller_reads()
    uncalled = [f"{path.stem}.{name}" for path in SOURCES for name in module_level_names(path)
                if not name.startswith("__") and name not in loaded]
    assert uncalled == []


def test_every_public_method_and_property_has_a_caller():
    # read as an attribute anywhere in the callers, by any class: a
    # method or property that only the tests read is dead code
    loaded = caller_reads()
    uncalled = [f"{path.stem}.{qualified}" for path in SOURCES
                for qualified, name in public_members(path) if name not in loaded]
    assert uncalled == []


# the hand-composed routes to W_t's weights that one weighted-shift value
# replaced, as (module, attribute path)
REPLACED = [
    ("cascade", "CascadeSystem.step_pairs"),
    ("profiles", "DecayOperator.log_ratio"),
    ("profiles", "DecayOperator.step_log_ratio"),
    ("duals", "riesz_map"),
    ("markov", "_landed_pairs"),
    ("markov", "_kept"),
    ("markov", "_weigh"),
    ("markov", "_landed"),
    ("markov", "MarkovEvolution.at"),
]


@pytest.mark.parametrize("module,path", REPLACED)
def test_replaced_weight_routes_are_gone(module, path):
    owner = importlib.import_module(f"timeop.{module}")
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, name)
    assert name not in getattr(timeop, "__dict__")


def test_the_weighted_shift_has_only_the_operations_the_run_path_calls():
    methods = [name for qualified, name in public_members(PACKAGE / "cascade.py")
               if qualified.startswith("WeightedShift.")]
    assert methods == ["conjugate", "apply", "take"]
    assert timeop.WeightedShift is timeop.cascade.WeightedShift
