"""Every exported name resolves, so a deletion cannot leave a stale export,
every exported name, every dataclass field and every public method has a
reader outside the tests, and every module of the package and of the
tests reads what it imports."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path

import pytest

import rnp

MODULES = sorted(info.name for info in pkgutil.iter_modules(rnp.__path__))
REPO = Path(rnp.__file__).resolve().parents[2]

# Exported for the tests alone: a fixture and the references tests compare against.
TEST_ORACLES = {"identity_operator", "to_dense", "compare_inner_iterations", "original_cost"}
# Dataclass fields read by the tests alone: a Krylov diagnostic to be surfaced
# in traces, and the result of an acceptance oracle.
TEST_ONLY_FIELDS = {"KrylovReport.final_relres", "InnerIterationComparison.median_reduction"}
# Public methods read by the tests alone, each with its reason.
TEST_ONLY_METHODS = {
    "Preconditioner.apply_P": "the P-metric reference tests compare against",
}
# Imports their module never reads, each with its reason.
UNREAD_IMPORTS = {
    "solvers.cg": "bench/spans.py wraps rnp.solvers.cg by name",
    "sketch.standard_normal_matrix": "bench/spans.py wraps rnp.sketch.standard_normal_matrix "
                                     "by name, and bench/tests reads it from the module",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"rnp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(rnp.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(rnp, n)] == []


def _referenced_names() -> set[str]:
    """Every name that code in src/rnp or bench/ reads, as a variable, as an
    attribute or spelled as a string; ``__all__`` lists and the package's
    re-exports do not count."""
    files = [p for p in Path(rnp.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    files += sorted((REPO / "bench").rglob("*.py"))
    names = set()
    for path in files:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    assert (REPO / "bench").is_dir()
    exported = {attr for name in MODULES
                for attr in getattr(importlib.import_module(f"rnp.{name}"), "__all__", ())}
    test_only = exported - _referenced_names()
    assert sorted(test_only - TEST_ORACLES) == []
    assert sorted(TEST_ORACLES - test_only) == []  # no stale entries in the list


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    classes = {cls for name in MODULES
               for _, cls in inspect.getmembers(importlib.import_module(f"rnp.{name}"),
                                                inspect.isclass)
               if dataclasses.is_dataclass(cls) and cls.__module__.startswith("rnp.")}
    assert classes
    read = _referenced_names()
    test_only = {f"{cls.__name__}.{f.name}" for cls in classes
                 for f in dataclasses.fields(cls) if f.name not in read}
    assert sorted(test_only - TEST_ONLY_FIELDS) == []
    assert sorted(TEST_ONLY_FIELDS - test_only) == []  # no stale entries in the list


def test_every_public_method_has_a_reader_outside_the_tests():
    classes = {cls for name in MODULES
               for _, cls in inspect.getmembers(importlib.import_module(f"rnp.{name}"),
                                                inspect.isclass)
               if cls.__module__.startswith("rnp.")}
    assert classes
    read = _referenced_names()
    methods = {f"{cls.__name__}.{attr}" for cls in classes
               for attr, member in vars(cls).items()
               if not attr.startswith("_") and attr not in read
               and (inspect.isfunction(member) or isinstance(
                   member, (property, cached_property, classmethod, staticmethod)))}
    assert sorted(methods - TEST_ONLY_METHODS.keys()) == []
    assert sorted(TEST_ONLY_METHODS.keys() - methods) == []  # no stale entries in the list


def _unread_imports(path: Path) -> set[str]:
    """Names a module imports and never reads; ``from __future__`` imports
    do not count.  A dotted ``import a.b`` binds, and is read as, ``a``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_read():
    package = Path(rnp.__file__).parent
    # the package's __init__ imports only to re-export
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((REPO / "tests").glob("*.py"))
    assert len(modules) > len(MODULES)
    unread = {f"{path.stem}.{name}" for path in modules for name in _unread_imports(path)}
    assert sorted(unread - UNREAD_IMPORTS.keys()) == []
    assert sorted(UNREAD_IMPORTS.keys() - unread) == []  # no stale entries in the list
