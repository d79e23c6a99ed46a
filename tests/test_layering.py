"""The product does not reach into its own references.

* No module of ``src/repro`` outside ``repro/verify`` imports
  ``repro.verify.oracles``: a reference implementation is constructed by
  name in the differential pairs and the tests, never selected by a product
  setting.
* The decision entry points take no ``training`` switch: inference has one
  decision path, and the per-decision autograd scorer is an oracle
  (:func:`repro.verify.oracles.scored_act`).
"""

import ast
import inspect
import pathlib

import pytest

import repro
from repro.core import DecimaAgent

SOURCE = pathlib.Path(repro.__file__).resolve().parent
ORACLES = "repro.verify.oracles"


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SOURCE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path: pathlib.Path) -> set:
    """Every module ``path`` imports, relative imports resolved; a
    ``from package import name`` counts as importing ``package.name`` too."""
    package = module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                base = ".".join(base + ([node.module] if node.module else []))
            else:
                base = node.module
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def oracle_importers() -> dict:
    """``module -> True`` for every module of ``repro`` importing the oracles."""
    return {
        module_name(path): any(
            name == ORACLES or name.startswith(ORACLES + ".")
            for name in imported_modules(path)
        )
        for path in sorted(SOURCE.rglob("*.py"))
    }


def test_only_the_verification_subsystem_imports_the_oracles():
    importers = oracle_importers()
    # Not vacuous: the scan sees the differential runner's relative import.
    assert importers["repro.verify.differential"]
    outside = sorted(
        module
        for module, imports in importers.items()
        if imports and not (module == "repro.verify" or module.startswith("repro.verify."))
    )
    assert outside == []


@pytest.mark.parametrize("method", ("act", "act_batch", "_forward", "_select"))
def test_decisions_take_no_training_switch(method):
    assert "training" not in inspect.signature(getattr(DecimaAgent, method)).parameters
