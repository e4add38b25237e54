"""Design rule: no module of the package uses another module's private names,
neither by `from .m import _x` nor by `m._x` on a sibling module m."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wpsieve"
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str, own: str) -> list[str]:
    """The other modules' private names that module `own` imports or reads."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, name = alias.name.rpartition(".")
                if head == "wpsieve" and name in MODULES and alias.asname:
                    siblings.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and mod.split(".")[0] != "wpsieve":
                continue
            target = mod.rpartition(".")[2] if mod not in ("", "wpsieve") else None
            for alias in node.names:
                if target is None and alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
                elif target != own and _private(alias.name):
                    found.append(f"from {'.' * node.level}{mod} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings - {own} and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text(encoding="utf-8"), path.stem) == []


def test_checker_catches_private_imports_and_attributes():
    assert private_uses("from .wps import _count, count\n", "sieve") == [
        "from .wps import _count"]
    assert private_uses("from wpsieve.covers import _column_tmax\n", "wps") == [
        "from wpsieve.covers import _column_tmax"]
    assert private_uses("from . import covers\ncovers._column_tmax(3, 2, [])\n",
                        "hyperelliptic") == ["covers._column_tmax"]
    assert private_uses("from . import arith as ar\nar._primes\n", "wps") == ["ar._primes"]
    assert private_uses("import wpsieve.qf as q\nq._decompose\n", "cli") == ["q._decompose"]
    # public names, dunders, own private names and attributes of objects pass
    assert private_uses(
        "from __future__ import annotations\n"
        "from . import __version__, arith\n"
        "from .wps import _CHUNKS, count\n"
        "arith.iroot(8, 3)\nself._x\nspec.field._unit_logs\n",
        "wps") == []
