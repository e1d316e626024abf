"""Each betamix module keeps its private names to itself: no module of
the package imports a `_`-prefixed name from another, nor reads one off
a betamix module it imported. Tests and tools may."""

import ast
from pathlib import Path

import betamix

PACKAGE = Path(betamix.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """The other betamix modules' private names a module's source
    imports, or reads as attributes of a module it imported."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "betamix"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                if node.module in (None, "betamix"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_guard_sees_each_form():
    assert private_uses(
        "from .betadist import BetaParams, _ln_beta\n"
        "from betamix.nn import _pad as pad\n"
        "from . import metrics as m\n"
        "m._counts(m.__name__)\n") == [
            "betadist._ln_beta", "betamix.nn._pad", "m._counts"]


def test_no_module_uses_another_modules_private_names():
    found = {path.name: private_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
