"""Module boundaries: no package module reaches into another one's private names,
every import in the package is at module level, no module keeps an `__all__` list
(the package API is what `__init__` imports), and no line is over 100 characters."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orthoreps"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
MAX_LINE = 100


def _package_module(node: ast.ImportFrom) -> str | None:
    """Name of the package module a `from ... import` reads from, or "" for the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "orthoreps":
        return node.module.partition(".")[2]
    return None


def private_reaches(source: str, own: str) -> list[str]:
    """`from .x import _y` and `x._y` uses in one module's source, for x another module."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node) == "":
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("orthoreps."):
                    aliases[a.asname] = a.name.partition(".")[2]
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _package_module(node)
            if mod is None or mod == own:
                continue
            hits += [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import "
                     f"{a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and aliases.get(node.value.id, own) != own
              and node.attr.startswith("_") and not node.attr.startswith("__")):
            hits.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return hits


def nested_imports(source: str) -> list[str]:
    """Import statements in one module's source that are not at its top level."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_detector_catches_both_forms():
    src = "from . import root_data\nfrom .irreps import _scan_data\nroot_data._window(1)\n"
    assert private_reaches(src, "steinberg") == [
        "line 2: from .irreps import _scan_data",
        "line 3: root_data._window",
    ]
    assert private_reaches("from .weights import as_weight\nx._y\n", "irreps") == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_private_names_across_modules(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert private_reaches(source, module) == []


def test_nested_import_detector_catches_both_forms():
    src = ("import csv\nfrom .arith import is_prime\n"
           "def f():\n    from .arith import is_prime\n"
           "class C:\n    if True:\n        import json\n")
    assert nested_imports(src) == ["line 4: from .arith import is_prime", "line 7: import json"]
    assert nested_imports("import csv\nfrom .weights import as_weight\n") == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_imports_at_module_level(module):
    assert nested_imports((PACKAGE / f"{module}.py").read_text()) == []


def all_assignments(source: str) -> list[str]:
    """Statements in one module's source that assign `__all__`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            hits.append(f"line {node.lineno}: {ast.unparse(node)}")
    return hits


def test_all_detector_catches_each_form():
    src = "__all__ = ['f']\n__all__ += ['g']\n__all__: list = []\nall_ = []\n"
    assert all_assignments(src) == ["line 1: __all__ = ['f']", "line 2: __all__ += ['g']",
                                    "line 3: __all__: list = []"]


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_all_list(module):
    assert all_assignments((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_lines_at_most_100_characters(module):
    lines = (PACKAGE / f"{module}.py").read_text().splitlines()
    assert [f"line {i}: {len(line)}" for i, line in enumerate(lines, 1)
            if len(line) > MAX_LINE] == []
