"""Module boundaries: no package module reaches into another one's private names,
every import in the package is at module level and used, no module keeps an
`__all__` list (the package API is what `__init__` imports), no line is over
100 characters, and no arithmetic leaves the integers."""

import ast
import re
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


def unused_imports(source: str) -> list[str]:
    """Names a module imports at top level (not from `__future__`) that it never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {node.lineno}: {a.asname or a.name}" for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for a in node.names if (a.asname or a.name).partition(".")[0] not in read]


def test_unused_import_detector():
    src = ("from __future__ import annotations\nimport csv\nimport os.path\n"
           "import numpy as np\nfrom .arith import is_prime, factorize\n"
           "x = np.zeros(1)\ndef f(n: int) -> bool:\n    return is_prime(n)\n")
    assert unused_imports(src) == ["line 2: csv", "line 3: os.path", "line 5: factorize"]
    assert unused_imports("import os.path\nos.sep\n") == []


# __init__ imports the package API for its readers, so it reads none of it.
@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


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


INT_DTYPE = re.compile(r"u?int(8|16|32|64|p)?")


def _names_int_type(node: ast.expr) -> bool:
    name = (node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name)
            else node.value if isinstance(node, ast.Constant) else None)
    return isinstance(name, str) and INT_DTYPE.fullmatch(name) is not None


def inexact_uses(source: str) -> list[str]:
    """Float literals, true divisions, float() calls and non-integer numpy dtypes in a source."""
    hits: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            hits.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                hits.append((node.lineno, "float()"))
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                dtypes += node.args[:1]
            hits += [(node.lineno, f"dtype {ast.unparse(d)}") for d in dtypes
                     if not _names_int_type(d)]
    return [f"line {line}: {what}" for line, what in sorted(hits)]


def test_inexact_detector_catches_each_form():
    src = ("x = 1.5\ny = a / b\nz /= 2\nfloat(3)\nnp.zeros(2, dtype=np.float64)\n"
           "a.astype('float32')\nnp.ones(1, dtype=object)\n")
    assert inexact_uses(src) == ["line 1: literal 1.5", "line 2: true division",
                                 "line 3: true division", "line 4: float()",
                                 "line 5: dtype np.float64", "line 6: dtype 'float32'",
                                 "line 7: dtype object"]
    assert inexact_uses("a // b\nnp.eye(2, dtype=np.int16)\nb.astype(np.intp)\n"
                        "c.sum(dtype='int64')\nnp.zeros(1, dtype=int)\n'1/2.0'\n") == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_arithmetic_is_exact(module):
    assert inexact_uses((PACKAGE / f"{module}.py").read_text()) == []
