"""No dead code in the package: every import is used, every def is called.

Both checks read the source with ``ast`` and match names, so they are
conservative: a name counts as used wherever it occurs as a name or an
attribute, in any scope.  Only code outside the tests counts, so a
function that only the tests call is dead too.  The re-exports of
``corg/__init__.py`` are not uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corg"
INIT = PACKAGE / "__init__.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"), str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Every identifier read as a name or an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _tree(path)
        lines = path.read_text("utf-8").splitlines()
        used = _used_names(tree)
        for node in ast.walk(tree):  # __all__ entries are uses
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    assert unused == []


def test_every_def_is_referenced():
    sources = [p for d in ("src", "demos", "benchmarks") for p in (ROOT / d).rglob("*.py")
               if p != INIT]
    used: set[str] = set()
    for path in sources:
        used |= _used_names(_tree(path))
    unreferenced = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not _dunder(node.name) and node.name not in used:
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert unreferenced == []


def test_oracles_import_no_private_name():
    # an oracle that borrows a private helper shares the code it judges
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(_tree(ROOT / "tests" / "oracles.py"))
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "corg"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
