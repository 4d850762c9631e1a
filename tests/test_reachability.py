"""Every module-level function and class in the package is reached by
the program: named in src/aeslab or perfbench/ somewhere other than its
own definition.  Code that only the tests call is deleted instead of
kept alive by them."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aeslab"
PERFBENCH = ROOT / "perfbench"

# The element-wise reference that the S-box tests compare against.
EXEMPT = {("gf256", "_affine")}


def _names(node) -> Counter:
    """How often each name appears under node as a Name, an Attribute
    or an import alias."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.alias):
            counts[n.name.rpartition(".")[2]] += 1
            if n.asname:
                counts[n.asname] += 1
    return counts


def unreached(package: Path, perfbench: Path) -> list:
    """(module, name) of each module-level def and class in package
    that no code in package or perfbench names outside its own body."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in [*package.glob("*.py"), *perfbench.rglob("*.py")]}
    used = Counter()
    for tree in trees.values():
        used += _names(tree)
    found = []
    for path in sorted(package.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _names(node)[node.name]
            if used[node.name] == own and (path.stem, node.name) not in EXEMPT:
                found.append((path.stem, node.name))
    return found


def test_every_definition_is_reached():
    assert PACKAGE.is_dir() and PERFBENCH.is_dir()
    assert unreached(PACKAGE, PERFBENCH) == []
