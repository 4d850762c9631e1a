"""Every module-level function and class in the package is reached by
the program: named in src/aeslab or perfbench/ somewhere other than its
own definition.  Every name assigned at module level, dunders aside, is
read by that code too.  Code and constants that only the tests use are
deleted instead of kept alive by them.  The package's __init__ does not
count as a use: its re-exports name code without running it."""

import ast
import importlib
from collections import Counter
from pathlib import Path

from aeslab import variants

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aeslab"
PERFBENCH = ROOT / "perfbench"


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


def _reads(node) -> Counter:
    """How often each name is read under node, as a Name or an
    Attribute in a load."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _assigned(stmt) -> list:
    """The names a module-level assignment statement binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _parse(package: Path, perfbench: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path))
            for path in [*package.glob("*.py"), *perfbench.rglob("*.py")]}


def _users(trees: dict, package: Path) -> list:
    """The trees whose names count as uses: all but package's __init__."""
    return [tree for path, tree in trees.items() if path != package / "__init__.py"]


def unreached(package: Path, perfbench: Path) -> list:
    """(module, name) of each module-level def and class in package
    that no code in package, __init__ aside, or perfbench names outside
    its own body."""
    trees = _parse(package, perfbench)
    used = Counter()
    for tree in _users(trees, package):
        used += _names(tree)
    found = []
    for path in sorted(package.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _names(node)[node.name]
            if used[node.name] == own:
                found.append((path.stem, node.name))
    return found


def unread_constants(package: Path, perfbench: Path) -> list:
    """(module, name) of each name assigned at module level in package,
    dunders aside, that no code in package, __init__ aside, or perfbench
    reads."""
    trees = _parse(package, perfbench)
    read = Counter()
    for tree in _users(trees, package):
        read += _reads(tree)
    return [(path.stem, name)
            for path in sorted(package.glob("*.py"))
            for stmt in trees[path].body
            for name in _assigned(stmt)
            if not (name.startswith("__") and name.endswith("__")) and not read[name]]


def test_every_definition_is_reached():
    assert PACKAGE.is_dir() and PERFBENCH.is_dir()
    assert unreached(PACKAGE, PERFBENCH) == []


def test_every_module_constant_is_read():
    assert unread_constants(PACKAGE, PERFBENCH) == []


def test_names_perfbench_reads_resolve():
    # perfbench looks these up by name: the span boundaries on every
    # traced run, and the table builders that --trace 1 times, which
    # run.py reads as attributes of gf256 and variants.
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    boundaries = next(ast.literal_eval(stmt.value) for stmt in spans.body
                      if "BOUNDARIES" in _assigned(stmt))
    for module, attr, _ in boundaries:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    run = ast.parse((PERFBENCH / "run.py").read_text())
    builders = {(n.value.id, n.attr) for n in ast.walk(run)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in ("gf256", "variants")}
    assert builders == {("gf256", "build_sbox"), ("gf256", "build_mul_table"),
                        ("variants", "build_t_tables")}
    for module, attr in builders:
        assert callable(getattr(importlib.import_module(f"aeslab.{module}"), attr)), (module, attr)
    assert variants.build_t_tables() == (variants.T_ENC, variants.T_DEC)
