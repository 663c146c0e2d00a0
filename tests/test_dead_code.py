"""A guard against dead code in ``src/topogen``, read with ``ast`` alone:
every private top-level function, class and constant is read somewhere
outside its own definition, and every imported name is used."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "topogen"


def _trees() -> dict:
    """The parsed modules, by path below ``src/topogen``."""
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def _loads(node) -> Counter:
    """The names the node reads, as names or as attributes."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _top_level(tree):
    """(name, defining statement) of each top-level function, class and
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _exported(tree) -> set:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_private_names_are_read():
    trees = _trees()
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    checked, dead = 0, []
    for module, tree in trees.items():
        for name, node in _top_level(tree):
            if name.startswith("_") and not name.startswith("__"):
                checked += 1
                if loads[name] <= _loads(node)[name]:
                    dead.append(f"{module}: {name}")
    assert checked and not dead


def test_imports_are_used():
    unused = []
    for module, tree in _trees().items():
        used = _loads(tree).keys() | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert not unused
