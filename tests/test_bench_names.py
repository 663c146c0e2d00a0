"""The benchmark in ``perfbench/`` reaches into topogen by attribute name.
These tests read its sources as text, without importing or running them,
and check that every such name still resolves in the library."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import topogen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _chain(node):
    """(root name, [attribute names]) of an attribute chain a.b.c, or None
    when its root is not a plain name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def _package_paths(tree) -> set:
    """Every path into the package, a tuple of attribute names, that a
    function of the module reaches through ``T``, ``self.T`` or a local
    name bound to a path, such as ``ff = self.T.finfield``."""
    paths = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        aliases = {"T": ()}

        def resolve(node):
            chain = _chain(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
            if chain is None:
                return None
            root, attrs = chain
            if root == "self" and attrs[:1] == ["T"]:
                return tuple(attrs[1:])
            return aliases[root] + tuple(attrs) if root in aliases else None

        nodes = sorted(
            (n for n in ast.walk(fn) if isinstance(n, (ast.Assign, ast.Attribute))),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        path = resolve(node.value)
                        if path is None:
                            aliases.pop(target.id, None)
                        else:
                            aliases[target.id] = path
            elif (path := resolve(node)) is not None:
                paths.add(path)
    return paths


def _bench_paths() -> dict:
    """path -> the perfbench files that use it."""
    found: dict = {}
    for source in sorted(PERFBENCH.glob("*.py")):
        for path in _package_paths(ast.parse(source.read_text())):
            found.setdefault(path, []).append(source.name)
    return found


def _resolves(path) -> bool:
    obj = topogen
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


@pytest.fixture(scope="module")
def layers():
    for info in pkgutil.iter_modules(topogen.__path__):
        importlib.import_module(f"topogen.{info.name}")


def test_every_name_the_benchmark_calls_resolves(layers):
    found = _bench_paths()
    # the finite-field workload empties these caches before each pass, and
    # reaches them through an alias, ``ff = self.T.finfield``
    assert {("finfield", "_field", "cache_clear"), ("finfield", "_group_data", "cache_clear")} <= set(found)
    assert ("oracle", "decide") in found and ("cli", "main", "main") in found
    missing = {".".join(path): files for path, files in found.items() if not _resolves(path)}
    assert missing == {}


def _literal(name: str):
    """The value of the module-level assignment ``name = <literal>`` in
    ``perfbench/tracing.py``."""
    source = (PERFBENCH / "tracing.py").read_text()
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )


def test_traced_layers_and_finfield_sublayers_resolve(layers):
    """The tracer wraps every public function of the modules in ``LAYERS``
    and files finite-field spans under ``FINFIELD_SUBLAYER`` by function
    name; a name missing there drops its spans into "other" unnoticed."""
    for layer in _literal("LAYERS"):
        assert _resolves((layer,)), layer
    missing = [name for name in _literal("FINFIELD_SUBLAYER") if not _resolves(("finfield", name))]
    assert missing == []


def test_counted_private_kernels_resolve(layers):
    """The tracer also wraps the private kernels in ``COUNTED_PRIVATE`` by
    name, to count their work: each must be a function defined in its own
    layer module, not a name imported there."""
    counted = _literal("COUNTED_PRIVATE")
    assert counted
    for layer, names in counted.items():
        module = importlib.import_module(f"topogen.{layer}")
        for name in names:
            fn = vars(module).get(name)
            assert isinstance(fn, types.FunctionType), (layer, name)
            assert fn.__module__ == module.__name__, (layer, name)
