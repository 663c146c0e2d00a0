"""Every memo table in topogen is bounded, so a long-lived process does not
grow without limit."""

import importlib
import pkgutil

import topogen


def _cached_functions():
    for info in pkgutil.iter_modules(topogen.__path__):
        mod = importlib.import_module(f"topogen.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                yield f"{info.name}.{name}", obj


def test_every_cache_has_a_finite_maxsize():
    found = dict(_cached_functions())
    assert {"stabilizers._c_value", "closure._poset_dot", "finfield._field"} <= set(found)
    unbounded = [name for name, fn in found.items() if fn.cache_info().maxsize is None]
    assert unbounded == []
