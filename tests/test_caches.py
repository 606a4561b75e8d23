import importlib
import pkgutil

import epshift


def test_only_the_flow_move_builders_are_cached():
    # every other lru cache was deleted once its kernel became linear; an
    # unbounded cache grows for the life of the process
    cached = {}
    for mod in pkgutil.iter_modules(epshift.__path__):
        if mod.name == "__main__":
            continue
        for obj in vars(importlib.import_module(f"epshift.{mod.name}")).values():
            if callable(getattr(obj, "cache_info", None)):
                cached[f"{obj.__module__}.{obj.__name__}"] = obj.cache_parameters()["maxsize"]
    assert list(cached) == ["epshift.classify._raise_moves"]
    assert cached["epshift.classify._raise_moves"] is not None
