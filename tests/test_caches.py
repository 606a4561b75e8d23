import importlib
import pkgutil

import epshift


def test_no_library_function_is_cached():
    # a process-wide cache keeps what it stored alive after its caller is
    # done; the memos epshift keeps live on the values they describe
    cached = []
    for mod in pkgutil.iter_modules(epshift.__path__):
        if mod.name == "__main__":
            continue
        for obj in vars(importlib.import_module(f"epshift.{mod.name}")).values():
            if callable(getattr(obj, "cache_info", None)):
                cached.append(f"{obj.__module__}.{obj.__name__}")
    assert cached == []
