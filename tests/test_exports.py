"""Every name a module exports through ``__all__`` exists in it."""

import importlib
import pkgutil

import latticesum


def test_all_names_resolve():
    modules = [latticesum] + [
        importlib.import_module(f"latticesum.{info.name}")
        for info in pkgutil.iter_modules(latticesum.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1
    assert missing == []
