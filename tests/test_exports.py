"""Every name a climbench module exports in ``__all__`` exists."""

import importlib
import pkgutil

import climbench


def test_every_exported_name_resolves():
    modules = [climbench] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(climbench.__path__, "climbench.")]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 20
    assert missing == []
