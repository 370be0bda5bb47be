"""The package's public surface is exactly what its modules declare."""

import importlib
import inspect
import pkgutil

import spiralpaste


def test_public_names_are_the_modules_all():
    declared = {}
    without_all = set()
    for info in pkgutil.iter_modules(spiralpaste.__path__):
        mod = importlib.import_module(f"spiralpaste.{info.name}")
        if hasattr(mod, "__all__"):
            declared.update({name: getattr(mod, name) for name in mod.__all__})
        else:
            without_all.add(info.name)
    assert without_all == {"cli"}
    public = {
        name: obj
        for name, obj in vars(spiralpaste).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public.keys() == declared.keys()
    assert all(public[name] is declared[name] for name in public)
