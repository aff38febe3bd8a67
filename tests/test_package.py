import importlib

import ppqnd

MODULES = ("fock", "polarization", "qnd", "schemes", "secular")


def test_package_exports_exactly_its_modules_public_names():
    # each module's __all__ is the one list: the package adds only the
    # submodules themselves, and no two modules export the same name
    exported = [name for module in MODULES
                for name in importlib.import_module(f"ppqnd.{module}").__all__]
    assert len(exported) == len(set(exported))
    assert set(ppqnd.__all__) == set(exported) | set(MODULES)


def test_every_public_name_is_its_modules_own_object():
    for module_name in MODULES:
        module = importlib.import_module(f"ppqnd.{module_name}")
        assert getattr(ppqnd, module_name) is module
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(ppqnd, name) is value, (module_name, name)
            # defined there, not re-exported from another module
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
