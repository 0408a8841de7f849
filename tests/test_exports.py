"""The package namespace is the union of its modules' export lists."""

import importlib

import causalign

MODULES = ("errors", "graph", "scm", "sim", "scoring", "refine", "model", "metrics", "io", "pipeline")


def _module_all(name):
    # by import path: causalign.refine is the refine function
    return importlib.import_module(f"causalign.{name}").__all__


def test_every_package_export_is_in_its_modules_all():
    union = [name for module in MODULES for name in _module_all(module)]
    assert len(set(union)) == len(union), "a name is exported by two modules"
    assert causalign.__all__ == ["__version__", *union]


def test_every_export_resolves_to_its_modules_object():
    for module in MODULES:
        source = importlib.import_module(f"causalign.{module}")
        for name in source.__all__:
            assert getattr(causalign, name) is getattr(source, name), f"{module}.{name}"
    assert causalign.__version__
