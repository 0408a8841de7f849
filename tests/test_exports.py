"""The package namespace and its modules' export lists agree."""

import ast
import importlib
from pathlib import Path

import causalign


def test_every_package_export_is_in_its_modules_all():
    # the module each name is imported from in causalign/__init__.py
    tree = ast.parse(Path(causalign.__file__).read_text())
    module_of = {
        alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    for name in set(causalign.__all__) - {"__version__"}:
        module = module_of[name]
        assert name in importlib.import_module(f"causalign.{module}").__all__, f"{module}.{name}"
