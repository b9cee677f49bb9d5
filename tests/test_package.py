"""Every exported name resolves, so a stale export fails here rather than at
`from qperfect.<module> import *`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qperfect

MODULES = [info.name for info in pkgutil.iter_modules(qperfect.__path__)]


def test_module_exports_resolve():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"qperfect.{name}")
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_are_module_exports():
    tree = ast.parse(Path(qperfect.__file__).read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"qperfect.{node.module}")
            stray += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in getattr(module, "__all__", ()) or not hasattr(qperfect, alias.name)
            ]
    assert not stray
