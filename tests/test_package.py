"""Every exported name resolves, so a stale export fails here rather than at
`from qperfect.<module> import *`, and so does every name the benchmark's
tracer wraps or its workloads read, and every constant the README names.
Every exported name also has a caller outside the tests."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import qperfect
from qperfect.affine import shear_swap_perm
from qperfect.codes import build_code
from qperfect.hamming import build_hamming_pair
from qperfect.linalg import FieldContext

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


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracing.py getattrs these names on the modules when a traced
    # run installs it; a rename in src/ would fail there, mid-benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up here
    spec.loader.exec_module(tracing)
    wanted = list(tracing.WRAPPED) + [("codes", "codeword_blocks"), ("cli", "main"), ("affine", "PermTable")]
    missing = [
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(f"qperfect.{module}"), name)
    ]
    assert not missing


def test_readme_constants_resolve():
    # every upper-case constant the README names in backticks, bare
    # (`CHECKS`) or module-qualified (`verify.MAX_BASIS_CELLS`), so a
    # deleted or renamed constant does not live on in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {name: importlib.import_module(f"qperfect.{name}") for name in MODULES}
    named = re.findall(r"`((?:[a-z_]\w*\.)*[A-Z][A-Z0-9_]+)`", readme)
    missing = []
    for path in named:
        *owner, name = path.removeprefix("qperfect.").split(".")
        homes = [modules.get(".".join(owner))] if owner else modules.values()
        if not any(hasattr(module, name) for module in homes):
            missing.append(path)
    assert named and not missing


def test_benchmark_code_tables_resolve():
    # perfbench/workloads.py::construct warms these CodeHandle attributes
    # during set-up
    ctx = FieldContext(3)
    code = build_code(build_hamming_pair(ctx, 2), shear_swap_perm(ctx))
    for table in ("rep_table", "hamming_basis", "extended_basis", "permuted_check_matrix"):
        assert getattr(code, table).ndim == 2, table


def referenced_names(path):
    """Names a file refers to: loaded names, attributes, and string
    constants (a tracer's table names its targets as strings), leaving out
    the strings of its __all__."""
    tree = ast.parse(path.read_text())
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {id(n) for n in ast.walk(node.value)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
            names.add(node.value)
    return names


def test_every_export_has_a_caller():
    # an exported name that only tests use is a test oracle or dead code;
    # definitions, __all__ entries and the package re-exports do not count
    root = Path(__file__).resolve().parents[1]
    package = Path(qperfect.__file__)
    files = [path for folder in ("src/qperfect", "scripts", "perfbench") for path in (root / folder).glob("*.py")]
    used = set().union(*(referenced_names(path) for path in files if path != package))
    unused = [
        f"{name}.{export}"
        for name in MODULES
        for export in getattr(importlib.import_module(f"qperfect.{name}"), "__all__", ())
        if export not in used
    ]
    assert not unused
