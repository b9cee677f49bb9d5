"""Every exported name resolves, so a stale export fails here rather than at
`from qperfect.<module> import *`, and so does every name the benchmark's
tracer wraps or its workloads read, and every constant the README names.
Every exported name also has a caller outside the tests, and the README's
library example runs."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import qperfect
from qperfect.affine import Series, shear_swap_perm
from qperfect.codes import build_code
from qperfect.hamming import build_hamming_pair
from qperfect.linalg import FieldContext
from qperfect.verify import translation_certificate

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


def benchmark_reads():
    """Every (module, name) that perfbench/*.py reads off the program: the
    attribute chains qp.<module>.<name>, names read through a local alias of
    qp.<module> (workloads.py's `codes, affine = self.qp.codes, ...`), and
    `from qperfect.<module> import <name>`."""

    def module_of(node):  # the <module> of an expression qp.<module> or x.qp.<module>, or None
        qp = getattr(node, "value", None)
        if isinstance(node, ast.Attribute) and (getattr(qp, "id", None) == "qp" or getattr(qp, "attr", None) == "qp"):
            return node.attr if node.attr in MODULES else None

    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                pairs = [(node.targets[0], node.value)]
                if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(node.targets[0].elts, node.value.elts)
                aliases.update({t.id: module_of(v) for t, v in pairs if isinstance(t, ast.Name) and module_of(v)})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qperfect."):
                read |= {(node.module.removeprefix("qperfect."), alias.name) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = module_of(node.value) or aliases.get(getattr(node.value, "id", None))
                if owner:
                    read.add((owner, node.attr))
    return read


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracing.py getattrs these names on the modules when a traced
    # run installs it, and the workloads read the rest; a rename in src/
    # would fail there, mid-benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up here
    spec.loader.exec_module(tracing)
    wanted = list(tracing.WRAPPED) + [("codes", "codeword_blocks"), ("cli", "main"), ("affine", "PermTable")]
    read = benchmark_reads()
    assert {("affine", "series_group"), ("affine", "shear_group"), ("codes", "build_code"), ("linalg", "FieldContext")} <= read
    wanted += sorted(read)
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


def test_readme_library_snippet_runs(capsys):
    # the python block under "## Library" prints the shear's distension and
    # a passing perfect report
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    distension, report = capsys.readouterr().out.splitlines()
    assert distension == "2"
    decoded = json.loads(report)
    assert decoded["check"] == "perfect" and decoded["result"] == "pass"


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


def arrays_in(obj, path):
    """(path, array) for every ndarray in obj: itself, the items of a tuple
    or list, and, for a dataclass, every field and every cached_property,
    which reading here builds, walked in turn."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from arrays_in(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        names = [field.name for field in dataclasses.fields(obj)]
        names += [name for name, attr in vars(type(obj)).items() if isinstance(attr, cached_property)]
        for name in names:
            yield from arrays_in(getattr(obj, name), f"{path}.{name}")


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2)])
def test_every_shared_table_is_read_only(q, r):
    # A record's tables are shared by every reader of the record, and its
    # cached tables are derived from its fields, so a write to any of them
    # would leave the others stale or a validated table unvalidated.  The
    # walk covers the kit, a PermTable, a RegularSubgroup with its
    # generating set, a Series with both of its tables, a CodeHandle with
    # every cached table, and a translation certificate (identity-glued
    # codes only, so at q = 2).  RankBasis is the one record left out: each
    # rank_basis call returns a fresh one that nothing shares.  So is
    # PermTable.preimages, a plain property that builds a fresh table.
    ctx = FieldContext(q)
    hp = build_hamming_pair(ctx, r)
    series = Series(ctx, r, 1 if q > 2 else 0)  # the shear needs q >= 3
    records = {
        "kit": hp,
        "perm": series.perm,
        "group": series.group,
        "series": series,
        "code": build_code(hp, series.perm),
    }
    if q == 2:
        records["certificate"] = translation_certificate(records["code"])
    found = [item for name, record in records.items() for item in arrays_in(record, name)]
    assert len(found) >= 20
    assert [path for path, array in found if array.flags.writeable] == []
