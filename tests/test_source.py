"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import wienerseq

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_no_assert_statements():
    # Invariants must raise real exceptions: python -O strips asserts.
    found = []
    for path in sorted(Path(wienerseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements in the package: %s" % ", ".join(found)


def test_tracer_patches_resolve():
    # The benchmark's tracer replaces these module attributes to time each
    # layer; a name a module no longer has breaks every traced run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        "wienerseq.%s.%s" % (module, attr)
        for module, attr, _ in spans.PATCHES
        if not callable(getattr(importlib.import_module("wienerseq." + module), attr, None))
    ]
    assert spans.PATCHES
    assert not missing, "tracer patches missing: %s" % ", ".join(missing)


def test_benchmark_self_tests_pass():
    # The benchmark pins enumeration counts (labelings of _all_graphs(5),
    # class sizes); an enumeration change that breaks them fails here.
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_package_exports_match_imports():
    # A name imported into the package but missing from __all__ (or listed
    # there but never imported) is an export that drifted out of sync.
    path = Path(wienerseq.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(wienerseq.__all__) - {"__version__"}


def _names_read(tree: ast.AST) -> set[str]:
    # Names loaded anywhere in the tree, also inside quoted annotations.
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    read |= _names_read(ast.parse(sub.value, mode="eval"))
    return read


def test_no_unused_imports():
    # Every name a module imports is read there, so a tracer seam cannot be
    # kept alive by an import that nothing calls.  __init__.py imports to
    # export, which test_package_exports_match_imports checks.
    unused = []
    for path in sorted(Path(wienerseq.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append("%s: %s" % (path.name, name))
    assert not unused, "imported but never read: %s" % ", ".join(unused)
