"""Rules on the package source itself, and one on the tests."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import wienerseq
from wienerseq import enumeration

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


def test_tests_do_not_clear_shared_caches():
    # Clearing a growth cache drops levels that later tests read, and they
    # rebuild them; a test that needs a fresh growth patches in its own cache.
    found = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cache_clear"
            ):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "cache_clear calls in the tests: %s" % ", ".join(found)


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


def _caught(handler: ast.ExceptHandler, module) -> list[type]:
    # The exception classes an except clause names, looked up in the module.
    if handler.type is None:
        return [BaseException]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [eval(compile(ast.Expression(node), "<except>", "eval"), vars(module))
            for node in nodes]


def test_cli_maps_value_errors_to_exit_codes_in_main_alone():
    # main turns a ValueError into exit 2 and an input error into exit 3.
    # Elsewhere in cli.py a clause that catches a ValueError exists only to
    # make it an input error, so it raises InputError and nothing else.
    from wienerseq import cli

    path = Path(cli.__file__)
    handlers = [
        node
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if not (isinstance(top, ast.FunctionDef) and top.name == "main")
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler)
    ]
    wrong = []
    for handler in handlers:
        if not any(issubclass(ValueError, c) or issubclass(c, ValueError)
                   for c in _caught(handler, cli)):
            continue
        raised = [sub.exc for sub in ast.walk(handler) if isinstance(sub, ast.Raise)]
        if not raised or not all(
            isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "InputError"
            for exc in raised
        ):
            wrong.append(handler.lineno)
    assert not wrong, "cli.py: no InputError raised at lines %s" % sorted(wrong)


# The cap each "Verified orders" row of the README runs up to, in the
# table's order, which is also the order of its reproduce loops.
README_ROW_CAPS = (
    "CONNECTED_MAX_N",  # (i) order_size
    "CONNECTED_MAX_N",  # (ii) connectivity
    "APOLLONIAN_MAX_N",  # (iii) Apollonian networks
    "K_TREE_MAX_N",  # (iii) 2-trees
    "ODD_TREE_MAX_N",  # (iv) odd trees
    "K_TREE_MAX_N",  # trees and 3-trees
    "MAX_K_DEGENERATE_MAX_N",  # maximal k-degenerate graphs
    "MAXIMAL_PLANAR_MAX_N",  # maximal planar graphs
    "CONNECTED_MAX_N",  # the deletion bound
)


def test_readme_orders_match_the_caps():
    # A raised order cap must raise the README's table and its commands too.
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Verified orders"):]
    rows = re.findall(r"^\| [^|]+ \|[^|]+\| ([^|]+) \|", section, re.M)[1:]
    loops = re.findall(r"^for (?:.*? )?n in (.*?);", section, re.M)
    caps = [getattr(enumeration, name) for name in README_ROW_CAPS]
    assert len(rows) == len(loops) == len(caps)
    for orders, loop, cap in zip(rows, loops, caps):
        assert int(re.findall(r"\d+", orders)[-1]) == cap, orders
        assert int(re.findall(r"\d+", loop)[-1]) == cap, loop
