"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import wienerseq

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
