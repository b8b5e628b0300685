"""Rules on the package source itself."""

import ast
from pathlib import Path

import wienerseq


def test_no_assert_statements():
    # Invariants must raise real exceptions: python -O strips asserts.
    found = []
    for path in sorted(Path(wienerseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements in the package: %s" % ", ".join(found)
