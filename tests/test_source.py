"""Properties of the library source itself, checked by parsing it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superext"


def test_no_assert_in_library_code():
    # `python -O` strips assert statements: an internal check must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")), SRC
    assert found == []
