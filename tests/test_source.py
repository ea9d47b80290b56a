import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermaps"


def test_no_assert_statements_in_src():
    """Verification in the package raises real exceptions: an assert
    statement is stripped under python -O."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
