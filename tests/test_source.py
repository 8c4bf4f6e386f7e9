import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "morsepow"


def test_no_assert_in_src():
    # python -O strips assert statements, so src checks must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and not found, found
