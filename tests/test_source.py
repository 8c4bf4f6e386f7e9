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


def test_no_unused_import_in_src():
    # a name imported into a module and never read there is dead; the
    # package __init__ imports names only to re-export them, and the
    # __future__ import of annotations is a compiler directive
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name != "annotations"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{n} {name}" for name, n in imported.items() if name not in used]
    assert not found, found
