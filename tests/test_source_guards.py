"""Guards on the library and script sources themselves."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ratsos"
SCRIPTS = ROOT / "scripts"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them any result check written as one
    # (in scripts/, the catalog builder's class counts and table rows)
    paths = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert SCRIPTS / "build_catalogs.py" in paths
    assert found == []
