"""Guards on the library and script sources themselves."""

import ast
from collections import Counter
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



def test_library_raises_named_errors():
    # a failing check raises the RatsosError subclass that names it, so that
    # cli.run reports "<ErrorType>: <message>" and a caller can catch that type
    paths = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and "RatsosError" in {sub.id for sub in ast.walk(node.exc or ast.Pass()) if isinstance(sub, ast.Name)}
    ]
    assert found == []


# library definitions that no command, script or benchmark reaches, kept
# because tests build their expected values with them
TEST_REFERENCE_HELPERS = {
    "demo_kernel_cubics": "the paper's kernel cubics, expected by the boundary and CLI tests",
    "monomial": "the shifted monomials of the test-local Hilbert-function references",
    "evaluate": "Poly.evaluate, the exact oracle of the boundary and norm-form value tests",
}


def _mentions(tree, strings_only: bool = False) -> Counter:
    """How often ``tree`` names each identifier, by kind.

    ``attr`` counts attribute accesses and equal string constants (the
    benchmark looks functions up by name); ``name`` counts bare names and
    imports.  A method is named by the first kind, a function or class by
    either.  ``strings_only`` counts string constants alone.
    """
    counts = Counter()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            counts["attr", sub.value] += 1
        elif strings_only:
            continue
        elif isinstance(sub, ast.Attribute):
            counts["attr", sub.attr] += 1
        elif isinstance(sub, ast.Name):
            counts["name", sub.id] += 1
        elif isinstance(sub, ast.alias):
            counts["name", sub.name] += 1
    return counts


def test_every_library_definition_has_a_caller():
    # callers: the library (its __init__ re-exports aside), scripts/ and perfbench/, not tests;
    # perfbench/ reaches the library only through cli.run and its LAYERS names, so only its
    # string constants count (its own helpers, such as exact.evaluate, share library names)
    library = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    caller_paths = [path for path in library if path.name != "__init__.py"]
    caller_paths += sorted(SCRIPTS.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert ROOT / "perfbench" / "spans.py" in caller_paths
    mentions = Counter()
    for path in caller_paths:
        tree = library.get(path) or ast.parse(path.read_text())
        mentions += _mentions(tree, strings_only=path.parent.name == "perfbench")
    unnamed = []
    for tree in library.values():
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                    continue
                kinds = ("attr",) if isinstance(parent, ast.ClassDef) else ("attr", "name")
                own = _mentions(node)
                if not any(mentions[kind, node.name] > own[kind, node.name] for kind in kinds):
                    unnamed.append(node.name)
    assert sorted(TEST_REFERENCE_HELPERS) == sorted(set(unnamed) & set(TEST_REFERENCE_HELPERS))
    assert [name for name in unnamed if name not in TEST_REFERENCE_HELPERS] == []
