import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "quotmotives").glob("*.py"))


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements, so self-checks must raise explicitly
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"


def test_only_rings_imports_fractions():
    # classes and series stay integer-only; Fraction is left only to
    # LaurentPoly.evaluate, which evaluates at a rational point
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names and path.name != "rings.py":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"fractions imported outside rings.py: {found}"
