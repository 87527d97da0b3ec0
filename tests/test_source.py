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
