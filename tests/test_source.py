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


def test_product_forms_name_no_euler_path_function():
    # product-vs-exp and the two-path Exp check compare the product form
    # with exp_pleth; they are independent checks only while the product
    # side shares no formula with the Euler path
    euler_path = {"exp_pleth", "log_pleth", "power_structure", "_adams_sum"}
    product_forms = {"euler_product", "jordan_product_series", "exp_pleth_product"}
    named = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in product_forms:
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                named[node.name] = sorted(names & euler_path)
    assert named == dict.fromkeys(product_forms, [])
