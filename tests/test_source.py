import ast
import os
import pathlib
import subprocess
import sys

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "quotmotives").glob("*.py"))


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements, so self-checks must raise explicitly
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"


def test_no_package_module_imports_fractions():
    # classes, series and point counts stay integer-only, so no rational
    # number is needed anywhere in the package
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"fractions imported by the package: {found}"


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


def test_no_package_module_imports_the_test_reference():
    # the brute-force reference lives in tests/, which pytest puts on
    # sys.path; a package import of it would pass the suite and fail for
    # every user of the installed package
    reference = {"brute_force", "_enum_py", "tests"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(reference & set(name.split(".")) for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"test reference imported by the package: {found}"


# The stdlib modules the package imports when the CLI loads: dropping one
# (as ROADMAP item 8 plans for dataclasses) shrinks this list
CLI_STDLIB_IMPORTS = ("__future__", "argparse", "csv", "dataclasses", "functools",
                      "itertools", "json", "math", "operator", "weakref")


def _modules_added(statement):
    """The modules that ``statement`` adds to those a fresh interpreter
    holds.  ``site`` may preload stdlib modules (random among them, through
    a .pth file), so the interpreter runs without it (-S)."""
    code = (f"import sys; bare = set(sys.modules); {statement}; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_cli_import_loads_a_fixed_set_of_package_modules():
    # the oracle kernel _classsum is loaded on the first count, not on
    # import, no rational-number module is loaded at all, and random only
    # by verify_power_axioms
    added = _modules_added("import quotmotives.cli")
    assert [m for m in added if m.split(".")[0] == "quotmotives"] == ["quotmotives"] + [
        f"quotmotives.{name}" for name in ("cli", "oracle", "plethystic", "quiver", "quot",
                                           "report", "rings", "series", "specialize")]
    assert not {"fractions", "decimal", "numbers", "random"} & set(added)
    # every other module comes in through the listed stdlib imports, so a
    # new eager import (typing, decimal, inspect once dataclasses is gone)
    # fails here, on any Python version
    stdlib = _modules_added("import " + ", ".join(CLI_STDLIB_IMPORTS))
    top_level = sorted({m.split(".")[0] for m in added} - {"quotmotives"})
    assert top_level == sorted({m.split(".")[0] for m in stdlib})


def test_public_api_imports_equal_all():
    # __init__ names each public symbol twice, in its imports and in
    # __all__; the two lists must stay the same set
    init = SOURCES[0].parent / "__init__.py"
    tree = ast.parse(init.read_text(), str(init))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    exported = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    assert imported == set(ast.literal_eval(exported))
