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
    euler_path = {"exp_pleth", "log_pleth", "power_structure", "_exp_exact", "_monomials"}
    product_forms = {"euler_product", "jordan_product_series", "exp_pleth_product"}
    named = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in product_forms:
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                named[node.name] = sorted(names & euler_path)
    assert named == dict.fromkeys(product_forms, [])


def test_log_names_no_exp_only_helper():
    # the Quot self-check compares Exp(x Log P) with the closed Exp; it
    # checks the Exp only while Log shares neither the monomials of E f
    # nor the running sums nor the runs with it.  Log's division E g / g
    # runs on the shared layer loop, which must not reach them either
    exp_only = {"exp_pleth", "_exp_exact", "_monomials", "_RUNNING_TERMS", "_runs", "_RUN"}
    log_side = {"log_pleth", "_euler_quotient", "_layer_loop", "_shifted_sum"}
    path = SOURCES[0].parent / "plethystic.py"
    named = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.FunctionDef) and node.name in log_side:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            named[node.name] = sorted(names & exp_only)
    assert named == dict.fromkeys(log_side, [])


def test_no_package_module_names_qseries():
    # classes use one integer-only coefficient ring, LaurentPoly; the quiver
    # ratio divides on it modulo q^N, so a QSeries name in any module would
    # start a second coefficient-ring branch
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Name) and node.id == "QSeries"
             or isinstance(node, ast.Attribute) and node.attr == "QSeries"
             or isinstance(node, ast.alias) and "QSeries" in (node.name, node.asname)
             or isinstance(node, ast.ClassDef) and node.name == "QSeries"]
    assert SOURCES and not found, f"QSeries named at {found}"


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


# The stdlib modules the package imports when the CLI loads.  The records
# Quiver and CheckReport are namedtuples (collections, which functools
# loads anyway): dataclasses would also load inspect, ast and dis
CLI_STDLIB_IMPORTS = ("__future__", "argparse", "collections", "csv", "functools",
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
    # import, no rational-number module is loaded at all, random only by
    # verify_power_axioms, and dataclasses and inspect not at all
    added = _modules_added("import quotmotives.cli")
    assert [m for m in added if m.split(".")[0] == "quotmotives"] == ["quotmotives"] + [
        f"quotmotives.{name}" for name in ("cli", "oracle", "plethystic", "quiver", "quot",
                                           "report", "rings", "series", "specialize")]
    assert not {"fractions", "decimal", "numbers", "random", "dataclasses",
                "inspect"} & set(added)
    # every other module comes in through the listed stdlib imports, so a
    # new eager import (typing, decimal, inspect) fails here, on any
    # Python version
    stdlib = _modules_added("import " + ", ".join(CLI_STDLIB_IMPORTS))
    top_level = sorted({m.split(".")[0] for m in added} - {"quotmotives"})
    assert top_level == sorted({m.split(".")[0] for m in stdlib})


def _init_tree():
    init = SOURCES[0].parent / "__init__.py"
    return ast.parse(init.read_text(), str(init))


def _exported(tree) -> set:
    """The names listed in the ``__all__`` of the module ``tree``."""
    return set(ast.literal_eval(next(
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["__all__"])))


def test_public_api_imports_equal_all():
    # __init__ names each public symbol twice, in its imports and in
    # __all__; the two lists must stay the same set
    tree = _init_tree()
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == _exported(tree)


def _uses(node, owners=frozenset()):
    """(name, owners) for each name read under ``node``, a Name id or an
    attribute name, with the names of the defs and classes around it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners |= {node.name}
    if isinstance(node, ast.Name):
        yield node.id, owners
    elif isinstance(node, ast.Attribute):
        yield node.attr, owners
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, owners)


def test_every_public_name_is_used():
    # a public name serves the system only when a package path, an
    # acceptance criterion or the README's library sketch uses it, outside
    # its own def or class; anything else is surface that nothing runs
    root = SOURCES[0].parent.parent.parent
    readme = (root / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    users = [path for path in SOURCES if path.name != "__init__.py"]
    users.append(root / "tests" / "test_acceptance.py")
    trees = [ast.parse(path.read_text(), str(path)) for path in users] + [ast.parse(sketch)]
    used = {name for tree in trees for name, owners in _uses(tree) if name not in owners}
    unused = sorted(_exported(_init_tree()) - used)
    assert not unused, f"public names that nothing uses: {unused}"


def test_every_annotation_resolves():
    # the package imports some modules (random) only inside the function
    # that uses them, so no annotation may name one: typing.get_type_hints
    # would raise NameError on it
    import importlib
    import inspect
    import typing
    unresolved = []
    for path in SOURCES:
        module = importlib.import_module(f"quotmotives.{path.stem}")
        found = [f for f in vars(module).values() if inspect.isfunction(f)]
        for cls in (c for c in vars(module).values() if inspect.isclass(c)):
            found += [getattr(f, "__func__", f) for f in vars(cls).values()]
        for f in found:
            if inspect.isfunction(f) and f.__module__ == module.__name__:
                try:
                    typing.get_type_hints(f)
                except NameError as exc:
                    unresolved.append(f"{f.__qualname__}: {exc}")
    assert not unresolved


def test_unfiltered_constructor_stays_in_the_kernel_modules():
    # LaurentPoly._of_nonzero stores its dict without dropping zeros, so
    # only the arithmetic that keeps that invariant may call it: quiver,
    # quot, cli and the rest go through the filtering LaurentPoly(...)
    allowed = {"rings.py", "plethystic.py"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name not in allowed
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_of_nonzero"
             or isinstance(node, ast.Name) and node.id == "_of_nonzero"
             or isinstance(node, ast.alias) and "_of_nonzero" in (node.name, node.asname)]
    assert not found, f"LaurentPoly._of_nonzero used outside rings and plethystic: {found}"
