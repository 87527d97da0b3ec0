"""The README's library sketch runs and shows what it computes."""

import pathlib
import re

from quotmotives.rings import LaurentPoly

README = pathlib.Path(__file__).parent.parent / "README.md"
L = LaurentPoly.lefschetz()

# each result the sketch shows in a comment, by value
SHOWN = {
    "s.coefficient(1)": L + L ** 2,
    "m.coefficient(2)": L ** 4 + L ** 3,
    "orbit_count(2, 1, 2, 2, True)": (18, 3),
}


def _library_sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_and_shows_its_results():
    code = _library_sketch()
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # an expression line ending in "  # <value>" shows that value
    comments = {}
    for line in code.splitlines():
        expr, sep, comment = line.partition("  # ")
        if sep and expr.strip() and not expr.lstrip().startswith("#"):
            comments[expr.strip()] = comment
    assert comments.keys() == SHOWN.keys()
    for expr, value in SHOWN.items():
        got = eval(expr, namespace)
        assert got == value, expr
        assert str(got) == comments[expr], expr
