"""Command-line driver: series computation, identity verification, oracle
comparison, and count tables, with machine-readable output.

Exit codes: 0 = success / all checks pass, 1 = verification mismatch,
2 = usage error, 3 = internal error (a failed self-check or an inexact
exact-arithmetic step, i.e. a bug rather than bad input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .rings import LaurentPoly, affine_class, projective_class
from .series import TruncatedSeries
from .quiver import Quiver, nakajima_motive_series, nilpotent_motive_series, verify_heine
from .plethystic import verify_power_axioms
from . import oracle, quot, specialize

SERIES_FORMAT = "quotmotives.series/1"
CSV_FORMAT = "quotmotives.csv/1"

NAMED_SPACES = {
    "point": LaurentPoly.one(),
    "A1": affine_class(1),
    "A2": affine_class(2),
    "P1": projective_class(1),
    "P2": projective_class(2),
}


def _parse_space(text: str) -> LaurentPoly:
    if text in NAMED_SPACES:
        return NAMED_SPACES[text]
    try:
        return LaurentPoly.from_json_obj(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise ValueError(
            f"unknown space {text!r}: use one of {sorted(NAMED_SPACES)} or a JSON "
            'object like {"terms": [[0, "1"], [1, "1"]]}')


def _emit_series(s: TruncatedSeries, out) -> None:
    """Write {"format": SERIES_FORMAT} | s.to_json_obj(), every coefficient
    as a LaurentPoly JSON object, in the text of ``json.dump(obj, out,
    indent=2)`` and a newline.  The text is joined directly: with
    ``indent`` set, json.dump runs its pure-Python encoder, several times
    slower on a large series."""
    # pk starts a new line at nesting depth k
    p1, p2, p3, p4, p5, p6 = ("\n" + "  " * k for k in range(1, 7))
    terms = []
    for m, c in s.coefficients():
        exps = f",{p4}".join(map(str, m))
        pairs = f",{p5}".join(f'[{p6}{e},{p6}"{a}"{p5}]'
                              for e, a in LaurentPoly._coerce(c).terms())
        coeff = f'{{{p4}"terms": [{p5}{pairs}{p4}]{p3}}}'
        terms.append(f"[{p3}[{p4}{exps}{p3}],{p3}{coeff}{p2}]")
    body = f"[{p2}" + f",{p2}".join(terms) + f"{p1}]" if terms else "[]"
    out.write(f'{{{p1}"format": "{SERIES_FORMAT}",{p1}"order": {s.order},'
              f'{p1}"arity": {s.arity},{p1}"terms": {body}\n}}\n')


def _quiver_series(args) -> TruncatedSeries:
    if not args.quiver or not args.framing:
        _parser().error("nakajima-general needs --quiver and --framing")
    with open(args.quiver) as fh:
        quiver = Quiver.from_json_obj(json.load(fh))
    entries = [e.strip() for e in args.framing.split(",")]
    for e in entries:
        # int() alone also takes "_", a "+" and leading zeros
        if not (e.removeprefix("-").isdecimal() and e == str(int(e))):
            raise ValueError(f"--framing entries must be integers, got {e!r}")
    w = tuple(map(int, entries))
    fn = nilpotent_motive_series if args.nilpotent else nakajima_motive_series
    return fn(quiver, w, args.order)


# The series targets and identities, in the order of the parser's choices.
# Each callable looks its function up when it runs, so a function patched
# on its module (by a test or a tracer) is the one called.
TARGETS = {
    "punctual": lambda a: quot.punctual_quot_series(a.rank, a.dim, a.order),
    "quot": lambda a: quot.quot_series(_parse_space(a.space), a.dim, a.rank, a.order),
    "nakajima-M": lambda a: quot.nakajima_framed_series(a.rank, a.order),
    "nakajima-L": lambda a: quot.punctual_quot_series(a.rank, 2, a.order),
    "nakajima-general": _quiver_series,
}

IDENTITIES = {
    "heine": lambda a: verify_heine(a.order),
    "product-vs-exp": lambda a: quot.verify_product_vs_exp(a.rank, a.order),
    "class1-vs-closed": lambda a: quot.verify_class1_closed(a.rank, a.order),
    "duality": lambda a: quot.verify_duality(a.rank, a.order),
    "zeta-curve": lambda a: specialize.verify_zeta_product(
        _parse_space(a.space), 1, a.rank, a.q, a.order),
    "zeta-surface": lambda a: specialize.verify_zeta_product(
        _parse_space(a.space), 2, a.rank, a.q, a.order),
    "power-axioms": lambda a: verify_power_axioms(samples=a.samples, order=a.order),
}


def _cmd_series(args) -> int:
    _emit_series(TARGETS[args.target](args), sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    report = IDENTITIES[args.identity](args)
    print(report)
    return 0 if report.passed else 1


def _formula_count(n: int, r: int, q: int, d: int, punctual: bool) -> int:
    if punctual:
        s = quot.punctual_quot_series(r, d, n)
    else:
        s = quot.quot_series(affine_class(d), d, r, n)
    return specialize.point_count_series(s, q)[n]


def _cmd_oracle(args) -> int:
    raw, count = oracle.orbit_count(args.n, args.rank, args.q, args.dim, args.punctual)
    g = oracle.gl_order(args.n, args.q)
    formula = _formula_count(args.n, args.rank, args.q, args.dim, args.punctual)
    ok = count == formula
    writer = csv.writer(sys.stdout)
    writer.writerow(["format", "n", "r", "q", "dim", "punctual",
                     "raw_stable_count", "gl_order", "count", "formula", "status"])
    writer.writerow([CSV_FORMAT, args.n, args.rank, args.q, args.dim,
                     int(args.punctual), raw, g, count, formula,
                     "pass" if ok else "FAIL"])
    return 0 if ok else 1


def _cmd_counts(args) -> int:
    specialize.require_prime_power(args.q)
    space = _parse_space(args.space)
    s = quot.quot_series(space, args.dim, args.rank, args.order)
    counts = specialize.point_count_series(s, args.q)
    writer = csv.writer(sys.stdout)
    writer.writerow(["format", "n", "count"])
    for n, c in enumerate(counts):
        writer.writerow([CSV_FORMAT, n, c])
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; parsing leaves
    it unchanged.  The first build in a process takes 3-5 ms, 1-2 ms of
    it gettext importing ``locale``; a later build takes about 1 ms."""
    parser = argparse.ArgumentParser(
        prog="quotmotives",
        description="Exact motive series of Quot schemes and quiver varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="emit a generating series as JSON")
    p.add_argument("--target", required=True, choices=list(TARGETS))
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--dim", type=int, default=2, choices=[1, 2])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--space", default="point",
                   help="named space (point, A1, A2, P1, P2) or JSON terms")
    p.add_argument("--quiver", help="path to a quiver JSON file "
                                    '({"vertices": k, "arrows": [[s, t], ...]})')
    p.add_argument("--framing", help="comma-separated framing vector, one entry "
                                     "per vertex")
    p.add_argument("--nilpotent", action="store_true",
                   help="emit the nilpotent (central-fiber) series instead")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="run an identity check")
    p.add_argument("identity", choices=list(IDENTITIES))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--space", default="P1")
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="compare an exact F_q point count with the formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, choices=[1, 2])
    p.add_argument("--punctual", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("counts", help="emit a point-count table as CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--dim", type=int, default=2, choices=[1, 2])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=_cmd_counts)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
