"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: the argv that ``quotmotives.cli.main``
receives, the exact check its output must pass, and for quiver series
the quiver that the worker writes to a file (``{quiver}`` in the argv is
replaced by that file's path).  The seed decides the inputs; the number
of jobs and the shape of the work (which (dim, rank) pairs, orders and
oracle tiers appear) are fixed per workload, so that runs with different
seeds cost about the same and their medians can be compared.

No job repeats within a pass, so a result cache shows only the gain a
real mixed batch gets; the job order is shuffled by the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
QUIVER_ARG = "{quiver}"

WORKLOADS = {
    "closed_forms":
        "Exp/Log and the power-structure cross-check over LaurentPoly: "
        "Quot series of effective and virtual classes, no RationalFn, no oracle",
    "partition_sums":
        "RationalFn partition sums and the ratio S(w)/S(0) on 1-2 vertex quivers, "
        "plus Heine's Exp over RationalFn",
    "oracle_grid":
        "brute-force enumeration kernel over F_q with one stretch case; "
        "trivial series cost",
}


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: dict
    quiver: dict | None = None
    id: str = field(default="", compare=False)

    @property
    def key(self) -> str:
        """Identity of the job's input, independent of where files live."""
        return json.dumps([list(self.argv), self.quiver], sort_keys=True)


# ---------------------------------------------------------------------------
# closed_forms
# ---------------------------------------------------------------------------

# (dim, rank, order): every (dim, rank) pair once per pass; heavier pairs
# run at lower orders so each job costs about the same.
QUOT_SLOTS = ((1, 1, 50), (1, 2, 44), (1, 3, 38), (1, 4, 34),
              (2, 1, 42), (2, 2, 36), (2, 3, 32), (2, 4, 30))
ZETA_ORDER = {1: 12, 2: 8}
PRODUCT_ORDER = {2: 36, 3: 30}


def _effective_class(rng) -> dict:
    return {0: rng.randint(1, 3), 1: rng.randint(1, 3), 2: rng.randint(1, 3)}


def _virtual_class(rng) -> dict:
    terms = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in (-1, 0, 1)}
    if all(c > 0 for c in terms.values()):
        terms[0] = -terms[0]
    return terms


def _space_arg(terms: dict) -> str:
    return json.dumps({"terms": [[e, str(c)] for e, c in sorted(terms.items())]})


def _closed_forms(rng) -> list:
    # Half the classes are effective: per dim, ranks {1, 4} or {2, 3}, so
    # the zeta checks that follow effective classes cost the same each seed.
    effective = {(dim, rank) for dim in (1, 2) for rank in rng.choice(((1, 4), (2, 3)))}
    jobs = []
    for dim, rank, order in QUOT_SLOTS:
        eff = (dim, rank) in effective
        terms = _effective_class(rng) if eff else _virtual_class(rng)
        space = _space_arg(terms)
        jobs.append(Job(
            ("series", "--target", "quot", "--space", space, "--dim", str(dim),
             "--rank", str(rank), "--order", str(order)),
            {"kind": "quot", "terms": sorted(terms.items()), "dim": dim,
             "rank": rank, "order": order, "effective": eff}))
        if eff:
            name = "zeta-curve" if dim == 1 else "zeta-surface"
            jobs.append(Job(
                ("verify", name, "--space", space, "--rank", str(rank),
                 "--q", str(rng.choice((2, 3))), "--order", str(ZETA_ORDER[dim])),
                {"kind": "verify", "name": name}))
    rank = rng.choice(sorted(PRODUCT_ORDER))
    jobs.append(Job(("verify", "product-vs-exp", "--rank", str(rank),
                     "--order", str(PRODUCT_ORDER[rank])),
                    {"kind": "verify", "name": "product-vs-exp"}))
    jobs.append(Job(("verify", "power-axioms", "--samples", "3", "--order", "6"),
                    {"kind": "verify", "name": "power-axioms"}))
    return jobs


# ---------------------------------------------------------------------------
# partition_sums
# ---------------------------------------------------------------------------

# Partition-sum cost depends on the number of arrows, and a zero framing
# entry or a repeated loop changes it by 25-100%; so each two-vertex slot
# fixes its arrow count and draws distinct arrows and framings in 1..2.
TWO_VERTEX_ARROWS = ((0, 0), (0, 1), (1, 0), (1, 1))
TWO_VERTEX_SLOTS = (2, 3)  # arrows per two-vertex quiver
TWO_VERTEX_ORDER = 5
JORDAN_ORDER = 8
TWO_LOOP_ORDER = 6
CLASS1_ORDER = 7
HEINE_ORDER = 16


def _nakajima_pair(quiver: dict, framing: tuple, order: int, equals=None) -> list:
    """The smooth series and the nilpotent one, whose check uses the smooth."""
    argv = ("series", "--target", "nakajima-general", "--quiver", QUIVER_ARG,
            "--framing", ",".join(map(str, framing)), "--order", str(order))
    check = {"kind": "nakajima", "quiver": quiver, "framing": list(framing),
             "order": order}
    if equals is not None:
        check["equals"] = equals
    smooth = Job(argv, check, quiver)
    nilpotent = Job(argv + ("--nilpotent",),
                    {"kind": "nilpotent", "quiver": quiver,
                     "framing": list(framing), "smooth": smooth.key}, quiver)
    return [smooth, nilpotent]


def _partition_sums(rng) -> list:
    jobs = []
    r = rng.randint(1, 2)
    closed = Job(("series", "--target", "nakajima-M", "--rank", str(r),
                  "--order", str(JORDAN_ORDER)),
                 {"kind": "framed", "rank": r, "order": JORDAN_ORDER})
    jobs.append(closed)
    jobs += _nakajima_pair({"vertices": 1, "arrows": [[0, 0]]}, (r,),
                           JORDAN_ORDER, equals=closed.key)
    jobs += _nakajima_pair({"vertices": 1, "arrows": [[0, 0], [0, 0]]},
                           (rng.randint(1, 2),), TWO_LOOP_ORDER)
    for n_arrows in TWO_VERTEX_SLOTS:
        arrows = sorted(rng.sample(TWO_VERTEX_ARROWS, n_arrows))
        framing = (rng.randint(1, 2), rng.randint(1, 2))
        jobs += _nakajima_pair({"vertices": 2, "arrows": [list(a) for a in arrows]},
                               framing, TWO_VERTEX_ORDER)
    jobs.append(Job(("verify", "class1-vs-closed", "--rank", str(rng.randint(1, 2)),
                     "--order", str(CLASS1_ORDER)),
                    {"kind": "verify", "name": "class1-vs-closed"}))
    jobs.append(Job(("verify", "heine", "--order", str(HEINE_ORDER)),
                    {"kind": "verify", "name": "heine"}))
    return jobs


# ---------------------------------------------------------------------------
# oracle_grid
# ---------------------------------------------------------------------------

# Work units of a brute-force count: every matrix tuple is visited once,
# and every candidate tuple (nilpotent ones for punctual counts) tries all
# q^(n r) framings.  The pure-Python kernel runs 1-25 us per unit; the cap
# keeps any admitted case under about 4 s there.  It rejects, for example,
# (n, r, q, d) = (3, 1, 3, 2) punctual, which runs for minutes.
ORACLE_CAP = 150_000
STRETCH_CASE = (4, 1, 2, 1, True)
SMALL_TIERS = ((2, 2_000, 6), (2_000, 10_000, 3))  # (above, up to, draws)


class BudgetExceeded(ValueError):
    """An oracle case whose estimated search exceeds :data:`ORACLE_CAP`."""


def oracle_work(n: int, r: int, q: int, d: int, punctual: bool) -> int:
    tuples = q ** (n * n * d)
    candidates = q ** ((n * n - n) * d) if punctual else tuples
    return tuples + candidates * q ** (n * r)


def admit(case: tuple) -> tuple:
    """Return the case, or raise before it runs if it is over the budget."""
    work = oracle_work(*case)
    if work > ORACLE_CAP:
        raise BudgetExceeded(f"oracle case {case} needs ~{work} work units "
                             f"(cap {ORACLE_CAP})")
    return case


def oracle_pool() -> list:
    """Every case with n = 2..4 and r <= 3 that the CLI's limits accept."""
    cases = []
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            for q in (2, 3, 5):
                for d in (1, 2):
                    if d == 2 and n > 3:
                        continue
                    for punctual in (True, False):
                        cases.append((n, r, q, d, punctual))
    return cases


def _oracle_job(case: tuple) -> Job:
    n, r, q, d, punctual = admit(case)
    argv = ("oracle", "--n", str(n), "--rank", str(r), "--q", str(q),
            "--dim", str(d)) + (("--punctual",) if punctual else ())
    return Job(argv, {"kind": "oracle", "case": list(case)})


def _oracle_grid(rng) -> list:
    pool = oracle_pool()
    jobs = [_oracle_job(STRETCH_CASE)]
    for above, upto, draws in SMALL_TIERS:
        tier = [c for c in pool if above < oracle_work(*c) <= upto]
        jobs += [_oracle_job(c) for c in rng.sample(tier, draws)]
    return jobs


_GENERATORS = {"closed_forms": _closed_forms, "partition_sums": _partition_sums,
               "oracle_grid": _oracle_grid}


def generate(workload: str, seed: int) -> list:
    """The workload's job list for one pass, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    keys = [j.key for j in jobs]
    if len(set(keys)) != len(keys):
        raise AssertionError(f"{workload} seed {seed} repeats a job")
    ids = {j.key: f"j{i:02d}" for i, j in enumerate(jobs)}
    out = []
    for job in jobs:
        check = dict(job.check)
        for ref in ("smooth", "equals"):
            if ref in check:
                check[ref] = ids[check[ref]]
        out.append(Job(job.argv, check, job.quiver, ids[job.key]))
    return out
