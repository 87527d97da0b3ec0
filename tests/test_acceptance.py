"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  All equalities are exact (zero tolerance); the
only numeric bounds are the per-criterion runtime budgets.

Run with `pytest tests/test_acceptance.py -v`.
"""

import time
from contextlib import contextmanager

import classical
from quotmotives.rings import LaurentPoly, affine_class, projective_class
from quotmotives.series import TruncatedSeries, geometric_series
from quotmotives.plethystic import verify_power_axioms
from quotmotives.quiver import verify_heine
from quotmotives.quot import (nakajima_framed_series, punctual_quot_series,
                              quot_series, verify_class1_closed, verify_duality,
                              verify_product_vs_exp)
from quotmotives.specialize import point_count_series, verify_zeta_product
from quotmotives.oracle import active_backend, orbit_count


@contextmanager
def criterion(capsys, number, label, budget_s):
    outcome = {"passed": False}
    start = time.perf_counter()
    try:
        yield outcome
        outcome["passed"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if outcome["passed"] and elapsed < budget_s else "FAIL"
        with capsys.disabled():
            print(f"criterion {number:2d} [{status}] {label}: "
                  f"{elapsed:.2f} s (budget {budget_s:g} s)")
        assert elapsed < budget_s, f"runtime {elapsed:.2f} s over budget {budget_s} s"


def test_criterion_01_heine(capsys):
    with criterion(capsys, 1, "Heine / q-binomial identity, order 12", 1.0):
        report = verify_heine(12)
        assert report.passed, report.detail


def test_criterion_02_product_vs_exp(capsys):
    with criterion(capsys, 2, "double product vs Exp form, r <= 3, order 8", 5.0):
        for r in (1, 2, 3):
            report = verify_product_vs_exp(r, 8)
            assert report.passed, report.detail


def test_criterion_03_partition_sum_vs_closed(capsys):
    with criterion(capsys, 3, "partition-sum series vs closed form, order 5", 60.0):
        for r in (1, 2):
            report = verify_class1_closed(r, 5)
            assert report.passed, report.detail


def test_criterion_04_duality(capsys):
    with criterion(capsys, 4, "nilpotent/smooth duality, r <= 3, n <= 5", 5.0):
        for r in (1, 2, 3):
            report = verify_duality(r, 5)
            assert report.passed, report.detail


def test_criterion_05_power_axioms(capsys):
    with criterion(capsys, 5, "power-structure axiom suite, 50 inputs, order 8", 30.0):
        report = verify_power_axioms(samples=50, order=8)
        assert report.passed, report.detail


PUNCTUAL_GRID = (
    [(n, r, 1, q) for n in (0, 1, 2, 3) for r in (1, 2) for q in (2, 3)]
    + [(n, r, 2, q) for n in (0, 1, 2) for r in (1, 2) for q in (2, 3)]
    + [(4, 1, 1, 2), (3, 1, 2, 2)]  # stretch cases
    + [(3, r, 2, 3) for r in (1, 2)]  # surfaces at q = 3
)


def test_criterion_06_oracle_punctual(capsys):
    label = f"punctual oracle grid ({active_backend()} kernel)"
    with criterion(capsys, 6, label, 600.0):
        for n, r, d, q in PUNCTUAL_GRID:
            series = punctual_quot_series(r, d, n)
            expected = point_count_series(series, q)[n]
            got = orbit_count(n, r, q, d, True)[1]
            assert got == expected, (n, r, d, q, got, expected)


GLOBAL_GRID = (
    [(n, r, 1, 2) for n in (0, 1, 2, 3) for r in (1, 2)]
    + [(n, r, 2, 2) for n in (0, 1, 2, 3) for r in (1, 2)]
)


def test_criterion_07_oracle_global(capsys):
    label = f"global affine oracle grid ({active_backend()} kernel)"
    with criterion(capsys, 7, label, 600.0):
        for n, r, d, q in GLOBAL_GRID:
            series = quot_series(affine_class(d), d, r, n)
            expected = point_count_series(series, q)[n]
            got = orbit_count(n, r, q, d, False)[1]
            assert got == expected, (n, r, d, q, got, expected)


def test_criterion_08_zeta_products(capsys):
    with criterion(capsys, 8, "zeta-function product identities", 10.0):
        for x in (projective_class(1), affine_class(1)):
            for r in (1, 2):
                for q in (2, 3):
                    report = verify_zeta_product(x, 1, r, q, 6)
                    assert report.passed, report.detail
        for x in (projective_class(2), affine_class(2)):
            for r in (1, 2):
                report = verify_zeta_product(x, 2, r, 2, 4)
                assert report.passed, report.detail


def test_criterion_09_gottsche_specialization(capsys):
    with criterion(capsys, 9, "rank-1 surface series vs weighted product", 1.0):
        series = quot_series(affine_class(2), 2, 1, 5)
        product = TruncatedSeries.constant(1, 5)
        for j in range(1, 6):
            geo = geometric_series(LaurentPoly.lefschetz(j + 1), 5)
            product = product * geo.substitute_power(j)
        assert series == product


def test_criterion_10_affine_plane_vs_framed(capsys):
    with criterion(capsys, 10, "affine-plane Quot series vs framed series", 1.0):
        plane = affine_class(2)
        assert quot_series(plane, 2, 1, 6) == nakajima_framed_series(1, 6)
        lhs, rhs = quot_series(plane, 2, 2, 6), nakajima_framed_series(2, 6)
        assert lhs.first_difference(rhs) == (1,)
        assert lhs.coefficient(1) == LaurentPoly({2: 1, 3: 1})
        assert rhs.coefficient(1) == LaurentPoly({3: 1, 4: 1})


def test_criterion_11_type_a_geometry(capsys):
    label = "type-A quiver varieties from their geometry (flags, Euler characteristics)"
    with criterion(capsys, 11, label, 30.0):
        for m, n in classical.FLAG_SIZES:
            for reverse in (False, True):
                classical.check_flag_variety(m, n, reverse)
        for n, w, reverse in classical.EULER_CASES:
            classical.check_euler_characteristics(n, w, reverse)


def test_criterion_12_commuting_pairs(capsys):
    label = (f"commuting-pair counts of the oracle's class list "
             f"({active_backend()} kernel)")
    with criterion(capsys, 12, label, 60.0):
        for n, q in classical.FEIT_FINE_CASES:
            classical.check_feit_fine(n, q)
        for n, q in classical.NILPOTENT_PAIR_CASES + [(4, 2)]:
            classical.check_nilpotent_pairs(n, q)
