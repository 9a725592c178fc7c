"""Acceptance gate: every counting formula, recurrence and bijection of
the package verified end-to-end with exact arithmetic at desk scale.

The identities are the checks of the registry ``unimaps.checks.CHECKS``,
which ``unimaps verify`` runs too; each criterion calls them at its own
bounds and adds only what tests the generators or the checks themselves.
Each test prints one PASS/FAIL line (visible with ``pytest -s`` or
``-v``); every comparison is exact integer or rational equality."""

import sys
from collections import Counter
from math import factorial

import pytest
from labelled_oracle import gen_tree_rooted_maps

from unimaps.checks import CHECKS, _invalid
from unimaps.enumeration import (
    gen_rooted_orientable_maps,
    gen_unicellular,
    planar_census,
    spanning_tree_count,
    vertex_profile,
)
from unimaps.formulas import (
    double_factorial,
    ledoux_check,
    t_formula,
    u_formula,
    u_hat_formula,
)
from unimaps.planar_closure import closure_gamma, opening_delta
from unimaps.series import check_algebraic_P, check_qfd, p_series


def report(criterion: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {label}",
          file=sys.stderr)
    assert ok, f"criterion {criterion}: {label}"


def passes(bound: int, *names: str) -> bool:
    """Whether the named registry checks all pass at ``bound``, each
    having examined some instances and reached ``bound``; prints the
    verdict of each one that fails."""
    ok = True
    for name in names:
        counterexample, instances, reach = CHECKS[name].run(bound,
                                                            planar_census)
        if counterexample is not None or instances < 1 or reach != bound:
            print(f"{name} at bound {bound}: {counterexample}, "
                  f"{instances} {CHECKS[name].unit} to {reach}",
                  file=sys.stderr)
            ok = False
    return ok


@pytest.fixture(scope="module")
def census5():
    return planar_census(5)


def test_criterion_01_gluing_totals():
    ok = True
    for n in range(1, 7):
        orientable = sum(1 for _ in gen_unicellular(n, True))
        total = sum(1 for _ in gen_unicellular(n))
        ok &= orientable == double_factorial(2 * n - 1)
        ok &= total == 2 ** n * double_factorial(2 * n - 1)
    report(1, "gluing totals (2n-1)!! and 2^n(2n-1)!! for n <= 6", ok)


def test_criterion_02_t_formula():
    ok = passes(5, "t-formula")
    ok &= all(sum(1 for _ in gen_tree_rooted_maps(n, q)) == t_formula(n, q)
              for n in range(1, 6) for q in range(1, n + 2))
    for n in range(1, 6):
        trees = Counter()
        for m in gen_rooted_orientable_maps(n):
            trees[len(m.vertices())] += spanning_tree_count(m)
        ok &= all(factorial(q) * trees[q] == t_formula(n, q)
                  for q in range(1, n + 2))
    report(2, "orientable colored counts match surjection sums, "
           "tree-rooted enumeration and the matrix-tree count for n <= 5",
           ok)


def test_criterion_03_hz_identity_and_recurrence():
    report(3, "some-colors identity and three-term recurrence on "
           "orientable tables for n <= 14", passes(14, "t-formula", "hz"))


def test_criterion_04_jackson():
    report(4, "bipartite colored counts over the transfer's bipartite "
           "table match the multinomial formula for n <= 12, all (p, q)",
           passes(12, "jackson"))


def test_criterion_05_u_formula(census5):
    ok = passes(4, "u-formula", "u-series")
    ok &= u_formula(1, 1, census5) == 2
    ok &= u_formula(2, 1, census5) == 12
    report(5, "general-surface colored counts match the planar-census "
           "formula and the series U for n <= 4; U_1(1)=2, U_2(1)=12", ok)


def test_criterion_06_u_hat():
    ok = passes(12, "u-hat") and u_hat_formula(1, 2) == 6
    report(6, "some-colors closed form matches the binomial sum for "
           "n <= 12, N <= n + 2; u_hat(1,2)=6", ok)


def test_criterion_07_ledoux():
    report(7, "four-term recurrence on general-surface tables for "
           "2 <= n <= 14", passes(14, "ledoux"))


def test_criterion_08_phi_bijection_and_star(phi_images4):
    ok = passes(4, "phi-roundtrip")
    # injective on every coloring: as many distinct images as the closed
    # formula counts
    for n in range(1, 5):
        keys = {t.canonical_key() for u, t in phi_images4 if u.gluing.n == n}
        ok &= len(keys) == sum(t_formula(n, q) for q in range(1, n + 2))
    report(8, "orientable bijection verified both ways with the edge "
           "color-pair property on one coloring per color orbit, and "
           "injective on every coloring, for n <= 4", ok)


def test_criterion_09_closure_opening(plane_maps5):
    # the registry check walks the trees only and counts the plane maps
    # against the census; the plane maps are walked here as well (the
    # session's revalidated plane maps with at most 5 edges)
    ok = passes(5, "gamma-roundtrip")
    for p in plane_maps5:
        t = opening_delta(p)
        ok &= _invalid(t) is None and closure_gamma(t) == p
    report(9, "closure/opening inverse on trees to 10 slots, with the "
           "dual-distance orientation; closure onto the plane maps to 5 "
           "edges by a count of its images against the planar census; "
           "and opening/closure inverse on every plane map to 5 edges", ok)


def test_criterion_10_psi_fibers():
    report(10, "general-surface fibers have 2^w externally-labelled "
           "elements with the degree property on one coloring per color "
           "orbit, and the fibers by (q, w) match the terms of U_n(q), "
           "for n <= 3", passes(3, "psi-fibers"))


def test_criterion_11_quartic(census5):
    bad_census = Counter(census5)
    bad_census[(2, 2)] += 1
    bad, _ = check_algebraic_P(p_series(bad_census, 7))
    report(11, "quartic residual zero through degree 12 and census "
           "perturbation detected", passes(12, "algebraic-P") and bad is not None)


def test_criterion_12_series_pipeline():
    # the PDE residual of Q at t-degree 8 is trusted through degree 6, and
    # A(x, y) of P at degree 12 through degree 10
    ok = passes(10, "q-pde", "a-combination") & passes(8, "rec-hP", "qfd")
    eta = vertex_profile(8)
    for n in range(9):
        by_recurrence = all(ledoux_check(eta, m, v) is None
                            for m in range(2, n + 1)
                            for v in range(1, m + 2))
        ok &= (check_qfd(eta, n)[0] is None) == by_recurrence
    report(12, "PDE, coefficient recurrence, differential combination "
           "and five-term recurrence all vanish; verdicts agree with "
           "the four-term recurrence for n <= 8", ok)


def test_criterion_13_planar_totals():
    report(13, "planar census totals match the closed form for e <= 12",
           passes(12, "planar-totals"))
