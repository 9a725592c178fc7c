from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracle import binomial
from unimaps import series
from unimaps.checks import CHECKS
from unimaps.enumeration import planar_census, surjection_count, vertex_profile
from unimaps.formulas import ledoux_check, u_formula
from unimaps.series import (
    TruncatedBivariateSeries,
    a_combination,
    check_a_combination,
    check_algebraic_P,
    check_q_pde,
    check_qfd,
    check_rec_hp,
    p_series,
    poly,
    q_from_p,
    rec_hp_residual,
    u_from_q,
)


def delta_t(f: TruncatedBivariateSeries) -> TruncatedBivariateSeries:
    """Operator ``t d/dt``: multiplies the ``t^i w^j`` coefficient by i."""
    return TruncatedBivariateSeries(
        {(i, j): i * c for (i, j), c in f.coeffs.items()},
        f.degree, f.weights)


def delta_w(f: TruncatedBivariateSeries) -> TruncatedBivariateSeries:
    """Operator ``w d/dw ((1 + w) . )``: sends the coefficient table
    ``F[i, j]`` to ``j (F[i, j] + F[i, j-1])``."""
    out = {}
    for (i, j), c in f.coeffs.items():
        for k in (j, j + 1):
            if k:
                out[(i, k)] = out.get((i, k), Fraction(0)) + k * c
    return TruncatedBivariateSeries(out, f.degree, f.weights)


def apply_operator_polynomial(op_poly, f):
    """Apply ``sum c_(a,b) Delta_t^a Delta_w^b`` (the operators commute)
    to a series; ``op_poly`` maps ``(a, b)`` to a coefficient."""
    total = TruncatedBivariateSeries({}, f.degree, f.weights)
    for (a, b), c in sorted(op_poly.items()):
        g = f
        for _ in range(a):
            g = delta_t(g)
        for _ in range(b):
            g = delta_w(g)
        total = total + g.scale(c)
    return total


def truncated(f, degree):
    """``f`` trusted only through ``degree``."""
    return TruncatedBivariateSeries(f.coeffs, min(f.degree, degree),
                                    f.weights)


@pytest.fixture(scope="module")
def census():
    return planar_census(6)


# [DERIVED] rooted planar map counts with 7 edges (9 = vertices + faces)
# and at least two vertices and two faces, from the exhaustive rooted-map
# generator, one edge beyond the brute-force check of the census.
SEVEN_EDGE_COUNTS = {(2, 7): 6476, (3, 6): 31388, (4, 5): 65954,
                     (5, 4): 65954, (6, 3): 31388, (7, 2): 6476}


@pytest.fixture(scope="module")
def census7():
    return planar_census(7)


@pytest.fixture(scope="module")
def eta():
    return vertex_profile(6)


def perturbed(table, key=(2, 2), delta=1):
    bad = Counter(table)
    bad[key] += delta
    return bad


class TestSeriesOps:
    def test_exp_t_reproduces_its_derivative(self):
        e = poly({(1, 0): 1}).exp(6)
        assert e.partial(0).coeffs == truncated(e, 5).coeffs
        assert e.coefficient(4, 0) == Fraction(1, 24)

    def test_one_plus_t_times_one_minus_t(self):
        a = poly({(0, 0): 1, (1, 0): 1}) * poly({(0, 0): 1, (1, 0): -1})
        assert a.coeffs == {(0, 0): Fraction(1), (2, 0): Fraction(-1)}

    def test_exp_half_t_coefficients(self):
        e = poly({(1, 0): Fraction(1, 2)}).exp(3)
        assert [e.coefficient(n, 0) for n in range(4)] == [
            1, Fraction(1, 2), Fraction(1, 8), Fraction(1, 48)]

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            poly({(0, 0): 1, (1, 0): 1}).exp(3)

    def test_rejects_mixed_gradings(self):
        with pytest.raises(ValueError):
            poly({(1, 0): 1}) * poly({(1, 0): 1}, (1, 0))

    def test_product_trust_gains_factor_valuation(self):
        # multiplying a trust-3 series by x^2 is trustworthy through 5
        f = TruncatedBivariateSeries({(1, 0): 1}, 3)
        assert (f * poly({(2, 0): 1})).degree == 5

    def test_empty_factors_are_not_trusted_beyond_their_degrees(self):
        # an unknown term of a trust-3 series with no stored term has
        # degree at least 4, so the product is trusted through 3 + 4
        empty = TruncatedBivariateSeries({}, 3)
        assert (empty * empty).degree == 7
        assert (empty * poly({(2, 0): 1})).degree == 5

    def test_coefficient_beyond_trust_raises(self):
        f = TruncatedBivariateSeries({(1, 0): 1}, 3)
        with pytest.raises(ValueError):
            f.coefficient(4, 0)


class TestPSeries:
    def test_low_coefficients(self, census):
        p = p_series(census, 7)
        assert p.coefficient(2, 1) == 1
        assert p.coefficient(1, 3) == 2

    def test_single_vertex_row_is_catalan(self, census):
        p = p_series(census, 7)
        for i in range(1, 7):
            assert p.coefficient(i, 1) == comb(2 * i - 2, i - 1) // i

    def test_incomplete_census_rejected(self, census):
        with pytest.raises(ValueError):
            p_series(census, 20)


class TestQuartic:
    def test_residual_zero_census_three(self):
        # the coefficients P_(q,r) with q + r <= 5
        assert check_algebraic_P(p_series(planar_census(3), 5)) == (None, 10)

    def test_residual_zero_census_five(self, census):
        assert check_algebraic_P(p_series(census, 7))[0] is None

    def test_perturbation_detected(self, census):
        fault, _ = check_algebraic_P(p_series(perturbed(census), 7))
        assert "nonzero" in fault["detail"]


class TestQAndU:
    def test_q_low_coefficients(self, census):
        q = q_from_p(census, 4)
        assert q.coefficient(0, 1) == 1
        assert q.coefficient(1, 1) == 1
        assert q.coefficient(1, 2) == 1

    def test_q_incomplete_census_rejected(self, census):
        with pytest.raises(ValueError):
            q_from_p(census, 20)

    def test_u_low_coefficients(self, census):
        u = u_from_q(q_from_p(census, 4))
        assert u.coefficient(1, 1) == 1
        assert u.coefficient(2, 1) == Fraction(1, 2)

    def test_u_matches_enumeration_and_formula(self, census, eta):
        """Chain of equalities: brute-force eta times surjections equals
        the closed formula equals (2n)! times the series coefficient."""
        u = u_from_q(q_from_p(census, 4))
        for n in range(1, 5):
            for q in range(1, n + 2):
                brute = sum(eta[(n, v)] * surjection_count(v, q)
                            for v in range(1, n + 2))
                assert brute == u_formula(n, q, census)
                assert brute == u.coefficient(n, q) * factorial(2 * n)


class TestDeltaOperators:
    def test_delta_t_scales_by_t_degree(self):
        f = poly({(3, 2): 5}, (1, 0))
        assert delta_t(f).coeffs == {(3, 2): Fraction(15)}

    def test_delta_w_on_pure_power(self):
        f = poly({(0, 3): 1}, (1, 0))
        assert delta_w(f).coeffs == {(0, 3): Fraction(3), (0, 4): Fraction(4)}

    @given(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-5, 5), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_operators_commute(self, table):
        f = TruncatedBivariateSeries(
            {k: Fraction(v) for k, v in table.items()}, 8, (1, 0))
        a = delta_t(delta_w(f))
        b = delta_w(delta_t(f))
        assert a.coeffs == b.coeffs and a.degree == b.degree

    @given(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5), max_size=8),
        st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_delta_w_realizes_multiplication_by_x(self, table, x):
        """On binomial-basis polynomials R_n(x) = sum_q R[n,q] C(x,q),
        the operator w d/dw((1+w) . ) acts as multiplication by x (the
        Pascal-rule step behind the index-translation lemma)."""
        f = TruncatedBivariateSeries(
            {k: Fraction(v) for k, v in table.items()}, 8, (1, 0))
        g = delta_w(f)
        for n in range(5):
            direct = x * sum(c * binomial(x, j)
                             for (i, j), c in f.coeffs.items() if i == n)
            via_op = sum(c * binomial(x, j)
                         for (i, j), c in g.coeffs.items() if i == n)
            assert direct == via_op

    def test_apply_operator_polynomial(self):
        f = poly({(2, 1): 1}, (1, 0))
        # (n + x) applied through the operators: n -> Delta_t, x -> Delta_w
        g = apply_operator_polynomial({(1, 0): 1, (0, 1): 1}, f)
        assert g.coeffs == {(2, 1): Fraction(3), (2, 2): Fraction(2)}


class TestQPde:
    def test_residual_zero_census_five(self):
        assert check_q_pde(q_from_p(planar_census(5), 3))[0] is None

    def test_residual_zero_census_six(self, census):
        assert check_q_pde(q_from_p(census, 4))[0] is None

    def test_residual_zero_low_order(self, census):
        assert check_q_pde(q_from_p(census, 2))[0] is None

    def test_perturbation_detected(self, census):
        assert check_q_pde(q_from_p(perturbed(census), 4))[0] is not None

    @pytest.mark.parametrize("below,degree", [(0, 0), (1, -1)])
    def test_minimum_bound_is_the_first_trusted(self, census, monkeypatch,
                                                below, degree):
        """The registered check trusts its residual through t-degree
        bound - 4: degree 0 at its minimum bound 4, where it first
        examines coefficients of Q, and nothing below it."""
        degrees = []
        real = series._zero_verdict

        def spy(residual, data, label):
            degrees.append(residual.degree)
            return real(residual, data, label)
        monkeypatch.setattr(series, "_zero_verdict", spy)
        _, instances, _ = CHECKS["q-pde"].run(4 - below, lambda bound: census)
        assert degrees == [degree]
        assert (instances > 0) == (degree >= 0)


class TestRecHP:
    def test_boundary_corner(self, census):
        assert rec_hp_residual(census, -1, -2) == 0

    def test_trivial_vanishing_outside_quadrant(self):
        empty = Counter()
        assert rec_hp_residual(empty, -2, 0) == 0
        assert rec_hp_residual(empty, 0, -3) == 0

    def test_holds_through_total_four(self, census7):
        """It holds at every one of the 36 index pairs with
        q + r <= 4, the count that a perturbed census reports."""
        assert check_rec_hp(census7, 4) == (None, 36)
        fault, checked = check_rec_hp(perturbed(census7), 4)
        assert fault["detail"].endswith(" of 36 index pairs")
        assert checked == 36

    def test_census_carries_the_seven_edge_counts(self):
        seven = {(q, r): c for (q, r), c in planar_census(7).items()
                 if q + r == 9 and q > 1 and r > 1}
        assert seven == SEVEN_EDGE_COUNTS

    def test_seven_edge_counts_are_consistent(self, census7):
        # the frozen 7-edge diagonal must be symmetric and the identity
        # must tie it to the live 6-edge census
        for (i, j), c in SEVEN_EDGE_COUNTS.items():
            assert census7[(j, i)] == c
        assert check_rec_hp(census7, 4)[0] is None

    def test_perturbation_detected(self, census7):
        fault, _ = check_rec_hp(perturbed(census7), 3)
        assert "fails" in fault["detail"]

    def test_missing_census_entry_rejected(self):
        with pytest.raises(ValueError):
            check_rec_hp(Counter(), 2)


class TestACombination:
    def test_residual_zero_census_five(self):
        assert check_a_combination(p_series(planar_census(5), 7))[0] is None

    def test_perturbation_detected(self, census):
        assert check_a_combination(p_series(perturbed(census), 7))[0] \
            is not None

    def test_agreement_with_recurrence(self, census7):
        """The differential combination and the eight-term recurrence
        are two forms of one identity: they accept the true census and
        reject the same perturbed census."""
        good_p = p_series(census7, 7)
        assert check_a_combination(good_p)[0] is None
        assert check_rec_hp(census7, 4)[0] is None
        bad = perturbed(census7)
        assert check_a_combination(p_series(bad, 7))[0] is not None
        assert check_rec_hp(bad, 4)[0] is not None

    def test_low_coefficients_vanish(self, census):
        a = a_combination(p_series(census, 8))
        for i in range(3):
            for j in range(3):
                assert a.coefficient(i, j) == 0


class TestQfd:
    def test_boundary_cases(self):
        assert check_qfd(vertex_profile(1), 1) == (None, 2)
        assert check_qfd(vertex_profile(0), 0) == (None, 1)
        assert check_qfd(vertex_profile(-1), -1) == (None, 0)

    def test_holds_through_six_edges(self, eta):
        assert check_qfd(eta, 6) == (None, 7)

    def test_reports_offending_edge_count(self, eta):
        bad = perturbed(eta, (4, 2))
        fault, checked = check_qfd(bad, 6)
        assert "n=4" in fault["detail"]
        assert checked == 5

    @pytest.mark.parametrize("key", [(3, 1), (4, 2), (5, 5), (6, 3)])
    def test_agrees_with_four_term_recurrence(self, eta, key):
        """Perturbing any table entry breaks the five-term polynomial
        identity exactly when it breaks the four-term recurrence: two
        routes, one truth."""
        bad = perturbed(eta, key)
        for table in (eta, bad):
            by_recurrence = all(
                ledoux_check(table, n, v) is None
                for n in range(2, 7) for v in range(1, n + 2))
            assert (check_qfd(table, 6)[0] is None) == by_recurrence
