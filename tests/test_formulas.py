from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from formula_oracle import binomial, u_hat_double_sum
from unimaps.enumeration import (
    gen_unicellular,
    planar_census,
    surjection_count,
    vertex_profile,
)
from unimaps.formulas import (
    double_factorial,
    hz_recurrence_check,
    jackson_formula,
    ledoux_check,
    t_formula,
    u_formula,
    u_hat_formula,
    u_terms,
)
from unimaps.maps_core import glue_polygon


def brute_colored(n, q, orientable_only=False):
    """Maps with n edges colored with every color in 1..q, by force."""
    total = 0
    for g in gen_unicellular(n, orientable_only):
        total += surjection_count(len(glue_polygon(g)), q)
    return total


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        with pytest.raises(ValueError):
            double_factorial(-3)

    @given(st.integers(min_value=1, max_value=30))
    def test_recurrence(self, k):
        assert double_factorial(k) == k * double_factorial(k - 2)


class TestBinomial:
    def test_integer_agreement(self):
        for x in range(8):
            for k in range(8):
                assert binomial(x, k) == comb(x, k)

    def test_half_integer(self):
        assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)

    def test_top_zero(self):
        assert binomial(Fraction(-7, 3), 0) == 1

    @given(st.fractions(max_denominator=6), st.integers(min_value=1, max_value=8))
    def test_pascal(self, x, k):
        assert binomial(x, k) == binomial(x - 1, k) + binomial(x - 1, k - 1)


class TestTFormula:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n):
        for q in range(1, n + 2):
            assert t_formula(n, q) == brute_colored(n, q, orientable_only=True)

    def test_small_values(self):
        assert t_formula(1, 1) == 1
        assert t_formula(1, 2) == 2
        assert t_formula(2, 2) == 12


class TestJacksonFormula:
    def brute(self, n, p, q):
        total = 0
        for g in gen_unicellular(n, True):
            classes = glue_polygon(g)
            idx = {c: k for k, cls in enumerate(classes) for c in cls}
            nn = 2 * n
            adj = [[] for _ in classes]
            for a, b in g.pairs:
                u, v = idx[a], idx[(a + 1) % nn]
                adj[u].append(v)
                adj[v].append(u)
            # 2-color the vertex graph starting from the root vertex
            color = [None] * len(classes)
            root = idx[0]
            color[root] = 0
            stack = [root]
            ok = True
            while stack and ok:
                x = stack.pop()
                for y in adj[x]:
                    if color[y] is None:
                        color[y] = 1 - color[x]
                        stack.append(y)
                    elif color[y] == color[x]:
                        ok = False
                        break
            if not ok:
                continue
            a_count = color.count(0)
            b_count = color.count(1)
            total += surjection_count(a_count, p) * surjection_count(b_count, q)
        return total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n):
        for p in range(1, n + 2):
            for q in range(1, n + 2):
                assert jackson_formula(n, p, q) == self.brute(n, p, q)

    def test_zero_when_too_many_colors(self):
        assert jackson_formula(3, 2, 2) == 12
        assert jackson_formula(2, 2, 2) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bipartite_by_pairs(self, n):
        """Every vertex class has corners of one parity exactly when every
        pair joins an even side and an odd side: the filter of the
        gluing oracle ``transfer_oracle.bipartite_profile_by_gluings``."""
        for g in gen_unicellular(n, True):
            by_classes = all(len({c % 2 for c in cls}) == 1
                             for cls in glue_polygon(g))
            assert by_classes == all((a + b) % 2 for a, b in g.pairs)


class TestUFormula:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n, census):
        for q in range(1, n + 2):
            assert u_formula(n, q, census) == brute_colored(n, q)

    def test_small_values(self, census):
        # [DERIVED] from exhaustive gluing enumeration
        assert u_formula(1, 1, census) == 2
        assert u_formula(2, 1, census) == 12
        assert u_formula(2, 2, census) == 22
        assert u_formula(3, 4, census) == 120

    def test_terms_are_the_exact_summands(self):
        """Every term, computed in integers, equals the summand
        q! r! P_{q,r} / 2^(r-1) binom(2n, 2q+2r-4) (2n-2q-2r+3)!! in exact
        rationals, for n <= 22: 2,299 of them are nonzero."""
        census = planar_census(22)
        nonzero = 0
        for n in range(1, 23):
            for q in range(1, n + 2):
                terms = u_terms(n, q, census)
                assert list(terms) == list(range(1, n - q + 3))
                for r, term in terms.items():
                    assert term == Fraction(
                        factorial(q) * factorial(r) * census[(q, r)],
                        2 ** (r - 1)) * comb(2 * n, 2 * q + 2 * r - 4) \
                        * double_factorial(2 * n - 2 * q - 2 * r + 3)
                    nonzero += term != 0
                assert sum(terms.values()) == u_formula(n, q, census)
        assert nonzero == 2299

    def test_inexact_term_raises(self):
        # the r = 3 term of U_2(1) is 3! P_{1,3} / 4
        with pytest.raises(ArithmeticError):
            u_terms(2, 1, Counter({(1, 3): 1}))
        assert u_terms(2, 1, Counter({(1, 3): 2})) == {1: 0, 2: 0, 3: 3}


class TestUHatFormula:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_colored_sum(self, n):
        for N in range(1, 5):
            expect = sum(comb(N, q) * brute_colored(n, q)
                         for q in range(1, n + 2))
            assert u_hat_formula(n, N) == expect

    def test_kernel_matches_double_sum(self):
        """The O(n) kernel against the closed form summed term by term,
        for every n <= 10 and N <= n + 3."""
        for n in range(1, 11):
            for N in range(1, n + 4):
                assert u_hat_formula(n, N) == u_hat_double_sum(n, N), (n, N)

    def test_consistency_with_u_formula(self, census):
        for n in (1, 2, 3, 4):
            for N in (1, 2, 3):
                expect = sum(comb(N, q) * u_formula(n, q, census)
                             for q in range(1, n + 2))
                assert u_hat_formula(n, N) == expect


@pytest.fixture(scope="module")
def census():
    return planar_census(5)


@pytest.fixture(scope="module")
def eps_table():
    return vertex_profile(5, True)


@pytest.fixture(scope="module")
def eta_table():
    return vertex_profile(5)


class TestRecurrences:
    def test_hz_holds_on_census(self, eps_table):
        for n in range(1, 6):
            for v in range(1, n + 2):
                fault = hz_recurrence_check(eps_table, n, v)
                assert fault is None, fault

    def test_ledoux_holds_on_census(self, eta_table):
        for n in range(2, 6):
            for v in range(1, n + 2):
                fault = ledoux_check(eta_table, n, v)
                assert fault is None, fault

    def test_detects_perturbation(self, eps_table, eta_table):
        bad = Counter(eps_table)
        bad[(4, 1)] += 1
        assert hz_recurrence_check(bad, 4, 1) is not None
        bad = Counter(eta_table)
        bad[(3, 2)] -= 1
        assert ledoux_check(bad, 3, 2) is not None

    def test_verdict_reports_sides(self, eps_table):
        """A failing point reports its detail and the repr of each side:
        eps_1(4) = 21 raised to 22 gives 5 * 22 against 105 eps_1(2)."""
        bad = Counter(eps_table)
        bad[(4, 1)] += 1
        assert hz_recurrence_check(bad, 4, 1) == {
            "detail": "hz n=4 v=1", "lhs": "110", "rhs": "105"}

