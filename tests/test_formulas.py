from fractions import Fraction
from math import comb

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
    Verdict,
    double_factorial,
    hz_recurrence_check,
    jackson_formula,
    ledoux_check,
    t_formula,
    u_formula,
    u_hat_formula,
)
from unimaps.maps_core import glue_polygon


def brute_colored(n, q, orientable_only=False):
    """Maps with n edges colored with every color in 1..q, by force."""
    total = 0
    for g in gen_unicellular(n, orientable_only):
        v = glue_polygon(g).vertex_count
        total += surjection_count(v, q)
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
            skel = glue_polygon(g)
            classes = skel.vertex_classes
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
    t = {}
    for n in range(1, 6):
        for key, c in vertex_profile(n, True).items():
            t[key] = c
    return _Table(t)


@pytest.fixture(scope="module")
def eta_table():
    t = {}
    for n in range(1, 6):
        for key, c in vertex_profile(n).items():
            t[key] = c
    return _Table(t)


class _Table(dict):
    def __getitem__(self, key):
        return self.get(key, 0)


class TestRecurrences:
    def test_hz_holds_on_census(self, eps_table):
        for n in range(1, 6):
            for v in range(1, n + 2):
                verdict = hz_recurrence_check(eps_table, n, v)
                assert verdict, verdict

    def test_ledoux_holds_on_census(self, eta_table):
        for n in range(2, 6):
            for v in range(1, n + 2):
                verdict = ledoux_check(eta_table, n, v)
                assert verdict, verdict

    def test_detects_perturbation(self, eps_table, eta_table):
        bad = _Table(eps_table)
        bad[(4, 1)] += 1
        assert not hz_recurrence_check(bad, 4, 1)
        bad = _Table(eta_table)
        bad[(3, 2)] -= 1
        assert not ledoux_check(bad, 3, 2)

    def test_verdict_reports_sides(self):
        v = Verdict(False, 3, 4, "demo")
        assert not v and v.lhs == 3 and v.rhs == 4

