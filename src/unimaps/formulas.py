"""Closed formulas and recurrences for one-face map counts.

Notation: ``eps_v(n)`` counts rooted one-face maps with ``n`` edges and
``v`` vertices on orientable surfaces, ``eta_v(n)`` the same over all
surfaces (orientable or not).  ``T_n(q)`` and ``U_n(q)`` count the
orientable and general variants whose vertices are colored using every
color in ``1..q``; expanding the count of maps colored with some of ``N``
colors in the basis of binomials ``binom(N, q)`` recovers the ``eps`` and
``eta`` tables from these.

Conventions: ``(-1)!! = 1`` and ``binom(x, 0) = 1`` for every ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


def double_factorial(k: int) -> int:
    """Product ``k (k-2) (k-4) ...`` down to 1 or 2, with ``(-1)!! = 1``."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def t_formula(n: int, q: int) -> int:
    """``T_n(q) = 2^(q-1) binom(n, q-1) (2n-1)!!``: orientable one-face maps
    with ``n`` edges, vertices colored with every color in ``1..q``.  Also
    the number of tree-rooted orientable maps with vertex set ``1..q``."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    return 2 ** (q - 1) * comb(n, q - 1) * double_factorial(2 * n - 1)


def jackson_formula(n: int, p: int, q: int) -> int:
    """``T_n(p, q) = n! multinomial(n-1; p-1, q-1, n-p-q+1)``: orientable
    bipartite one-face maps with ``n`` edges whose two vertex parts are
    colored with every color in ``1..p`` and ``p+1..p+q`` respectively,
    root vertex on the first side."""
    if n < 1 or p < 1 or q < 1:
        raise ValueError("need n, p, q >= 1")
    rest = n - p - q + 1
    if rest < 0:
        return 0
    return factorial(n) * factorial(n - 1) // (
        factorial(p - 1) * factorial(q - 1) * factorial(rest))


def u_formula(n: int, q: int, planar_counts) -> int:
    """``U_n(q)``: one-face maps on general surfaces with ``n`` edges,
    vertices colored with every color in ``1..q``.

    ``planar_counts[(q, r)]`` must give the number of unlabeled rooted
    planar maps with ``q`` vertices and ``r`` faces (zero for missing
    keys).  The formula sums, over the face number ``r`` of the planar
    submap,

        q! r! P_{q,r} / 2^(r-1) * binom(2n, 2q+2r-4) * (2n-2q-2r+3)!!
    """
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    total = Fraction(0)
    for r in range(1, n - q + 3):
        p = planar_counts[(q, r)]
        if p == 0:
            continue
        term = Fraction(factorial(q) * factorial(r) * p, 2 ** (r - 1))
        term *= comb(2 * n, 2 * q + 2 * r - 4)
        term *= double_factorial(2 * n - 2 * q - 2 * r + 3)
        total += term
    if total.denominator != 1:
        raise ArithmeticError("formula did not produce an integer")
    return total.numerator


def _binomial_row(x: Fraction, k: int) -> list:
    """``[binom(x, 0), ..., binom(x, k)]`` for an exact ``x``, by
    ``binom(x, m+1) = binom(x, m) (x - m) / (m + 1)``."""
    row = [Fraction(1)]
    for m in range(k):
        row.append(row[-1] * (x - m) / (m + 1))
    return row


def u_hat_formula(n: int, N: int) -> int:
    """``U^_n(N)``: one-face maps on general surfaces with ``n`` edges,
    vertices colored with some of the colors ``1..N``.

    Evaluates the closed form

        n! sum_k 2^(2n-k) sum_r binom(n-1/2, n-r) binom(k+r-1, k)
                                binom((N-1)/2, r)
        + (2n-1)!! sum_{q=1}^{N-1} 2^(q-1) binom(N-1, q) binom(n, q-1)

    exactly, in O(n) rational operations.  With the sums swapped, the
    k-sum is the integer weight ``E_r = sum_k 2^(2n-k) binom(k+r-1, k)``
    (k and r run over 0..n), and Pascal's rule on ``binom(k+r-1, k)``
    gives ``E_0 = 4^n`` and ``E_r = 2 E_(r-1) - 2^n binom(n+r-1, n)``;
    the generalized binomials of ``n - 1/2`` and ``(N-1)/2`` are built as
    rows.
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    top = _binomial_row(Fraction(2 * n - 1, 2), n)
    side = _binomial_row(Fraction(N - 1, 2), n)
    # after step r, weight is E_r and b is binom(n+r, n)
    weight, b = 4 ** n, 1
    half = top[n] * side[0] * weight
    for r in range(1, n + 1):
        weight = 2 * weight - 2 ** n * b
        b = b * (n + r) // r
        half += top[n - r] * side[r] * weight
    half *= factorial(n)
    tail = sum(2 ** (q - 1) * comb(N - 1, q) * comb(n, q - 1)
               for q in range(1, N))
    total = half + double_factorial(2 * n - 1) * tail
    if total.denominator != 1:
        raise ArithmeticError("formula did not produce an integer")
    return total.numerator


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one identity instance."""

    ok: bool
    lhs: object
    rhs: object
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def hz_recurrence_check(eps, n: int, v: int) -> Verdict:
    """Check ``(n+1) eps_v(n) = (4n-2) eps_{v-1}(n-1)
    + (n-1)(2n-1)(2n-3) eps_v(n-2)`` at one point.

    ``eps`` is a table keyed by ``(n, v)`` with zero for missing keys; the
    boundary convention is ``eps_1(0) = 1`` and ``eps_v(n) = 0`` for other
    out-of-range indices.
    """
    def val(nn, vv):
        if nn == 0:
            return 1 if vv == 1 else 0
        if nn < 0 or vv < 1:
            return 0
        return eps[(nn, vv)]

    lhs = (n + 1) * val(n, v)
    rhs = (4 * n - 2) * val(n - 1, v - 1) \
        + (n - 1) * (2 * n - 1) * (2 * n - 3) * val(n - 2, v)
    return Verdict(lhs == rhs, lhs, rhs, f"hz n={n} v={v}")


def ledoux_check(eta, n: int, v: int) -> Verdict:
    """Check the four-term recurrence for general-surface counts at one
    point:

        (n+1) eta_v(n) = (4n-1)(2 eta_{v-1}(n-1) - eta_v(n-1))
          + (2n-3)((10n^2-9n) eta_v(n-2) + 8 eta_{v-1}(n-2)
                   - 8 eta_{v-2}(n-2))
          + 5(2n-3)(2n-4)(2n-5)(eta_v(n-3) - 2 eta_{v-1}(n-3))
          - 2(2n-3)(2n-4)(2n-5)(2n-6)(2n-7) eta_v(n-4)

    valid for ``n >= 2``, with boundary ``eta_1(0) = 1``.
    """
    if n < 2:
        raise ValueError("recurrence holds for n >= 2")

    def val(nn, vv):
        if nn == 0:
            return 1 if vv == 1 else 0
        if nn < 0 or vv < 1:
            return 0
        return eta[(nn, vv)]

    lhs = (n + 1) * val(n, v)
    rhs = (4 * n - 1) * (2 * val(n - 1, v - 1) - val(n - 1, v))
    rhs += (2 * n - 3) * ((10 * n * n - 9 * n) * val(n - 2, v)
                          + 8 * val(n - 2, v - 1) - 8 * val(n - 2, v - 2))
    rhs += 5 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * (
        val(n - 3, v) - 2 * val(n - 3, v - 1))
    rhs -= 2 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * (2 * n - 6) \
        * (2 * n - 7) * val(n - 4, v)
    return Verdict(lhs == rhs, lhs, rhs, f"ledoux n={n} v={v}")
