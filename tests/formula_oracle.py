"""The generalized binomial and the double-sum evaluation of the
some-colors closed form, kept as the test oracle for the O(n) kernel
:func:`unimaps.formulas.u_hat_formula`."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from unimaps.formulas import double_factorial


def binomial(x, k: int) -> Fraction:
    """Generalized binomial ``x (x-1) ... (x-k+1) / k!`` for any exact x."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(x) - i
    return num / factorial(k)


def u_hat_double_sum(n: int, N: int) -> int:
    """``U^_n(N)`` from the closed form as written,

        n! sum_k 2^(2n-k) sum_r binom(n-1/2, n-r) binom(k+r-1, k)
                                binom((N-1)/2, r)
        + (2n-1)!! sum_{q=1}^{N-1} 2^(q-1) binom(N-1, q) binom(n, q-1)

    one generalized binomial at a time: O(n^3) rational operations."""
    half = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for r in range(n + 1):
            inner += (binomial(Fraction(2 * n - 1, 2), n - r)
                      * binomial(k + r - 1, k)
                      * binomial(Fraction(N - 1, 2), r))
        half += 2 ** (2 * n - k) * inner
    half *= factorial(n)
    tail = sum(2 ** (q - 1) * comb(N - 1, q) * comb(n, q - 1)
               for q in range(1, N))
    total = half + double_factorial(2 * n - 1) * tail
    assert total.denominator == 1, "formula did not produce an integer"
    return total.numerator
