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


def u_terms(n: int, q: int, planar_counts) -> dict:
    """The terms of :func:`u_formula` by the face number ``r`` of the
    planar submap, for every ``1 <= r <= n - q + 2``:

        q! r! P_{q,r} / 2^(r-1) * binom(2n, 2q+2r-4) * (2n-2q-2r+3)!!

    Each term is an integer, computed in integers; ArithmeticError if the
    division by ``2^(r-1)`` leaves a remainder."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    terms = {}
    for r in range(1, n - q + 3):
        term, rest = divmod(
            factorial(q) * factorial(r) * planar_counts[(q, r)]
            * comb(2 * n, 2 * q + 2 * r - 4)
            * double_factorial(2 * n - 2 * q - 2 * r + 3), 2 ** (r - 1))
        if rest:
            raise ArithmeticError("formula did not produce an integer")
        terms[r] = term
    return terms


def u_formula(n: int, q: int, planar_counts) -> int:
    """``U_n(q)``: one-face maps on general surfaces with ``n`` edges,
    vertices colored with every color in ``1..q``: the sum of
    :func:`u_terms`.

    ``planar_counts[(q, r)]`` must give the number of unlabeled rooted
    planar maps with ``q`` vertices and ``r`` faces (zero for missing
    keys)."""
    return sum(u_terms(n, q, planar_counts).values())


def u_hat_formula(n: int, N: int) -> int:
    """``U^_n(N)``: one-face maps on general surfaces with ``n`` edges,
    vertices colored with some of the colors ``1..N``.

    Evaluates the closed form

        n! sum_k 2^(2n-k) sum_r binom(n-1/2, n-r) binom(k+r-1, k)
                                binom((N-1)/2, r)
        + (2n-1)!! sum_{q=1}^{N-1} 2^(q-1) binom(N-1, q) binom(n, q-1)

    exactly, in O(n) integer operations.  With the sums swapped, the
    k-sum is the integer weight ``E_r = sum_k 2^(2n-k) binom(k+r-1, k)``
    (k and r run over 0..n), and Pascal's rule on ``binom(k+r-1, k)``
    gives ``E_0 = 4^n`` and ``E_r = 2 E_(r-1) - 2^n binom(n+r-1, n)``.
    The half-integer binomials clear to
    ``n! binom(n-1/2, n-r) binom((N-1)/2, r) = binom(n, r) a_(n-r) b_r
    / 2^n``, with ``a_k = (2n-1)(2n-3)...(2n-2k+1)`` and
    ``b_r = (N-1)(N-3)...(N-2r+1)``; ArithmeticError if the division by
    ``2^n`` leaves a remainder.
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    a, b = [1], [1]
    for m in range(n):
        a.append(a[-1] * (2 * n - 1 - 2 * m))
        b.append(b[-1] * (N - 1 - 2 * m))
    # after step r, weight is E_r and c is binom(n+r, n)
    weight, c = 4 ** n, 1
    half = a[n] * weight
    for r in range(1, n + 1):
        weight = 2 * weight - 2 ** n * c
        c = c * (n + r) // r
        half += comb(n, r) * a[n - r] * b[r] * weight
    half, rest = divmod(half, 2 ** n)
    if rest:
        raise ArithmeticError("formula did not produce an integer")
    tail = sum(2 ** (q - 1) * comb(N - 1, q) * comb(n, q - 1)
               for q in range(1, N))
    return half + double_factorial(2 * n - 1) * tail


def _with_boundary(table):
    """The reader ``(n, v) -> table[(n, v)]`` of a one-face count table
    under the boundary convention: 1 at ``(0, 1)`` and 0 at every other
    ``n <= 0`` or ``v < 1``."""
    def val(n, v):
        if n == 0:
            return 1 if v == 1 else 0
        if n < 0 or v < 1:
            return 0
        return table[(n, v)]
    return val


def _point_fault(lhs, rhs, detail):
    """None when the two sides of an identity agree at one point, else
    the counterexample: ``detail`` and the ``repr`` of each side."""
    if lhs == rhs:
        return None
    return {"detail": detail, "lhs": repr(lhs), "rhs": repr(rhs)}


def hz_recurrence_check(eps, n: int, v: int):
    """Check ``(n+1) eps_v(n) = (4n-2) eps_{v-1}(n-1)
    + (n-1)(2n-1)(2n-3) eps_v(n-2)`` at one point; None when it holds,
    else the counterexample of :func:`_point_fault`.

    ``eps`` is a table keyed by ``(n, v)`` with zero for missing keys; the
    boundary convention is ``eps_1(0) = 1`` and ``eps_v(n) = 0`` for other
    out-of-range indices.
    """
    val = _with_boundary(eps)
    lhs = (n + 1) * val(n, v)
    rhs = (4 * n - 2) * val(n - 1, v - 1) \
        + (n - 1) * (2 * n - 1) * (2 * n - 3) * val(n - 2, v)
    return _point_fault(lhs, rhs, f"hz n={n} v={v}")


def ledoux_check(eta, n: int, v: int):
    """Check the four-term recurrence for general-surface counts at one
    point, with the result of :func:`hz_recurrence_check`:

        (n+1) eta_v(n) = (4n-1)(2 eta_{v-1}(n-1) - eta_v(n-1))
          + (2n-3)((10n^2-9n) eta_v(n-2) + 8 eta_{v-1}(n-2)
                   - 8 eta_{v-2}(n-2))
          + 5(2n-3)(2n-4)(2n-5)(eta_v(n-3) - 2 eta_{v-1}(n-3))
          - 2(2n-3)(2n-4)(2n-5)(2n-6)(2n-7) eta_v(n-4)

    valid for ``n >= 2``, with boundary ``eta_1(0) = 1``.
    """
    if n < 2:
        raise ValueError("recurrence holds for n >= 2")
    val = _with_boundary(eta)
    lhs = (n + 1) * val(n, v)
    rhs = (4 * n - 1) * (2 * val(n - 1, v - 1) - val(n - 1, v))
    rhs += (2 * n - 3) * ((10 * n * n - 9 * n) * val(n - 2, v)
                          + 8 * val(n - 2, v - 1) - 8 * val(n - 2, v - 2))
    rhs += 5 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * (
        val(n - 3, v) - 2 * val(n - 3, v - 1))
    rhs -= 2 * (2 * n - 3) * (2 * n - 4) * (2 * n - 5) * (2 * n - 6) \
        * (2 * n - 7) * val(n - 4, v)
    return _point_fault(lhs, rhs, f"ledoux n={n} v={v}")
