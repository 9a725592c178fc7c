"""Exact truncated power series and the generating-function identities.

The planar census by (vertices, faces) packs into a bivariate series
``P(x, y)``; this module checks, with exact rational arithmetic, that the
truncation satisfies an explicit quartic algebraic equation, that the
rescaled series ``Q(t, w)`` satisfies a linear PDE, that a shifted
eight-term recurrence and an equivalent differential combination
``A(x, y)`` hold, and that the one-face counts over all surfaces satisfy
a five-term recurrence in the edge number.

Truncation is tracked by a *trust degree*: a series knows through which
(weighted) total degree its coefficients are complete, and every
operation propagates that bound conservatively.  A check can therefore
only ever claim an identity "through degree D"; residuals are required
to vanish identically on all trusted coefficients.  Each check returns
``(counterexample, instances)``: None when its identity holds, else its
counterexample ``{"detail": ...}``, and how many instances it examined,
as the registry in :mod:`unimaps.checks` reports them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

from .formulas import double_factorial
from .maps_core import record

INF = math.inf


@record
class TruncatedBivariateSeries:
    """Sparse bivariate series with exact coefficients and a trust degree.

    ``coeffs`` maps exponent pairs ``(i, j)`` to nonzero Fractions;
    ``degree`` is the largest weighted degree through which coefficients
    are complete (``math.inf`` for exact polynomials); ``weights`` gives
    the grading, e.g. ``(1, 1)`` for total degree or ``(1, 0)`` to track
    truncation in the first variable only (the second being complete).
    The variables are ``x, y`` under ``(1, 1)`` and ``t, w`` under
    ``(1, 0)``.
    """

    coeffs: dict
    degree: object = INF
    weights: tuple = (1, 1)

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.coeffs.items():
            c = Fraction(c)
            if c and self.gdeg(i, j) <= self.degree:
                clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)

    def gdeg(self, i: int, j: int):
        return self.weights[0] * i + self.weights[1] * j

    @property
    def mindeg(self):
        """Smallest weighted degree of a stored term; with none stored,
        the lowest degree an unknown term can have."""
        if not self.coeffs:
            return self.degree + 1
        return min(self.gdeg(i, j) for i, j in self.coeffs)

    def coefficient(self, i: int, j: int) -> Fraction:
        if self.gdeg(i, j) > self.degree:
            raise ValueError(f"coefficient ({i},{j}) beyond trust degree")
        return self.coeffs.get((i, j), Fraction(0))

    def items(self):
        return sorted(self.coeffs.items())

    def _like(self, coeffs, degree):
        return TruncatedBivariateSeries(coeffs, degree, self.weights)

    def _check_compatible(self, other):
        if self.weights != other.weights:
            raise ValueError("mixed gradings")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return self._like(out, min(self.degree, other.degree))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()},
                          self.degree)

    def scale(self, c) -> "TruncatedBivariateSeries":
        c = Fraction(c)
        return self._like({k: c * v for k, v in self.coeffs.items()},
                          self.degree)

    def __mul__(self, other):
        if not isinstance(other, TruncatedBivariateSeries):
            return self.scale(other)
        self._check_compatible(other)
        # unknown terms of one factor pollute the product only above
        # (its trust degree) + (the other factor's minimum degree)
        degree = min(self.degree + other.mindeg,
                     other.degree + self.mindeg)
        out = {}
        for (a, b), c in self.coeffs.items():
            for (i, j), d in other.coeffs.items():
                k = (a + i, b + j)
                if self.gdeg(*k) <= degree:
                    out[k] = out.get(k, Fraction(0)) + c * d
        return self._like(out, degree)

    __rmul__ = __mul__

    def partial(self, var: int) -> "TruncatedBivariateSeries":
        """Partial derivative in variable 0 or 1."""
        out = {}
        for (i, j), c in self.coeffs.items():
            e = (i, j)[var]
            if e:
                k = (i - 1, j) if var == 0 else (i, j - 1)
                out[k] = out.get(k, Fraction(0)) + e * c
        return self._like(out, self.degree - self.weights[var])

    def rescale(self, c0, c1) -> "TruncatedBivariateSeries":
        """Substitute ``x -> c0 x`` and ``y -> c1 y`` (nonzero scalars)."""
        c0, c1 = Fraction(c0), Fraction(c1)
        if not c0 or not c1:
            raise ValueError("rescaling factors must be nonzero")
        return self._like(
            {(i, j): c * c0 ** i * c1 ** j
             for (i, j), c in self.coeffs.items()}, self.degree)

    def exp(self, through=None) -> "TruncatedBivariateSeries":
        """Exponential of a series with zero constant term and positive
        minimum weighted degree, trusted ``through`` the given degree."""
        if through is None:
            through = self.degree
        if through == INF:
            raise ValueError("exp needs a finite trust degree")
        if (0, 0) in self.coeffs or self.mindeg < 1:
            raise ValueError("exp needs minimum weighted degree >= 1")
        degree = min(self.degree, through)
        term = self._like({(0, 0): Fraction(1)}, degree)
        total = term
        k = 1
        while k * self.mindeg <= degree:
            term = term * self * Fraction(1, k)
            total = total + term
            k += 1
        return self._like(total.coeffs, degree)

    def nonzero_terms(self):
        """Stored nonzero terms within trust, sorted by weighted degree."""
        return sorted(self.coeffs.items(),
                      key=lambda kv: (self.gdeg(*kv[0]), kv[0]))


def poly(terms, weights=(1, 1)) -> TruncatedBivariateSeries:
    """Exact polynomial: ``terms`` maps ``(i, j)`` to a coefficient."""
    return TruncatedBivariateSeries(dict(terms), INF, weights)


def _zero_verdict(residual: TruncatedBivariateSeries,
                  data: TruncatedBivariateSeries, label: str):
    """The verdict of an identity whose ``residual``, computed from the
    series ``data``, must vanish through its trust degree: None or the
    counterexample naming its first nonzero term, and how many
    coefficients of ``data`` it examined: all of them, or none if the
    residual trusts no degree."""
    examined = len(data.coeffs) if residual.degree >= 0 else 0
    bad = residual.nonzero_terms()
    if not bad:
        return None, examined
    (i, j), _ = bad[0]
    x, y = ("t", "w") if residual.weights == (1, 0) else ("x", "y")
    return {"detail": f"{label}: first nonzero coefficient at "
            f"{x}^{i} {y}^{j}, trusted through degree {residual.degree}"}, \
        examined


# ---------------------------------------------------------------------------
# The planar series P(x, y) and its quartic equation


def _planar_count(planar_counts, q: int, r: int) -> int:
    """The census entry ``P_(q,r)`` for ``q, r >= 1``.

    Every such count is positive, so a zero entry means the census does
    not reach ``(q, r)``.
    """
    count = planar_counts[(q, r)]
    if count <= 0:
        raise ValueError(f"census missing entry ({q},{r})")
    return count


def p_series(planar_counts, degree: int) -> TruncatedBivariateSeries:
    """``P(x, y) = sum_(q,r>=1) P_(q,r) x^q y^r`` through total degree
    ``degree``; raises if the census does not cover that range."""
    coeffs = {}
    for q in range(1, degree):
        for r in range(1, degree + 1 - q):
            coeffs[(q, r)] = Fraction(_planar_count(planar_counts, q, r))
    return TruncatedBivariateSeries(coeffs, degree)


def check_algebraic_P(p: TruncatedBivariateSeries):
    """The planar series satisfies an explicit quartic equation:

        27 P^4 - (36x + 36y - 1) P^3
        + (24x^2 y + 24x y^2 - 16x^3 - 16y^3 + 8x^2 + 8y^2
           + 46xy - x - y) P^2
        + xy (16x^2 + 16y^2 - 64xy - 8x - 8y + 1) P
        - x^2 y^2 (16x^2 + 16y^2 - 32xy - 8x - 8y + 1) = 0.
    """
    x, y = (1, 0), (0, 1)
    c3 = poly({x: 36, y: 36, (0, 0): -1})
    c2 = poly({(2, 1): 24, (1, 2): 24, (3, 0): -16, (0, 3): -16,
               (2, 0): 8, (0, 2): 8, (1, 1): 46, x: -1, y: -1})
    bracket1 = poly({(2, 0): 16, (0, 2): 16, (1, 1): -64,
                     x: -8, y: -8, (0, 0): 1})
    bracket0 = poly({(2, 0): 16, (0, 2): 16, (1, 1): -32,
                     x: -8, y: -8, (0, 0): 1})
    p2 = p * p
    residual = (p2 * p2 * 27 - c3 * (p2 * p) + c2 * p2
                + poly({(1, 1): 1}) * bracket1 * p
                - poly({(2, 2): 1}) * bracket0)
    return _zero_verdict(residual, p, "quartic for P")


# ---------------------------------------------------------------------------
# The rescaled series Q(t, w) and U(t, w)


def q_from_p(planar_counts, degree: int) -> TruncatedBivariateSeries:
    """``Q(t, w) = sum_(q,r>=1) q! r! P_(q,r) / (2q+2r-4)!
    t^(q+r-2) w^q``, complete through t-degree ``degree`` (the grading
    weights are ``(1, 0)``: the w-support at each t-degree is finite)."""
    coeffs = {}
    for q in range(1, degree + 2):
        for r in range(1, degree + 3 - q):
            coeffs[(q + r - 2, q)] = _p_hat(planar_counts, q, r)
    return TruncatedBivariateSeries(coeffs, degree, (1, 0))


def u_from_q(q: TruncatedBivariateSeries) -> TruncatedBivariateSeries:
    """``U(t, w) = exp(t/2) Q(t/2, 2w) / 2``; the coefficient of
    ``t^n w^q`` is (number of one-face maps on any surface with n edges,
    vertices colored with every color in 1..q) divided by ``(2n)!``."""
    if q.weights != (1, 0):
        raise ValueError("expected a (t, w)-graded series")
    half_t = poly({(1, 0): Fraction(1, 2)}, (1, 0))
    return half_t.exp(q.degree) * q.rescale(Fraction(1, 2), 2) \
        * Fraction(1, 2)


def check_q_pde(q: TruncatedBivariateSeries):
    """``Q`` satisfies the linear PDE

        (6tw + 4w^2 - 36t - 7w - 6) Q
        - (12t^2 + 8tw + 7w - 25) Q_t
        + w (w+2) (8w + 6t - 7) Q_w
        + (2t^2 - 4tw + 37t + 9) Q_tt
        - w (w+2) (8t + 7) Q_wt
        + 2 w^2 (w+2)^2 Q_ww
        + t (8t + 11) Q_ttt
        - 4wt (w+2) Q_wtt
        + 2 t^2 Q_tttt = 0.
    """
    if q.weights != (1, 0):
        raise ValueError("expected a (t, w)-graded series")

    def tw(terms):
        return poly(terms, (1, 0))

    qt = q.partial(0)
    qw = q.partial(1)
    qtt = qt.partial(0)
    qwt = qw.partial(0)
    qww = qw.partial(1)
    qttt = qtt.partial(0)
    qwtt = qwt.partial(0)
    qtttt = qttt.partial(0)
    w_w2 = tw({(0, 2): 1, (0, 1): 2})  # w (w + 2)
    residual = (
        tw({(1, 1): 6, (0, 2): 4, (1, 0): -36, (0, 1): -7, (0, 0): -6}) * q
        - tw({(2, 0): 12, (1, 1): 8, (0, 1): 7, (0, 0): -25}) * qt
        + w_w2 * tw({(0, 1): 8, (1, 0): 6, (0, 0): -7}) * qw
        + tw({(2, 0): 2, (1, 1): -4, (1, 0): 37, (0, 0): 9}) * qtt
        - w_w2 * tw({(1, 0): 8, (0, 0): 7}) * qwt
        + (w_w2 * w_w2).scale(2) * qww
        + tw({(2, 0): 8, (1, 0): 11}) * qttt
        - tw({(1, 2): 4, (1, 1): 8}) * qwtt
        + tw({(2, 0): 2}) * qtttt)
    return _zero_verdict(residual, q, "PDE for Q")


# ---------------------------------------------------------------------------
# The shifted recurrence for P-hat and its differential form A(x, y)


def _p_hat(planar_counts, i: int, j: int) -> Fraction:
    """``i! j! P_(i,j) / (2i+2j-4)!`` for ``i, j >= 1``, else zero."""
    if i < 1 or j < 1:
        return Fraction(0)
    return Fraction(
        factorial(i) * factorial(j) * _planar_count(planar_counts, i, j),
        factorial(2 * i + 2 * j - 4))


def rec_hp_residual(planar_counts, q: int, r: int) -> Fraction:
    """Left side of the eight-term recurrence at one index pair:

        2(q+1)(q+2) p^_(q,r+3) + 6(q+2) p^_(q+1,r+1)
        - (q+2)(7+8r) p^_(q+1,r+2)
        - (4q+4r+11)(q+r+2)(q+2) p^_(q+1,r+3)
        - 12(r+1) p^_(q+2,r)
        - 2(3q^2+6qr+18q+15r+25-r^2) p^_(q+2,r+1)
        + (q+r+2)(8qr+8r^2+7q+29r+18) p^_(q+2,r+2)
        + (q+r+4)(q+r+3)(q+r+2)(2q+2r+5) p^_(q+2,r+3)

    which vanishes for all integers q, r.
    """
    ph = lambda i, j: _p_hat(planar_counts, i, j)
    return (
        2 * (q + 1) * (q + 2) * ph(q, r + 3)
        + 6 * (q + 2) * ph(q + 1, r + 1)
        - (q + 2) * (7 + 8 * r) * ph(q + 1, r + 2)
        - (4 * q + 4 * r + 11) * (q + r + 2) * (q + 2) * ph(q + 1, r + 3)
        - 12 * (r + 1) * ph(q + 2, r)
        - 2 * (3 * q * q + 6 * q * r + 18 * q + 15 * r + 25 - r * r)
        * ph(q + 2, r + 1)
        + (q + r + 2) * (8 * q * r + 8 * r * r + 7 * q + 29 * r + 18)
        * ph(q + 2, r + 2)
        + (q + r + 4) * (q + r + 3) * (q + r + 2) * (2 * q + 2 * r + 5)
        * ph(q + 2, r + 3))


def check_rec_hp(planar_counts, max_total: int):
    """Check the eight-term recurrence at every index pair ``(q, r)``
    with ``q >= -1``, ``r >= -2`` and ``q + r <= max_total`` (outside
    that quadrant every referenced entry vanishes); needs a census
    covering ``q + r + 3`` edges.  None when it holds everywhere, else
    the counterexample counting the failing pairs; and the pairs
    checked."""
    failures = checked = 0
    for q in range(-1, max_total + 3):
        for r in range(-2, max_total - q + 1):
            checked += 1
            if rec_hp_residual(planar_counts, q, r):
                failures += 1
    if failures:
        return {"detail": f"recurrence fails at {failures} of "
                f"{checked} index pairs"}, checked
    return None, checked


def a_combination(p: TruncatedBivariateSeries) -> TruncatedBivariateSeries:
    """The differential combination

        A(x,y) = (4y-2x-1)(72 P - 72x P_x - (72y-2) P_y)
          - 72x^2 P_xx
          + (8x^2 - 6x - 24xy - 56y^2 + 10y + 1) P_yy
          + 2x (4x - 80y - 1) P_yx
          + (4x-8y-1)(y (4x + 48y^2 - 8y - 1) P_yyy + 48x^3 P_xxx)
          + (4x-8y-1)(144 x^2 y P_yxx + x (4x - 8y - 1 + 144y^2) P_yyx)

    whose coefficient of ``x^(q+2) y^(r+1)``, times
    ``(q+1)!(r+1)!/(2q+2r+4)!``, reproduces ``1/(2q+2r+4)`` times the
    eight-term recurrence residual at ``(q, r)``; A vanishes identically.
    """
    px = p.partial(0)
    py = p.partial(1)
    pxx = px.partial(0)
    pyy = py.partial(1)
    pyx = py.partial(0)
    pyyy = pyy.partial(1)
    pxxx = pxx.partial(0)
    pyxx = pyx.partial(0)
    pyyx = pyy.partial(0)
    front = poly({(0, 1): 4, (1, 0): -2, (0, 0): -1})  # 4y - 2x - 1
    hook = poly({(1, 0): 4, (0, 1): -8, (0, 0): -1})   # 4x - 8y - 1
    return (
        front * (p * 72 - poly({(1, 0): 72}) * px
                 - poly({(0, 1): 72, (0, 0): -2}) * py)
        - poly({(2, 0): 72}) * pxx
        + poly({(2, 0): 8, (1, 0): -6, (1, 1): -24, (0, 2): -56,
                (0, 1): 10, (0, 0): 1}) * pyy
        + poly({(2, 0): 8, (1, 1): -160, (1, 0): -2}) * pyx
        + hook * (poly({(1, 1): 4, (0, 3): 48, (0, 2): -8, (0, 1): -1})
                  * pyyy
                  + poly({(3, 0): 48}) * pxxx)
        + hook * (poly({(2, 1): 144}) * pyxx
                  + poly({(2, 0): 4, (1, 1): -8, (1, 0): -1,
                          (1, 2): 144}) * pyyx))


def check_a_combination(p: TruncatedBivariateSeries):
    return _zero_verdict(a_combination(p), p, "A(x, y)")


# ---------------------------------------------------------------------------
# The five-term edge recurrence for counts over all surfaces


def check_qfd(eta, n_max: int):
    """With ``v^_n(x) = (sum_v eta_v(n) x^v) / (2n)!`` and
    ``v^_n = 0`` for ``n < 0``, check that for every ``0 <= n <= n_max``

        (2n)(2n-1)(2n-2)(n+1) v^_n(x)
          = (4n-1)(2n-2)(2x-1) v^_(n-1)(x)
          + (10n^2 - 9n + 8x - 8x^2) v^_(n-2)(x)
          + 5 (1-2x) v^_(n-3)(x) - 2 v^_(n-4)(x)

    as an identity between polynomials in x, up to the first n where it
    fails; the second value returned counts the n checked.  ``eta`` is a
    table keyed by ``(n, v)`` covering ``1 <= n <= n_max``; the edgeless
    map contributes ``eta_1(0) = 1``.
    """

    def v_hat(n):
        if n < 0:
            return {}
        if n == 0:
            return {1: Fraction(1)}
        top = factorial(2 * n)
        out = {v: Fraction(eta[(n, v)], top) for v in range(1, n + 2)
               if eta[(n, v)]}
        if not out:
            raise ValueError(f"eta table missing n={n}")
        return out

    def add(acc, table, scalars):
        # scalars: coefficients of x^0, x^1, x^2 multiplying the table
        for v, c in table.items():
            for shift, s in enumerate(scalars):
                if s:
                    acc[v + shift] = acc.get(v + shift, Fraction(0)) + s * c

    checked = 0
    for n in range(n_max + 1):
        checked += 1
        acc = {}
        add(acc, v_hat(n),
            [-(2 * n) * (2 * n - 1) * (2 * n - 2) * (n + 1)])
        add(acc, v_hat(n - 1), [-(4 * n - 1) * (2 * n - 2),
                                2 * (4 * n - 1) * (2 * n - 2)])
        add(acc, v_hat(n - 2), [10 * n * n - 9 * n, 8, -8])
        add(acc, v_hat(n - 3), [5, -10])
        add(acc, v_hat(n - 4), [-2])
        if any(acc.values()):
            return {"detail": f"five-term recurrence fails at n={n}"}, \
                checked
    return None, checked
