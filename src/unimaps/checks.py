"""Registry of the identity checks: one implementation of each, run by
``unimaps verify`` and by the acceptance gate.

A check ``run(bound, census)`` examines every instance up to ``bound``
and returns ``(counterexample, instances, reach)``: its first
counterexample as a JSON-ready dict or None, how many instances (each a
``Check.unit``) it examined, and the largest size it reached.
``census(max_edges)`` supplies the planar census, so the command line
can serve it from its cache and tests from ``enumeration.planar_census``.

``phi-roundtrip`` and ``psi-fibers`` examine one colored map per orbit
of the color permutations and count it ``q!`` times.  The action is
free, since a coloring uses every color in ``1..q``, so an orbit holds
``q!`` colored maps.  phi and psi commute with the color permutations up
to relabelling: permuted vertex labels give the canonical keys of the
images of the permuted map, which phi_inverse and psi take back to it.
The code does not make this hold by construction (``xi`` orients edges
by color order): a Tier-1 test checks it on every coloring, for phi to
n = 4 and psi to n = 3, and above that the checks rely on it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from itertools import product
from math import comb, factorial, prod

# Each check imports the layer modules it calls inside its body, so that a
# command loads only the layers it runs, and always as ``from . import x``
# with calls ``x.f(...)``: the benchmark's tracer (perfbench/trace_op.py)
# rebinds names only inside the layer modules, so a function bound in this
# module with ``from .x import f`` would drop its spans from ``--trace 1``.


def map_payload(m) -> dict:
    """JSON form of a rooted map."""
    return {"sigma": list(m.sigma), "alpha": list(m.alpha), "root": m.root}


def tree_payload(t) -> dict:
    """JSON form of a near-Eulerian tree."""
    return {"sigma": list(t.sigma), "mate": list(t.mate),
            "out": sorted(t.out_buds), "tails": sorted(t.tails),
            "root": t.root}


def _first(faults):
    """The verdict of ``faults``, a pair ``(size, counterexample or None)``
    per instance examined, which stops at the first counterexample."""
    examined, size, fault = 0, 0, None
    for size, fault in faults:
        examined += 1
        if fault is not None:
            break
    return fault, examined, size


def _check_gluing_totals(bound, census):
    from . import enumeration, formulas
    eps = enumeration.vertex_profile(bound, True)
    eta = enumeration.vertex_profile(bound)

    def faults(n):
        # two totals per n: the orientable gluings, then all of them
        gluings = formulas.double_factorial(2 * n - 1)
        orientable = sum(eps[(n, v)] for v in range(1, n + 2))
        yield n, None if orientable == gluings else {
            "n": n, "orientable": orientable}
        total = sum(eta[(n, v)] for v in range(1, n + 2))
        yield n, None if total == 2 ** n * gluings else {
            "n": n, "total": total}
    return _first(f for n in range(1, bound + 1) for f in faults(n))


def _surjection_sums(bound, orientable_only, formula, bipartite=False):
    """Colored counts as sums over the vertex profile, against
    ``formula(n, q)``: a map with v vertices has surj(v, q) colorings;
    bipartite, against ``formula(n, p, q)``: with e even and o odd vertex
    classes, surj(e, p) surj(o, q), its root vertex's part onto 1..p."""
    from . import enumeration
    surj = cache(enumeration.surjection_count)
    rows = [[] for _ in range(bound + 1)]
    for (n, *parts), count in enumeration.vertex_profile(
            bound, orientable_only, bipartite=bipartite).items():
        rows[n].append((count, parts))

    def fault(n, colors):
        direct = sum(count * prod(map(surj, parts, colors))
                     for count, parts in rows[n])
        expected = formula(n, *colors)
        return None if direct == expected else {
            "n": n, **dict(zip("pq"[-len(colors):], colors)),
            "direct": direct, "formula": expected}
    return _first((n, fault(n, colors)) for n in range(1, bound + 1)
                  for colors in product(range(1, n + 2), repeat=1 + bipartite))


def _check_t_formula(bound, census):
    from . import formulas
    return _surjection_sums(bound, True, formulas.t_formula)


def _check_jackson(bound, census):
    from . import formulas
    return _surjection_sums(bound, True, formulas.jackson_formula, True)


def _check_u_formula(bound, census):
    from . import formulas
    planar = census(bound)
    return _surjection_sums(bound, False,
                            lambda n, q: formulas.u_formula(n, q, planar))


def _check_u_hat(bound, census):
    from . import formulas
    planar = census(bound)

    def faults(n):
        # U_n(q) for q = 1..n+2, shared by every N
        u = [formulas.u_formula(n, q, planar) for q in range(1, n + 3)]
        for N in range(1, n + 3):
            direct = sum(comb(N, q) * u[q - 1] for q in range(1, N + 1))
            formula = formulas.u_hat_formula(n, N)
            yield n, None if direct == formula else {
                "n": n, "N": N, "direct": direct, "formula": formula}
    return _first(f for n in range(1, bound + 1) for f in faults(n))


def _recurrence(bound, orientable_only, check, first_n):
    """The verdict of ``check(table, n, v)`` on the eps or eta table, for
    ``first_n`` <= n <= ``bound`` and every v."""
    from . import enumeration
    table = enumeration.vertex_profile(bound, orientable_only)
    return _first((n, check(table, n, v)) for n in range(first_n, bound + 1)
                  for v in range(1, n + 2))


def _check_hz(bound, census):
    from . import formulas
    return _recurrence(bound, True, formulas.hz_recurrence_check, 1)


def _check_ledoux(bound, census):
    from . import formulas
    return _recurrence(bound, False, formulas.ledoux_check, 2)


def _color_pairs(u) -> list:
    """The sorted color pairs ``(x, y)``, ``x <= y``, of the corners at
    the two ends of the first side of every glued pair of ``u``."""
    cc = u.corner_colors
    out = []
    for a, _ in u.gluing.pairs:
        # a < b, so corner a + 1 needs no wrap-around
        x, y = cc[a], cc[a + 1]
        out.append((x, y) if x <= y else (y, x))
    out.sort()
    return out


def _endpoint_labels(t) -> list:
    """The sorted vertex-label pairs ``(x, y)``, ``x <= y``, of the ends
    of every edge of the labelled map ``t``."""
    label, vertex = t.vertex_labels, t.m.vertex_index()
    out = []
    for h, h2 in t.m.edges():
        x, y = label[vertex[h]], label[vertex[h2]]
        out.append((x, y) if x <= y else (y, x))
    out.sort()
    return out


def _invalid(*objects):
    """The fault of the first of ``objects`` that fails its validation, or
    None.  The bijections build their images unchecked; a check that
    claims an image lies in a family validates it here, once."""
    for obj in objects:
        try:
            obj.validate()
        except ValueError as exc:
            return {"property": "valid image", "detail": str(exc)}
    return None


def _phi_fault(u):
    """The payload fields of the first property phi breaks on ``u``, or
    None: phi(u) is a valid tree-rooted map that phi_inverse takes back to
    ``u``, whose edges join the color pairs of ``u`` (property (*)); so
    its labels are the colors of ``u``."""
    from . import bijections
    t = bijections.phi(u)
    fault = _invalid(t.m, t)
    if fault is not None:
        return fault
    if bijections.phi_inverse(t) != u:
        return {"property": "round trip"}
    if _color_pairs(u) != _endpoint_labels(t):
        return {"property": "color pairs"}
    return None


def _check_phi_roundtrip(bound, census):
    """:func:`_phi_fault` on one colored map per color orbit; the images
    on q vertices, q! per orbit, against T_n(q)."""
    from . import enumeration, formulas
    orbits = 0
    for n in range(1, bound + 1):
        images = Counter()
        for u in enumeration.gen_colored_unicellular(n, True, True):
            orbits += 1
            fault = _phi_fault(u)
            if fault is not None:
                return {"n": n, "gluing": list(u.gluing.pairs),
                        **fault}, orbits, n
            images[u.q] += factorial(u.q)
        for q in range(1, n + 2):
            if images[q] != formulas.t_formula(n, q):
                return {"n": n, "q": q, "images": images[q],
                        "formula": formulas.t_formula(n, q)}, orbits, n
    return None, orbits, bound


def label_degrees(p) -> Counter:
    """The number of half-edges at the vertices labelled i, by i."""
    degrees = Counter()
    for cyc, label in zip(p.m.vertices(), p.vertex_labels):
        degrees[label] += len(cyc)
    return degrees


def _fiber_fault(u, fiber):
    """The first property that psi's fiber over ``u`` breaks, or None: it
    has 2^w elements with distinct canonical keys and one weight w, which
    is 0 exactly on orientable gluings; psi maps each back to ``u``; and
    each has the vertex degrees of the corner colors (property (**)),
    tallied once for the fiber.  The elements are taken to be valid."""
    from . import bijections
    if not fiber:
        return "empty fiber"
    w = fiber[0].external_weight
    if len(fiber) != 2 ** w:
        return "fiber size"
    if (w == 0) != u.gluing.orientable:
        return "weight"
    keys = set()
    corners = Counter(u.corner_colors)
    for p in fiber:
        if p.external_weight != w:
            return "weight"
        if bijections.psi(p) != u:
            return "round trip"
        keys.add(p.canonical_key())
        if label_degrees(p) != corners:
            return "degrees"
    return None if len(keys) == len(fiber) else "distinct keys"


def _check_psi_fibers(bound, census):
    """On one colored map per color orbit, psi's fiber holds valid maps
    and has the properties of :func:`_fiber_fault`; the maps with q
    colors and fiber weight w, q! per orbit, against the r = w + 1 term
    of U_n(q)."""
    from . import bijections, enumeration, formulas
    planar = census(bound)
    orbits = 0
    for n in range(1, bound + 1):
        fibers = Counter()
        for u in enumeration.gen_colored_unicellular(n, False, True):
            orbits += 1
            fiber = bijections.psi_fiber(u)
            fault = _invalid(*[x for p in fiber for x in (p.m, p)])
            if fault is None:
                fault = {"property": _fiber_fault(u, fiber)}
            if fault["property"] is not None:
                return {"n": n, "gluing": list(u.gluing.pairs),
                        "fiber_size": len(fiber),
                        "w": fiber[0].external_weight if fiber else None,
                        **fault}, orbits, n
            fibers[(u.q, fiber[0].external_weight)] += factorial(u.q)
        terms = {(q, r - 1): term for q in range(1, n + 2)
                 for r, term in formulas.u_terms(n, q, planar).items()}
        for q, w in sorted(terms.keys() | fibers.keys()):
            if fibers[(q, w)] != terms.get((q, w), 0):
                return {"n": n, "q": q, "w": w, "fibers": fibers[(q, w)],
                        "term": terms.get((q, w), 0)}, orbits, n
    return None, orbits, bound


def _closure_fault(t, p):
    """The payload fields of the first property the closure ``p`` of the
    tree ``t`` breaks, or None: ``p`` is a valid plane map that opening
    takes back to ``t``, oriented by dual distance as ``t`` is."""
    from . import planar_closure
    fault = _invalid(p.m, p)
    if fault is not None:
        return fault
    try:
        opened = planar_closure.opening_delta(p)
    except ValueError as exc:
        return {"property": "opening", "detail": str(exc)}
    if opened != t:
        return {"property": "opening"}
    if planar_closure.dual_distance_orientation(p) != t.tails | t.out_buds:
        return {"property": "orientation"}
    return None


def _check_gamma_roundtrip(bound, census):
    """:func:`_closure_fault` on every tree with at most ``2 bound``
    slots, so closure is injective.  Per edge count e, the trees, their
    closure images up to relabelling and the plane maps of the census
    (rooted planar maps with a marked face, the sum of r P_{q,r} over
    q + r - 2 = e) are equally many; so closure is onto, and opening
    inverts it on every plane map too."""
    from . import planar_closure
    plane_maps = Counter()
    for (q, r), count in census(bound).items():
        plane_maps[q + r - 2] += r * count
    trees = Counter()
    images = Counter()
    edges, keys = 0, set()
    for t in planar_closure.gen_near_eulerian_trees(2 * bound):
        # the trees come by ascending slot count, two slots per edge
        if len(t.sigma) != 2 * edges:
            edges, keys = len(t.sigma) // 2, set()
        trees[edges] += 1
        p = planar_closure.closure_gamma(t)
        fault = _closure_fault(t, p)
        if fault is not None:
            return {"tree": tree_payload(t), **fault}, trees.total(), edges
        keys.add(p.canonical_key())
        images[edges] = len(keys)
    for e in range(1, bound + 1):
        if not trees[e] == images[e] == plane_maps[e]:
            return {"edges": e, "trees": trees[e], "images": images[e],
                    "plane_maps": plane_maps[e]}, trees.total(), edges
    return None, trees.total(), edges


def _check_planar_totals(bound, census):
    planar = census(bound)

    def fault(e):
        total = sum(c for (q, r), c in planar.items() if q + r - 2 == e)
        expect = 2 * 3 ** e * factorial(2 * e) // (
            factorial(e) * factorial(e + 2))
        return None if total == expect else {
            "edges": e, "total": total, "expected": expect}
    return _first((e, fault(e)) for e in range(1, bound + 1))


def _check_algebraic_p(bound, census):
    from . import series
    p = series.p_series(census(bound - 2), bound)
    return (*series.check_algebraic_P(p), bound)


def _check_q_pde(bound, census):
    from . import series
    q = series.q_from_p(census(bound), bound - 2)
    return (*series.check_q_pde(q), bound)


def _check_rec_hp(bound, census):
    from . import series
    return (*series.check_rec_hp(census(bound + 3), bound), bound)


def _check_a_combination(bound, census):
    from . import series
    p = series.p_series(census(bound), bound + 2)
    return (*series.check_a_combination(p), bound)


def _check_qfd(bound, census):
    from . import enumeration, series
    return (*series.check_qfd(enumeration.vertex_profile(bound), bound),
            bound)


def _check_u_series(bound, census):
    """U = exp(t/2) Q(t/2, 2w) / 2 from the planar census: (2n)! times its
    t^n w^q coefficient against U_n(q)."""
    from . import formulas, series
    planar = census(bound)
    u = series.u_from_q(series.q_from_p(planar, bound))

    def fault(n, q):
        direct = u.coefficient(n, q) * factorial(2 * n)
        formula = formulas.u_formula(n, q, planar)
        return None if direct == formula else {
            "n": n, "q": q, "series": str(direct), "formula": formula}
    return _first((n, fault(n, q)) for n in range(1, bound + 1)
                  for q in range(1, n + 2))


# a registered check: what its bound measures, its default bound, what one
# of its instances is, and the check itself.  A bound at which the check
# examines no instance is refused.
Check = namedtuple("Check", "bound_name default unit run")

CHECKS = {
    "gluing-totals": Check("max_n", 12, "totals", _check_gluing_totals),
    "t-formula": Check("max_n", 13, "(n, q) values", _check_t_formula),
    "jackson": Check("max_n", 20, "(n, p, q) values", _check_jackson),
    "u-formula": Check("max_n", 12, "(n, q) values", _check_u_formula),
    "u-hat": Check("max_n", 20, "(n, N) values", _check_u_hat),
    "hz": Check("max_n", 13, "(n, v) points", _check_hz),
    "ledoux": Check("max_n", 12, "(n, v) points", _check_ledoux),
    "phi-roundtrip": Check("max_n", 4, "color orbits", _check_phi_roundtrip),
    "psi-fibers": Check("max_n", 3, "color orbits", _check_psi_fibers),
    "gamma-roundtrip": Check("max_edges", 5, "trees",
                             _check_gamma_roundtrip),
    "planar-totals": Check("max_edges", 20, "totals", _check_planar_totals),
    "algebraic-P": Check("max_degree", 24, "coefficients of P",
                         _check_algebraic_p),
    "q-pde": Check("max_edges", 20, "coefficients of Q", _check_q_pde),
    "rec-hP": Check("max_total", 18, "index pairs", _check_rec_hp),
    "a-combination": Check("max_edges", 20, "coefficients of P",
                           _check_a_combination),
    "qfd": Check("max_n", 12, "values of n", _check_qfd),
    "u-series": Check("max_n", 20, "(n, q) values", _check_u_series),
}
