"""Registry of the identity checks: one implementation of each, run by
``unimaps verify`` and by the acceptance gate.

A check ``run(bound, census)`` examines every instance up to ``bound``
and returns None when all of them hold, else its first counterexample as
a JSON-ready dict.  ``census(max_edges)`` supplies the planar census, so
the command line can serve it from its cache and tests from
``enumeration.planar_census`` directly.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import comb, factorial

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


def _check_gluing_totals(bound, census):
    from . import enumeration, formulas
    eps = enumeration.vertex_profile(bound, True)
    eta = enumeration.vertex_profile(bound)
    for n in range(1, bound + 1):
        orientable = sum(eps[(n, v)] for v in range(1, n + 2))
        total = sum(eta[(n, v)] for v in range(1, n + 2))
        if orientable != formulas.double_factorial(2 * n - 1):
            return {"n": n, "orientable": orientable}
        if total != 2 ** n * formulas.double_factorial(2 * n - 1):
            return {"n": n, "total": total}
    return None


def _surjection_sums(bound, orientable_only, formula):
    """Colored counts as sums over the vertex profile, against
    ``formula(n, q)``: a map with v vertices has surj(v, q) colorings."""
    from . import enumeration
    table = enumeration.vertex_profile(bound, orientable_only)
    for n in range(1, bound + 1):
        for q in range(1, n + 2):
            direct = sum(table[(n, v)] * enumeration.surjection_count(v, q)
                         for v in range(1, n + 2))
            if direct != formula(n, q):
                return {"n": n, "q": q, "direct": direct,
                        "formula": formula(n, q)}
    return None


def _check_t_formula(bound, census):
    from . import formulas
    return _surjection_sums(bound, True, formulas.t_formula)


def _check_jackson(bound, census):
    from . import enumeration, formulas, maps_core
    surj = enumeration.surjection_count
    for n in range(1, bound + 1):
        by_pq = Counter()
        for g in enumeration.gen_unicellular(n, orientable_only=True):
            classes = maps_core.glue_polygon(g)
            # one-face bipartite maps have corners alternating by side
            if any(len({c % 2 for c in cls}) != 1 for cls in classes):
                continue
            even = sum(1 for cls in classes if cls[0] % 2 == 0)
            odd = len(classes) - even
            for p in range(1, even + 1):
                for q in range(1, odd + 1):
                    by_pq[(p, q)] += surj(even, p) * surj(odd, q)
        for p in range(1, n + 2):
            for q in range(1, n + 2):
                if by_pq[(p, q)] != formulas.jackson_formula(n, p, q):
                    return {"n": n, "p": p, "q": q, "brute": by_pq[(p, q)],
                            "formula": formulas.jackson_formula(n, p, q)}
    return None


def _check_u_formula(bound, census):
    from . import formulas
    planar = census(bound)
    return _surjection_sums(bound, False,
                            lambda n, q: formulas.u_formula(n, q, planar))


def _check_u_hat(bound, census):
    from . import formulas
    planar = census(bound)
    for n in range(1, bound + 1):
        # U_n(q) for q = 1..n+2, shared by every N
        u = [formulas.u_formula(n, q, planar) for q in range(1, n + 3)]
        for N in range(1, n + 3):
            direct = sum(comb(N, q) * u[q - 1] for q in range(1, N + 1))
            formula = formulas.u_hat_formula(n, N)
            if direct != formula:
                return {"n": n, "N": N, "direct": direct,
                        "formula": formula}
    return None


def _recurrence(bound, orientable_only, check, first_n):
    """The first failing ``check(table, n, v)`` on the eps or eta table,
    for ``first_n`` <= n <= ``bound`` and every v."""
    from . import enumeration
    table = enumeration.vertex_profile(bound, orientable_only)
    for n in range(first_n, bound + 1):
        for v in range(1, n + 2):
            verdict = check(table, n, v)
            if not verdict.ok:
                return {"detail": verdict.detail, "lhs": repr(verdict.lhs),
                        "rhs": repr(verdict.rhs)}
    return None


def _check_hz(bound, census):
    from . import formulas
    return _recurrence(bound, True, formulas.hz_recurrence_check, 1)


def _check_ledoux(bound, census):
    from . import formulas
    return _recurrence(bound, False, formulas.ledoux_check, 2)


def _pair(a, b) -> tuple:
    return (a, b) if a <= b else (b, a)


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


def _check_phi_roundtrip(bound, census):
    """phi maps onto valid tree-rooted maps, is inverted by phi_inverse,
    keeps the multiset of edge endpoint colors (property (*)), and has as
    many images on q vertices as the closed formula T_n(q) counts."""
    from . import bijections, enumeration, formulas
    for n in range(1, bound + 1):
        images = Counter()
        for u in enumeration.gen_colored_unicellular(n, True):
            t = bijections.phi(u)
            fault = _invalid(t.m, t)
            if fault is not None:
                return {"n": n, "gluing": list(u.gluing.pairs), **fault}
            if bijections.phi_inverse(t) != u:
                return {"n": n, "gluing": list(u.gluing.pairs),
                        "property": "round trip"}
            cc, nn = u.corner_colors, 2 * n
            label, vertex = t.vertex_labels, t.m.vertex_index()
            if sorted(_pair(cc[a], cc[(a + 1) % nn])
                      for a, _ in u.gluing.pairs) != \
                    sorted(_pair(label[vertex[h]], label[vertex[h2]])
                           for h, h2 in t.m.edges()):
                return {"n": n, "gluing": list(u.gluing.pairs),
                        "property": "color pairs"}
            images[t.q] += 1
        for q in range(1, n + 2):
            if images[q] != formulas.t_formula(n, q):
                return {"n": n, "q": q, "images": images[q],
                        "formula": formulas.t_formula(n, q)}
    return None


def degree_certificate_ok(u, p) -> bool:
    """Property (**) of a psi fiber element ``p`` over ``u``: the vertex
    labelled i has as many half-edges as ``u`` has corners colored i."""
    degrees = Counter()
    for cyc, label in zip(p.m.vertices(), p.vertex_labels):
        degrees[label] += len(cyc)
    return degrees == Counter(u.corner_colors)


def _fiber_fault(u, fiber):
    """The first property that psi's fiber over ``u`` breaks, or None: it
    has 2^w elements with distinct canonical keys and one weight w, which
    is 0 exactly on orientable gluings; psi maps each back to ``u``; and
    each has the vertex degrees of the corner colors (property (**)).
    The elements are taken to be valid."""
    from . import bijections
    if not fiber:
        return "empty fiber"
    w = fiber[0].external_weight
    if len(fiber) != 2 ** w:
        return "fiber size"
    if (w == 0) != u.gluing.orientable:
        return "weight"
    keys = set()
    for p in fiber:
        if p.external_weight != w:
            return "weight"
        if bijections.psi(p) != u:
            return "round trip"
        keys.add(p.canonical_key())
        if not degree_certificate_ok(u, p):
            return "degrees"
    return None if len(keys) == len(fiber) else "distinct keys"


def _check_psi_fibers(bound, census):
    """Every element of psi's fiber over every colored map is a valid
    externally-labelled planar-rooted map, and the fiber has the
    properties of :func:`_fiber_fault`."""
    from . import bijections, enumeration
    for n in range(1, bound + 1):
        for u in enumeration.gen_colored_unicellular(n, False):
            fiber = bijections.psi_fiber(u)
            fault = _invalid(*[x for p in fiber for x in (p.m, p)])
            if fault is None:
                fault = {"property": _fiber_fault(u, fiber)}
            if fault["property"] is not None:
                return {"n": n, "gluing": list(u.gluing.pairs),
                        "fiber_size": len(fiber),
                        "w": fiber[0].external_weight if fiber else None,
                        **fault}
    return None


def _check_gamma_roundtrip(bound, census):
    """Closure maps every tree with at most ``2 bound`` slots to a valid
    plane map, which opening inverts and whose dual-distance orientation
    is the tree's tails and outgoing buds; so closure is injective.  Per
    edge count e, the trees, their closure images up to relabelling and
    the plane maps of the census (rooted planar maps with a marked face,
    the sum of r P_{q,r} over q + r - 2 = e) are equally many; so closure
    is onto, and opening inverts it on every plane map too."""
    from . import planar_closure
    plane_maps = Counter()
    for (q, r), count in census(bound).items():
        plane_maps[q + r - 2] += r * count
    trees = Counter()
    images = Counter()
    edges, keys = 0, set()
    for t in planar_closure.gen_near_eulerian_trees(2 * bound):
        p = planar_closure.closure_gamma(t)
        fault = _invalid(p.m, p)
        if fault is not None:
            return {"tree": tree_payload(t), **fault}
        if planar_closure.opening_delta(p) != t or \
                planar_closure.dual_distance_orientation(p) != \
                t.tails | t.out_buds:
            return {"tree": tree_payload(t)}
        # the trees come by ascending slot count, two slots per edge
        if len(t.sigma) != 2 * edges:
            edges, keys = len(t.sigma) // 2, set()
        keys.add(p.canonical_key())
        trees[edges] += 1
        images[edges] = len(keys)
    for e in range(1, bound + 1):
        if not trees[e] == images[e] == plane_maps[e]:
            return {"edges": e, "trees": trees[e], "images": images[e],
                    "plane_maps": plane_maps[e]}
    return None


def _check_planar_totals(bound, census):
    planar = census(bound)
    for e in range(1, bound + 1):
        total = sum(c for (q, r), c in planar.items() if q + r - 2 == e)
        expect = 2 * 3 ** e * factorial(2 * e) // (
            factorial(e) * factorial(e + 2))
        if total != expect:
            return {"edges": e, "total": total, "expected": expect}
    return None


def _series_verdict(verdict):
    return None if verdict.ok else {"detail": verdict.detail}


def _check_algebraic_p(bound, census):
    from . import series
    return _series_verdict(series.check_algebraic_P(
        series.p_series(census(max(bound - 2, 1)), bound)))


def _check_q_pde(bound, census):
    from . import series
    return _series_verdict(series.check_q_pde(
        series.q_from_p(census(bound), bound - 2)))


def _check_rec_hp(bound, census):
    from . import series
    return _series_verdict(series.check_rec_hp(census(bound + 3), bound))


def _check_a_combination(bound, census):
    from . import series
    return _series_verdict(series.check_a_combination(
        series.p_series(census(bound), bound + 2)))


def _check_qfd(bound, census):
    from . import enumeration, series
    return _series_verdict(series.check_qfd(
        enumeration.vertex_profile(bound), bound))


# a registered check: what its bound measures, its default bound, the
# smallest bound at which it examines anything, and the check itself
Check = namedtuple("Check", "bound_name default minimum run")

# ledoux starts at n = 2, the quartic needs the x y term of P, and the PDE
# residual of Q at t-degree bound - 2 is trusted through bound - 6
CHECKS = {
    "gluing-totals": Check("max_n", 12, 1, _check_gluing_totals),
    "t-formula": Check("max_n", 13, 1, _check_t_formula),
    "jackson": Check("max_n", 6, 1, _check_jackson),
    "u-formula": Check("max_n", 12, 1, _check_u_formula),
    "u-hat": Check("max_n", 20, 1, _check_u_hat),
    "hz": Check("max_n", 13, 1, _check_hz),
    "ledoux": Check("max_n", 12, 2, _check_ledoux),
    "phi-roundtrip": Check("max_n", 4, 1, _check_phi_roundtrip),
    "psi-fibers": Check("max_n", 3, 1, _check_psi_fibers),
    "gamma-roundtrip": Check("max_edges", 5, 1, _check_gamma_roundtrip),
    "planar-totals": Check("max_edges", 20, 1, _check_planar_totals),
    "algebraic-P": Check("max_degree", 24, 2, _check_algebraic_p),
    "q-pde": Check("max_edges", 20, 4, _check_q_pde),
    "rec-hP": Check("max_total", 18, 1, _check_rec_hp),
    "a-combination": Check("max_edges", 20, 1, _check_a_combination),
    "qfd": Check("max_n", 12, 1, _check_qfd),
}
