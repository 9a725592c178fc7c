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

The three exhaustive bijection checks, ``phi-roundtrip``, ``psi-fibers``
and ``gamma-roundtrip``, examine each instance on its own: each builds
its list of instances (color orbits, or tree shapes) and reads
:func:`_in_order`'s results, which shares the list among forked
processes, in one sequential loop.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from itertools import groupby, product
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


class WorkerError(RuntimeError):
    """An exception raised in a forked share of a check; its message is
    the share's traceback."""


def _workers(units: int) -> int:
    """How many processes share ``units`` units of work: one per CPU this
    process may run on, at most one per unit, and at least one."""
    import os
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return max(1, min(usable, units))


def _in_order(items: list, examine) -> list:
    """``[examine(x) for x in items]``, cut after the first result whose
    last field, its fault, is not None.  ``examine`` returns marshal
    data, which a forked share sends back through a pipe.

    W = ``_workers(len(items))`` processes share the items: share k
    examines ``items[k::W]`` and stops after its own first fault.  The
    parent forks W - 1 children, each sending its list through a pipe,
    runs share 0 itself, and interleaves the lists back into item order,
    stopping at the first fault or the first missing result.  That is
    the sequential list: a share stops only at its own first fault, so
    every item before the earliest fault was examined by its share, and
    the earliest fault is reached before any missing result.  With W = 1,
    or without ``os.fork``, the one share runs here and nothing is forked.

    The parent reads every pipe before it reaps any child, so a child
    blocked on a full pipe always gets read.  A child always ends in
    ``os._exit``; an exception there reaches the caller as a
    :class:`WorkerError` with the child's traceback.  When the parent's
    own share raises, it kills and reaps every child.

    Fork, not spawn: a child starts with the parent's modules and data,
    the items among them, where a spawned one would first pay the
    interpreter start-up that light commands spend most of their time
    in.  The package starts no threads, which a fork would not carry
    over."""
    import gc
    import marshal
    import os
    w = _workers(len(items)) if hasattr(os, "fork") else 1

    def share(k):
        results = []
        for x in items[k::w]:
            results.append(examine(x))
            if results[-1][-1] is not None:
                break
        return results
    if w == 1:
        return share(0)
    children = []  # (pid, read end of its pipe)
    gc.freeze()  # the children's collections leave the shared heap alone
    try:
        for k in range(1, w):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    try:
                        data = marshal.dumps((True, share(k)))
                    except BaseException:
                        import traceback
                        data = marshal.dumps((False, traceback.format_exc()))
                    with os.fdopen(write_end, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        shares = [share(0)]
    except BaseException:
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # read every pipe, then reap every child
        sent = []
        for _, read_end in children:
            with os.fdopen(read_end, "rb") as pipe:
                sent.append(pipe.read())
        ended = [os.waitpid(pid, 0)[1] for pid, _ in children]
        gc.unfreeze()
    for data, status in zip(sent, ended):
        if status != 0:
            raise WorkerError(f"a share of the check ended with wait "
                              f"status {status}")
        ok, result = marshal.loads(data)
        if not ok:
            raise WorkerError(result)
        shares.append(result)
    results = []
    for i in range(len(items)):
        share_results = shares[i % w]
        if i // w == len(share_results):
            break
        results.append(share_results[i // w])
        if results[-1][-1] is not None:
            break
    return results


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


def _orbit_check(bound, orientable_only, examine, totals_fault):
    """Examine one colored map per color orbit, by levels n = 1..bound,
    through :func:`_in_order`.  ``examine(n, u)`` returns the tally key of
    the orbit of ``u``, which counts q!, and its fault payload or None;
    ``totals_fault(n, tally)`` compares a level's tallies with the
    formula."""
    from . import enumeration
    items = [(n, u) for n in range(1, bound + 1)
             for u in enumeration.gen_colored_unicellular(
                 n, orientable_only, True)]
    results = _in_order(items, lambda item: examine(*item))
    orbits = 0
    for n, level in groupby(zip(items, results), key=lambda r: r[0][0]):
        tally = Counter()
        for (_, u), (key, fault) in level:
            orbits += 1
            if fault is not None:
                return fault, orbits, n
            tally[key] += factorial(u.q)
        fault = totals_fault(n, tally)
        if fault is not None:
            return fault, orbits, n
    return None, orbits, bound


def _check_phi_roundtrip(bound, census):
    """:func:`_phi_fault` on one colored map per color orbit; the images
    on q vertices, q! per orbit, against T_n(q)."""
    from . import formulas

    def examine(n, u):
        fault = _phi_fault(u)
        if fault is not None:
            return None, {"n": n, "gluing": list(u.gluing.pairs), **fault}
        return u.q, None

    def totals_fault(n, images):
        for q in range(1, n + 2):
            if images[q] != formulas.t_formula(n, q):
                return {"n": n, "q": q, "images": images[q],
                        "formula": formulas.t_formula(n, q)}
        return None
    return _orbit_check(bound, True, examine, totals_fault)


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
    from . import bijections, formulas
    planar = census(bound)

    def examine(n, u):
        fiber = bijections.psi_fiber(u)
        fault = _invalid(*[x for p in fiber for x in (p.m, p)])
        if fault is None:
            fault = {"property": _fiber_fault(u, fiber)}
        if fault["property"] is not None:
            return None, {"n": n, "gluing": list(u.gluing.pairs),
                          "fiber_size": len(fiber),
                          "w": fiber[0].external_weight if fiber else None,
                          **fault}
        return (u.q, fiber[0].external_weight), None

    def totals_fault(n, fibers):
        terms = {(q, r - 1): term for q in range(1, n + 2)
                 for r, term in formulas.u_terms(n, q, planar).items()}
        for q, w in sorted(terms.keys() | fibers.keys()):
            if fibers[(q, w)] != terms.get((q, w), 0):
                return {"n": n, "q": q, "w": w, "fibers": fibers[(q, w)],
                        "term": terms.get((q, w), 0)}
        return None
    return _orbit_check(bound, False, examine, totals_fault)


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
    inverts it on every plane map too.  :func:`_in_order` examines the
    tree shapes, which come by ascending slot count, two slots per edge;
    each shape's trees are decorated where it is examined."""
    from . import planar_closure
    plane_maps = Counter()
    for (q, r), count in census(bound).items():
        plane_maps[q + r - 2] += r * count

    def examine(shape):
        # the shape's edge count, its trees examined, the closure images'
        # keys, and the first fault
        edges, trees, keys = 0, 0, set()
        for t in planar_closure._decorate(shape):
            edges, trees = len(t.sigma) // 2, trees + 1
            p = planar_closure.closure_gamma(t)
            fault = _closure_fault(t, p)
            if fault is not None:
                return edges, trees, keys, {"tree": tree_payload(t), **fault}
            keys.add(p.canonical_key())
        return edges, trees, keys, None

    trees, images, edges = Counter(), {}, 0
    for shape_edges, shape_trees, keys, fault in _in_order(
            list(planar_closure._tree_shapes(2 * bound)), examine):
        if shape_trees:
            edges = shape_edges
            trees[edges] += shape_trees
            images.setdefault(edges, set()).update(keys)
        if fault is not None:
            return fault, trees.total(), edges
    for e in range(1, bound + 1):
        found = len(images.get(e, ()))
        if not trees[e] == found == plane_maps[e]:
            return {"edges": e, "trees": trees[e], "images": found,
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
