"""Exhaustive, duplicate-free generators for the object families we count,
and exact transfers for the two count tables they would take too long to
list: one-face maps by vertices and planar maps by (vertices, faces).

Everything here uses exact integers; the generators are desk-scale brute
force, the ground truth against which every closed formula, every
bijection and both transfers are checked.
"""

from __future__ import annotations

import itertools

from .maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    PolygonGluing,
    RootedMap,
    glue_polygon,
    glue_sides,
)


class CountTable:
    """Finite mapping from integer tuples to exact nonnegative integers.

    Missing keys count as zero.
    """

    def __init__(self, by_key: dict = None):
        self.by_key = {} if by_key is None else by_key

    def __getitem__(self, key) -> int:
        return self.by_key.get(tuple(key), 0)

    def __setitem__(self, key, value: int) -> None:
        self.by_key[tuple(key)] = value

    def add(self, key, value: int = 1) -> None:
        key = tuple(key)
        self.by_key[key] = self.by_key.get(key, 0) + value

    def items(self):
        return sorted(self.by_key.items())

    def total(self) -> int:
        return sum(self.by_key.values())

    def merge(self, other: "CountTable") -> None:
        for key, value in other.by_key.items():
            self.add(key, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        a = {k: v for k, v in self.by_key.items() if v}
        b = {k: v for k, v in other.by_key.items() if v}
        return a == b


def _matchings(elements):
    """All perfect matchings of the list ``elements`` as lists of pairs."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for i, other in enumerate(rest):
        tail = rest[:i] + rest[i + 1:]
        for sub in _matchings(tail):
            yield [(first, other)] + sub


def gen_unicellular(n: int, orientable_only: bool = False):
    """Stream every rooted unicellular map with ``n`` edges as a gluing.

    Produces each gluing exactly once: ``(2n-1)!!`` orientable gluings, or
    ``2^n (2n-1)!!`` in total.
    """
    if n < 1:
        raise ValueError("need at least one edge")
    twist_choices = (False,) if orientable_only else (False, True)
    for matching in _matchings(list(range(2 * n))):
        # each pair (a, b) has a < b, and the pairs come sorted by a
        pairs = tuple(matching)
        for twists in itertools.product(twist_choices, repeat=n):
            yield PolygonGluing._trusted(n, pairs, twists)


def _surjections(v: int, q: int):
    """Every word of length ``v`` over ``1..q`` using each letter, in
    lexicographic order."""
    word = [0] * v
    uses = [0] * (q + 1)

    def extend(i, missing):
        if i == v:
            yield tuple(word)
            return
        for c in range(1, q + 1):
            left = missing - (uses[c] == 0)
            if left > v - i - 1:
                continue
            word[i] = c
            uses[c] += 1
            yield from extend(i + 1, left)
            uses[c] -= 1

    yield from extend(0, q)


def gen_colored_unicellular(n: int, orientable_only: bool = False):
    """Stream every gluing with ``n`` edges colored onto ``1..q``, for
    every ``q``: gluings in :func:`gen_unicellular` order, then ``q``
    ascending, then the colorings (one color per vertex class) in
    lexicographic order."""
    labels = tuple(range(1, n + 1))
    for g in gen_unicellular(n, orientable_only):
        skel = glue_polygon(g)
        v = skel.vertex_count
        for q in range(1, v + 1):
            for colors in _surjections(v, q):
                yield ColoredUnicellularMap._trusted(g, skel, colors, q,
                                                     labels)


def _first_appearance(labels) -> tuple:
    """Relabel a sequence by order of first appearance: (5, 2, 5) -> (0, 1, 0)."""
    names = {}
    return tuple(names.setdefault(x, len(names)) for x in labels)


def _add_shifted(level: dict, state: tuple, counts: dict, shift: int) -> None:
    bucket = level.setdefault(state, {})
    for closed, count in counts.items():
        bucket[closed + shift] = bucket.get(closed + shift, 0) + count


def vertex_profile(n: int, orientable_only: bool = False) -> CountTable:
    """Count gluings with ``n`` edges by vertex number: key ``(n, v)``.

    With ``orientable_only`` this is the table of one-face maps on orientable
    surfaces; without, the table over all (locally orientable) surfaces.

    Exact transfer over the polygon sides instead of a loop over the
    ``2^n (2n-1)!!`` gluings.  Side ``k`` runs from the current corner ``k``
    to corner ``k+1``; it either opens a pair or closes one of the open
    sides (untwisted, or also twisted unless ``orientable_only``).  A state
    labels the live corners -- corner 0, the current corner, then the start
    and end corner of each open side in scan order -- by vertex class, in
    first-appearance order.  Its value maps the number of classes already
    closed (no live corner left in them) to the number of partial gluings.
    The tests check it against brute force over every gluing.
    """
    if n < 1:
        raise ValueError("need at least one edge")
    nn = 2 * n
    twist_choices = (False,) if orientable_only else (False, True)
    level = {(0, 0): {0: 1}}
    for side in range(nn):
        last = side == nn - 1
        following = {}
        for state, counts in level.items():
            labels = max(state) + 1
            # the new corner gets a fresh label, except that the end corner
            # of the last side is corner 0 itself
            end = state[0] if last else labels
            size = labels if last else labels + 1
            start = state[1]
            # open this side only if the sides after it can close it too
            if len(state) // 2 < nn - side:
                _add_shifted(following, _first_appearance(
                    (state[0], end) + state[2:] + (start, end)), counts, 0)
            for i in range(2, len(state), 2):
                live = (state[0], end) + state[2:i] + state[i + 2:]
                for twisted in twist_choices:
                    ds = DisjointSets(size)
                    glue_sides(ds, state[i], state[i + 1], start, end,
                               twisted)
                    roots = [ds.find(x) for x in live]
                    closed = len(ds.classes()) - len(set(roots))
                    _add_shifted(following, _first_appearance(roots),
                                 counts, closed)
        level = following
    table = CountTable()
    for closed, count in level[(0, 0)].items():
        table[(n, closed + 1)] = count
    return table


def gen_rooted_orientable_maps(e: int):
    """Stream one canonical representative per rooted-isomorphism class of
    rooted maps with ``e`` edges on orientable surfaces, all genera.

    Maps are built directly in canonical form (half-edge labels equal to the
    first-visit order of the root traversal), so no dedupe pass is needed,
    and connected by construction, so none is validated again.
    """
    if e < 1:
        raise ValueError("need at least one edge")
    n = 2 * e
    sigma = [-1] * n
    alpha = [-1] * n
    sigma_used = [False] * n

    def rec(event: int, k: int):
        if event == 2 * n:
            yield RootedMap._trusted(tuple(sigma), tuple(alpha), 0)
            return
        h, kind = divmod(event, 2)
        if h >= k:
            return  # traversal closed early: disconnected
        if kind == 0:  # examine alpha[h]
            if alpha[h] >= 0:
                yield from rec(event + 1, k)
                return
            for j in range(k):
                if alpha[j] < 0 and j != h:
                    alpha[h], alpha[j] = j, h
                    yield from rec(event + 1, k)
                    alpha[h] = alpha[j] = -1
            if k < n:
                alpha[h], alpha[k] = k, h
                yield from rec(event + 1, k + 1)
                alpha[h] = alpha[k] = -1
        else:  # choose sigma[h]
            for j in range(k):
                if not sigma_used[j]:
                    sigma[h] = j
                    sigma_used[j] = True
                    yield from rec(event + 1, k)
                    sigma_used[j] = False
            sigma[h] = -1
            if k < n:
                sigma[h] = k
                sigma_used[k] = True
                yield from rec(event + 1, k + 1)
                sigma_used[k] = False
                sigma[h] = -1

    yield from rec(0, 1)


def planar_census(max_edges: int) -> CountTable:
    """Counts of rooted planar maps by (vertices, faces): key ``(q, r)``.

    Covers all ``q + r - 2 <= max_edges``, including the single vertex map
    at ``(1, 1)``.

    Exact transfer over the edge count by deletion of the root edge (Tutte,
    "A census of planar maps"), with the degree of the root face as the
    catalytic variable.  ``levels[e]`` maps ``(root-face degree, vertices)``
    to the number of rooted planar maps with ``e`` edges; the face count
    follows from Euler's formula.  The tests check it against brute force
    over every rooted map.
    """
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    table = CountTable()
    table[(1, 1)] = 1
    levels = [{(0, 1): 1}]
    for e in range(1, max_edges + 1):
        level = {}
        # the root edge is an isthmus: deleting it leaves two maps whose
        # root faces join around it
        for a in range(e):
            for (d1, v1), c1 in levels[a].items():
                for (d2, v2), c2 in levels[e - 1 - a].items():
                    key = (d1 + d2 + 2, v1 + v2)
                    level[key] = level.get(key, 0) + c1 * c2
        # otherwise it splits the root face of degree d of a map with one
        # edge fewer, leaving a new root face of degree 1 .. d + 1
        for (d, v), c in levels[e - 1].items():
            for k in range(1, d + 2):
                level[(k, v)] = level.get((k, v), 0) + c
        for (_, v), c in level.items():
            table.add((v, e + 2 - v), c)
        levels.append(level)
    return table


def spanning_edge_subsets(m: RootedMap):
    """Edge subsets of ``m`` forming spanning trees, as frozensets of edge
    ids (minimum half-edge per edge)."""
    edges = [min(c) for c in m.edges()]
    vid = m.vertex_index()
    q = max(vid) + 1
    out = []
    for subset in itertools.combinations(edges, q - 1):
        ds = DisjointSets(q)
        ok = True
        for eid in subset:
            a, b = vid[eid], vid[m.alpha[eid]]
            if ds.find(a) == ds.find(b):
                ok = False
                break
            ds.union(a, b)
        if ok:
            out.append(frozenset(subset))
    return out


def gen_tree_rooted_maps(n: int, q: int):
    """Stream all (rooted orientable map with ``n`` edges and vertex set
    ``[q]``, marked spanning tree) triples.

    Yields tuples ``(map, vertex_labels, tree)`` where ``vertex_labels`` maps
    each vertex id (minimum half-edge of its sigma-orbit) to a label in
    ``1..q`` bijectively, and ``tree`` is a frozenset of edge ids.
    """
    if not 1 <= q <= n + 1:
        raise ValueError("need 1 <= q <= n+1")
    for m in gen_rooted_orientable_maps(n):
        verts = [min(c) for c in m.vertices()]
        if len(verts) != q:
            continue
        trees = spanning_edge_subsets(m)
        for perm in itertools.permutations(range(1, q + 1)):
            labels = dict(zip(verts, perm))
            for tree in trees:
                yield m, labels, tree


def surjection_count(v: int, q: int) -> int:
    """Number of surjections from a ``v``-set onto a ``q``-set."""
    from math import comb

    if v < 0 or q < 0:
        raise ValueError("arguments must be nonnegative")
    return sum((-1) ** j * comb(q, j) * (q - j) ** v for j in range(q + 1))
