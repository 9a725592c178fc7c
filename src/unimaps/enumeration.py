"""Exhaustive, duplicate-free generators for the object families we count,
and three exact counts of what they would take too long to list: one-face
maps by vertices and planar maps by (vertices, faces), each by a transfer
(over the shapes of the open sides, and over the edges), and the spanning
trees of a map, by the matrix-tree theorem.

Everything here uses exact integers; the generators are desk-scale brute
force, the ground truth against which every closed formula, every
bijection and every count is checked.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    PolygonGluing,
    RootedMap,
    _corner_colors,
    glue_polygon,
    glue_sides,
)


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


def _surjections(v: int, q: int, restricted: bool = False):
    """Every word of length ``v`` over ``1..q`` using each letter, in
    lexicographic order; with ``restricted``, only those whose letters
    first appear in the order ``1..q`` (restricted-growth words)."""
    word = [0] * v
    uses = [0] * (q + 1)

    def extend(i, missing):
        if i == v:
            yield tuple(word)
            return
        # a restricted-growth word has used 1..q-missing: one more at most
        top = q - missing + 1 if restricted and missing else q
        for c in range(1, top + 1):
            left = missing - (uses[c] == 0)
            if left > v - i - 1:
                continue
            word[i] = c
            uses[c] += 1
            yield from extend(i + 1, left)
            uses[c] -= 1

    yield from extend(0, q)


def gen_colored_unicellular(n: int, orientable_only: bool = False,
                            representatives: bool = False):
    """Stream every gluing with ``n`` edges colored onto ``1..q``, for
    every ``q``: gluings in :func:`gen_unicellular` order, then ``q``
    ascending, then the colorings (one color per vertex class) in
    lexicographic order.  With ``representatives``, only the colorings
    whose colors first appear in the order ``1..q``: one per orbit of the
    color permutations, each orbit holding ``q!`` colored maps."""
    labels = tuple(range(1, n + 1))
    for g in gen_unicellular(n, orientable_only):
        classes = glue_polygon(g)
        v = len(classes)
        for q in range(1, v + 1):
            for colors in _surjections(v, q, representatives):
                yield ColoredUnicellularMap._trusted(
                    g, colors, q, labels, vertex_classes=classes,
                    corner_colors=_corner_colors(classes, colors, n))


def _shape(sides) -> tuple:
    """The key of a transfer state with the open ``sides``: its shape
    ``(j, cycles)``, the length j of its path of open sides from label 0
    and its cycles' lengths, sorted.

    Count an end at each label of each open side, and one more each at
    label 0 and at the current label.  Every label has two ends: the start
    state, label 0 current with no side, has them, and each side keeps
    them.  Opening extends the path to the fresh corner.  Closing onto an
    open side (a, b) glues b to the current label and a to the fresh
    corner (twisted, the other way round): on a path side this cuts the
    far part of the path off as a cycle, and on a cycle side it splices
    the cycle into the path.  So a state is a path of open sides from 0 to
    the current label, which the sides fix, plus disjoint cycles.  On
    orientable surfaces the path points away from 0 and each cycle runs
    one way; on all surfaces a side's ends do not matter, since closing
    (a, b) untwisted glues what closing (b, a) twisted does.  So two
    states of one shape are relabellings of each other that fix 0, and
    have the same completions.

    A bipartite state's sides join two parities, so its path alternates
    from label 0 and its cycles are even: each label of its standard sides
    (:func:`_standard`) has its value's parity, since turning a cycle one
    step, a relabelling fixing 0, flips its phase.
    """
    ds = DisjointSets(1 + max((max(side) for side in sides), default=0))
    for a, b in sides:
        ds.union(a, b)
    lengths = Counter(ds.find(a) for a, _ in sides)
    j = lengths.pop(0, 0)  # a class's root is its least label
    return j, tuple(sorted(lengths.values()))


def _standard(shape: tuple) -> list:
    """The open sides of the standard state of ``shape``, pairwise
    distinct: the path (0, 1) .. (j - 1, j) to the current label j, then
    each cycle on fresh labels in ascending length."""
    j, cycles = shape
    sides = [(i, i + 1) for i in range(j)]
    for m in cycles:
        start = len(sides) + 1  # the first fresh label
        sides += [(start + i, start + (i + 1) % m) for i in range(m)]
    return sides


def _successors(shape: tuple, orientable_only: bool, base: int = 0):
    """The shapes one side after ``shape`` when that side runs to a fresh
    corner: the shape that opens it, which glues nothing, and a Counter
    of the gluings that close it onto each of the standard sides, by
    ``(shape, closed)``, where ``closed`` counts the vertex classes the
    gluing leaves without a live corner, an odd one ``base`` more."""
    j, cycles = shape
    sides = _standard(shape)
    fresh = len(sides) + 1
    twist_choices = (False,) if orientable_only else (False, True)
    closing = Counter()
    for i, (a, b) in enumerate(sides):
        # a bipartite closing dies if it glues two parities at label j
        if base and (b - j) % 2:
            continue
        rest = sides[:i] + sides[i + 1:]
        for twisted in twist_choices:
            ds = DisjointSets(fresh + 1)
            glue_sides(ds, a, b, j, fresh, twisted)
            find = ds.find
            rest_roots = [(find(x), find(y)) for x, y in rest]
            live = {0, find(fresh)}.union(*rest_roots)
            dead = {find(x) for x in range(fresh + 1)}.difference(live)
            closed = len(dead) + base * sum(x % 2 for x in dead)
            closing[_shape(rest_roots), closed] += 1
    return (j + 1, cycles), closing


def _add_shifted(level: dict, state: tuple, counts: dict, shift: int,
                 ways: int = 1) -> None:
    bucket = level.setdefault(state, {})
    for closed, count in counts.items():
        bucket[closed + shift] = bucket.get(closed + shift, 0) + ways * count


def vertex_profile(n: int, orientable_only: bool = False, *,
                   bipartite: bool = False) -> Counter:
    """Count gluings with at most ``n`` edges by edges and vertices: key
    ``(k, v)`` for every ``1 <= k <= n``, so none when ``n < 1``.

    With ``orientable_only`` this is the table of one-face maps on orientable
    surfaces; without, the table over all (locally orientable) surfaces.
    With ``bipartite`` (orientable only), the maps whose classes each keep
    one corner parity by ``(k, even, odd)``: a closing gluing two parities
    dies, a class has the parity of its root label (:func:`_shape`).

    Exact transfer over the polygon sides instead of a loop over the
    ``2^n (2n-1)!!`` gluings.  Side ``s`` runs from the current corner
    ``s`` to corner ``s+1``; it either opens a pair or closes one of the
    open sides (untwisted, or also twisted unless ``orientable_only``),
    gluing corners by :func:`maps_core.glue_sides`.  A state names the
    vertex classes of the live corners by labels, corner 0's class being
    label 0, and is its shape ``(j, cycles)`` (:func:`_shape`): a path of
    j open sides from label 0 to the current corner's label, and cycles,
    ``j + sum(cycles)`` open sides in no order, since any later side may
    close any of them.  Its value maps the number of classes already
    closed (no live corner left in them) to the number of partial
    gluings.  Shapes recur from one side to the next, so the successors
    of each are computed once per call, on its standard sides
    (:func:`_standard`).

    One pass gives every size: the last side of a polygon with ``2k``
    sides is side ``2k - 1``, so the row for ``k`` edges is read off the
    closings of the states with one open side there, whose fresh corner
    is corner 0 again.  The tests check the table against brute force over
    every gluing and against a labelled transfer.
    """
    if bipartite and not orientable_only:
        raise ValueError("the bipartite mode counts orientable maps only")
    base = n + 2 if bipartite else 0  # above any count of classes
    nn = 2 * n
    table = Counter()
    successors = {}
    level = {(0, ()): {0: 1}}
    for side in range(nn):
        following = {}
        # open this side only if the sides after it can close it too
        room = nn - side - 1
        for state, counts in level.items():
            if state not in successors:
                successors[state] = _successors(state, orientable_only, base)
            opened, closing = successors[state]
            open_sides = state[0] + sum(state[1])
            if side % 2 and open_sides == 1:
                # the last side of a polygon with side + 1 sides closes the
                # open side onto corner 0, the fresh corner of a closing,
                # which joins the two live classes into one even vertex
                for (_, closed), ways in closing.items():
                    for before, count in counts.items():
                        table[((side + 1) // 2, before + closed + 1)] += \
                            ways * count
            if not room:
                continue
            if open_sides < room:
                _add_shifted(following, opened, counts, 0)
            for (key, closed), ways in closing.items():
                _add_shifted(following, key, counts, closed, ways)
        level = following
    if bipartite:
        return Counter({(k, w % base - w // base, w // base): count
                        for (k, w), count in table.items()})
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


def planar_census(max_edges: int) -> Counter:
    """Counts of rooted planar maps by (vertices, faces): key ``(q, r)``.

    Covers all ``q + r - 2 <= max_edges``, including the single vertex map
    at ``(1, 1)``, which is all it holds when ``max_edges < 1``.

    Exact transfer over the edge count by deletion of the root edge (Tutte,
    "A census of planar maps"), with the degree of the root face as the
    catalytic variable.  ``levels[e]`` maps ``(root-face degree, vertices)``
    to the number of rooted planar maps with ``e`` edges; the face count
    follows from Euler's formula.  The tests check it against brute force
    over every rooted map.
    """
    table = Counter()
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
            table[(v, e + 2 - v)] += c
        levels.append(level)
    return table


def spanning_tree_count(m: RootedMap) -> int:
    """The number of spanning trees of the graph of ``m`` (Kirchhoff's
    matrix-tree theorem): the determinant of its Laplacian without the row
    and column of the last vertex.  A loop adds nothing, and parallel
    edges add to the entries.

    Bareiss's fraction-free elimination keeps every entry an exact
    integer.  The graph is connected, so the reduced Laplacian is positive
    definite: each pivot is a leading principal minor, positive, and no
    row needs swapping.
    """
    vid = m.vertex_index()
    size = max(vid)
    lap = [[0] * size for _ in range(size)]
    for h, g in enumerate(m.alpha):
        # each end of a non-loop edge adds its own row's two entries
        a, b = vid[h], vid[g]
        if a != b and a < size:
            lap[a][a] += 1
            if b < size:
                lap[a][b] -= 1
    previous = 1
    for k in range(size - 1):
        pivot_row = lap[k]
        pivot = pivot_row[k]
        for row in lap[k + 1:]:
            factor = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    return lap[-1][-1] if size else 1


def surjection_count(v: int, q: int) -> int:
    """Number of surjections from a ``v``-set onto a ``q``-set."""
    from math import comb

    if v < 0 or q < 0:
        raise ValueError("arguments must be nonnegative")
    return sum((-1) ** j * comb(q, j) * (q - j) ** v for j in range(q + 1))
