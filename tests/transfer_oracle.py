"""Test oracles of the one-face transfer
:func:`unimaps.enumeration.vertex_profile`: the labelled transfer, the
middle oracle between brute force over every gluing and the multiset
transfer; and two counts of bipartite one-face maps, one over every
orientable gluing and one over the factorizations of a cycle."""

from __future__ import annotations

import itertools
from collections import Counter

from unimaps.enumeration import gen_unicellular
from unimaps.maps_core import DisjointSets, glue_polygon, glue_sides


def _first_appearance(labels) -> tuple:
    """Relabel a sequence by order of first appearance: (5, 2, 5) -> (0, 1, 0)."""
    names = {}
    return tuple(names.setdefault(x, len(names)) for x in labels)


def _add_shifted(level: dict, state: tuple, counts: dict, shift: int) -> None:
    bucket = level.setdefault(state, {})
    for closed, count in counts.items():
        bucket[closed + shift] = bucket.get(closed + shift, 0) + count


def labelled_vertex_profile(n: int, orientable_only: bool = False) -> Counter:
    """Count gluings with ``n`` edges by vertex number: key ``(n, v)``.

    Exact transfer over the polygon sides instead of a loop over the
    ``2^n (2n-1)!!`` gluings.  Side ``k`` runs from the current corner ``k``
    to corner ``k+1``; it either opens a pair or closes one of the open
    sides (untwisted, or also twisted unless ``orientable_only``).  A state
    labels the live corners -- corner 0, the current corner, then the start
    and end corner of each open side in scan order -- by vertex class, in
    first-appearance order.  Its value maps the number of classes already
    closed (no live corner left in them) to the number of partial gluings.
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
    table = Counter()
    for closed, count in level[(0, 0)].items():
        table[(n, closed + 1)] = count
    return table


def bipartite_profile_by_gluings(n: int) -> Counter:
    """Count orientable gluings with ``n`` edges whose vertex classes each
    hold corners of one parity, by even and odd classes: key
    ``(n, even, odd)``.

    An untwisted pair (a, b) glues a to b + 1 and a + 1 to b, and 2n is
    even, so a gluing is bipartite exactly when each of its pairs joins an
    even side and an odd side; the others are skipped unglued."""
    table = Counter()
    for g in gen_unicellular(n, orientable_only=True):
        if any((a + b) % 2 == 0 for a, b in g.pairs):
            continue
        classes = glue_polygon(g)
        even = sum(1 for cls in classes if cls[0] % 2 == 0)
        table[(n, even, len(classes) - even)] += 1
    return table


def _cycle_count(perm) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return cycles


def factorization_profile(n: int) -> Counter:
    """Count the factorizations s1 s2 = (0 1 .. n-1) in S_n by the cycle
    counts of s1 and s2: key ``(n, cycles(s1), cycles(s2))``.

    A rooted bipartite one-face map with n edges is such a factorization:
    the edges labelled around the face from the root, s1 and s2 turn
    around the vertices of either part, and their product runs along the
    face.  Each s1 fixes s2 = s1^-1 (0 1 .. n-1); products act right to
    left, s2 first."""
    table = Counter()
    for s1 in itertools.permutations(range(n)):
        inverse = [0] * n
        for x, y in enumerate(s1):
            inverse[y] = x
        s2 = [inverse[(x + 1) % n] for x in range(n)]
        table[(n, _cycle_count(s1), _cycle_count(s2))] += 1
    return table
