"""Bi-Eulerian tours and the polygon-to-tour correspondence.

A bi-Eulerian tour of an undirected edge-labelled graph is a closed walk
using every edge exactly twice.  Walking around the unique face of a vertex
colored one-face map, reading off the color of each corner, traces exactly
such a tour on the graph whose vertices are the colors; this file implements
that correspondence (``xi`` / ``xi_inverse``).  The BEST-style split of a
tour into a tree and rotations lives in :mod:`unimaps.bijections`.

A tour keeps its graph as plain fields, the vertex count ``q`` and the
endpoint pair of every edge label, beside its origin and steps; there is
no separate graph record.  Validation re-derives what the graph needs
from the walk: a closed walk from the origin over every edge, on a graph
whose every vertex is an endpoint, proves the graph connected.

Tour steps are encoded as ``(label, direction)`` pairs.  For an edge with
distinct endpoints ``u < v``, direction 0 means the step goes from ``u`` to
``v``.  For a loop the first traversal always has direction 0, and the
second traversal has direction 0 if the loop is used twice in the same
direction and 1 otherwise; this matches the convention that a single loop
has exactly two bi-Eulerian tours.
"""

from __future__ import annotations

from . import maps_core
from .maps_core import ColoredUnicellularMap, PolygonGluing, record


@record
class BiEulerianTour:
    """Closed walk from ``origin`` using every edge of its graph twice.

    The graph has vertex set ``1..q`` and edges labelled ``1..n``:
    ``edges[k]`` is the endpoint pair ``(u, v)`` with ``u <= v`` of the
    edge labelled ``k+1``; loops have ``u == v``.  ``steps`` is a tuple of
    ``(label, direction)`` pairs; see the module docstring for the
    direction encoding and for why the walk proves the graph connected.
    """

    q: int
    edges: tuple
    origin: int
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(
            (u, v) if u <= v else (v, u) for u, v in self.edges))
        object.__setattr__(self, "steps", tuple(
            (int(l), int(d)) for l, d in self.steps))
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless every endpoint lies in ``1..q``, every
        vertex of ``1..q`` is an endpoint, and the steps walk every edge
        twice, from the origin back to it."""
        ends = self.edges
        n = len(ends)
        if not ends:
            raise ValueError("need at least one edge")
        touched = {x for e in ends for x in e}
        if not touched <= set(range(1, self.q + 1)):
            raise ValueError("edge endpoint out of range")
        if len(touched) != self.q:
            raise ValueError("a vertex of 1..q lies on no edge")
        steps = self.steps
        if len(steps) != 2 * n:
            raise ValueError("tour must have exactly 2n steps")
        seen = [0] * (n + 1)
        current = self.origin
        for label, d in steps:
            if not 1 <= label <= n or d not in (0, 1):
                raise ValueError("bad step")
            seen[label] += 1
            u, v = ends[label - 1]
            if u == v:
                if seen[label] == 1 and d != 0:
                    raise ValueError("first loop traversal must have direction 0")
                if current != u:
                    raise ValueError("tour leaves from the wrong vertex")
            else:
                frm, to = (u, v) if d == 0 else (v, u)
                if current != frm:
                    raise ValueError("tour leaves from the wrong vertex")
                current = to
        if current != self.origin:
            raise ValueError("tour does not return to its origin")
        if any(c != 2 for c in seen[1:]):
            raise ValueError("every edge must be used exactly twice")


# ---------------------------------------------------------------------------
# Polygon gluing <-> tour correspondence
# ---------------------------------------------------------------------------


def xi(u: ColoredUnicellularMap) -> BiEulerianTour:
    """Map a colored polygon gluing to the bi-Eulerian tour of its face,
    on the graph of its color pairs.

    Step ``k`` of the tour is side ``k`` of the polygon, going from the
    color of corner ``k`` to the color of corner ``k+1``; the edge labelled
    by the gluing pair of side ``k`` joins those two colors.  The gluing is
    twisted on an edge exactly when the tour uses that edge twice in the
    same direction.
    """
    g = u.gluing
    corner_color = u.corner_colors
    edge_list = [None] * g.n
    steps = [None] * (2 * g.n)
    for (a, b), twist, label in zip(g.pairs, g.twists, u.edge_labels):
        # a < b, so corner a + 1 needs no wrap-around
        x, y = corner_color[a], corner_color[a + 1]
        if x <= y:
            edge_list[label - 1] = (x, y)
            d = 0
        else:
            edge_list[label - 1] = (y, x)
            d = 1
        # side b runs between the same two colors, the other way round
        # unless the pair is twisted; a loop's first step has direction 0
        # and its second 0 exactly when it is twisted, which is the same
        # rule
        steps[a] = (label, d)
        steps[b] = (label, d if twist else 1 - d)
    return BiEulerianTour._trusted(u.q, tuple(edge_list), corner_color[0],
                                   tuple(steps))


def xi_inverse(tour: BiEulerianTour) -> ColoredUnicellularMap:
    """Rebuild the colored gluing whose face tour is ``tour``."""
    ends = tour.edges
    n = len(ends)
    # one pass: corner k gets the from-color of step k, and every label
    # its pair of positions, in order of first use, so that each pair is
    # (i, j) with i < j and the pairs are sorted; a pair is twisted
    # exactly when the tour takes its edge twice in the same direction
    # (a loop's first step has direction 0)
    corner_color = []
    pair_of = [-1] * (n + 1)
    labels, pairs, twists = [], [], []
    for k, (label, d) in enumerate(tour.steps):
        u, v = ends[label - 1]
        corner_color.append(v if d else u)
        i = pair_of[label]
        if i < 0:
            pair_of[label] = len(labels)
            labels.append(label)
            pairs.append(k)
            twists.append(d)  # the first direction, until the second
        else:
            pairs[i] = (pairs[i], k)
            twists[i] = d == twists[i]
    gluing = PolygonGluing._trusted(n, tuple(pairs), tuple(twists))
    # looked up on the module, so that a wrapper installed there is called
    classes = maps_core.glue_polygon(gluing)
    colors = []
    for cls in classes:
        color = corner_color[cls[0]]
        for c in cls:
            if corner_color[c] != color:
                raise ValueError(
                    "tour colors are inconsistent with the gluing")
        colors.append(color)
    return ColoredUnicellularMap._trusted(
        gluing, tuple(colors), tour.q, tuple(labels),
        vertex_classes=classes, corner_colors=tuple(corner_color))
