"""Bi-Eulerian tours, the polygon-to-tour correspondence, and BEST.

A bi-Eulerian tour of an undirected edge-labelled graph is a closed walk
using every edge exactly twice.  Walking around the unique face of a vertex
colored one-face map, reading off the color of each corner, traces exactly
such a tour on the graph whose vertices are the colors; this file implements
that correspondence (``xi`` / ``xi_inverse``) and the BEST decomposition of
Eulerian tours on directed graphs used to enumerate the tours.

Tour steps are encoded as ``(label, direction)`` pairs.  For an edge with
distinct endpoints ``u < v``, direction 0 means the step goes from ``u`` to
``v``.  For a loop the first traversal always has direction 0, and the
second traversal has direction 0 if the loop is used twice in the same
direction and 1 otherwise; this matches the convention that a single loop
has exactly two bi-Eulerian tours.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maps_core import ColoredUnicellularMap, PolygonGluing


@dataclass(frozen=True)
class EdgeLabelledGraph:
    """Connected undirected graph, vertex set ``1..q``, edges labelled
    ``1..n``.  ``edges[k]`` is the endpoint pair ``(u, v)`` with ``u <= v``
    of the edge labelled ``k+1``; loops have ``u == v``."""

    q: int
    edges: tuple

    def __post_init__(self):
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.q < 1 or not edges:
            raise ValueError("need at least one vertex and one edge")
        for u, v in edges:
            if not (1 <= u <= self.q and 1 <= v <= self.q):
                raise ValueError("edge endpoint out of range")
        # connectivity (isolated vertices are not allowed either)
        adj = {v: set() for v in range(1, self.q + 1)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.q:
            raise ValueError("graph is not connected")

    @property
    def n(self) -> int:
        return len(self.edges)

    def endpoints(self, label: int) -> tuple:
        return self.edges[label - 1]

    def is_loop(self, label: int) -> bool:
        u, v = self.edges[label - 1]
        return u == v


@dataclass(frozen=True)
class BiEulerianTour:
    """Closed walk on an :class:`EdgeLabelledGraph` using every edge twice.

    ``steps`` is a tuple of ``(label, direction)`` pairs; see the module
    docstring for the direction encoding.
    """

    graph: EdgeLabelledGraph
    origin: int
    steps: tuple

    def __post_init__(self):
        g = self.graph
        steps = tuple((int(l), int(d)) for l, d in self.steps)
        object.__setattr__(self, "steps", steps)
        if len(steps) != 2 * g.n:
            raise ValueError("tour must have exactly 2n steps")
        seen: dict[int, int] = {}
        current = self.origin
        for label, d in steps:
            if not 1 <= label <= g.n or d not in (0, 1):
                raise ValueError("bad step")
            seen[label] = seen.get(label, 0) + 1
            u, v = g.endpoints(label)
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
        if any(c != 2 for c in seen.values()) or len(seen) != g.n:
            raise ValueError("every edge must be used exactly twice")

    def step_endpoints(self, k: int) -> tuple:
        """Ordered pair (from, to) of the k-th step."""
        label, d = self.steps[k]
        u, v = self.graph.endpoints(label)
        if u == v:
            return u, u
        return (u, v) if d == 0 else (v, u)

    def oriented_edges(self) -> frozenset:
        """Labels of edges taken twice in the same direction."""
        first: dict[int, int] = {}
        out = set()
        for label, d in self.steps:
            if label not in first:
                first[label] = d
                continue
            if self.graph.is_loop(label):
                if d == 0:
                    out.add(label)
            elif d == first[label]:
                out.add(label)
        return frozenset(out)

    @property
    def direction_free(self) -> bool:
        """True when no edge is repeated in the same direction."""
        return not self.oriented_edges()


def gen_bi_eulerian_tours(g: EdgeLabelledGraph, origin: int):
    """Backtracking enumeration of all bi-Eulerian tours with ``origin``."""
    uses = [0] * (g.n + 1)
    first_dir = [0] * (g.n + 1)
    steps: list = []
    total = 2 * g.n

    def rec(current: int):
        if len(steps) == total:
            if current == origin:
                yield BiEulerianTour(g, origin, tuple(steps))
            return
        for label in range(1, g.n + 1):
            if uses[label] == 2:
                continue
            u, v = g.endpoints(label)
            if u == v:
                if current != u:
                    continue
                dirs = (0,) if uses[label] == 0 else (0, 1)
                for d in dirs:
                    uses[label] += 1
                    steps.append((label, d))
                    yield from rec(u)
                    steps.pop()
                    uses[label] -= 1
            else:
                if current == u:
                    d, to = 0, v
                elif current == v:
                    d, to = 1, u
                else:
                    continue
                uses[label] += 1
                steps.append((label, d))
                yield from rec(to)
                steps.pop()
                uses[label] -= 1

    yield from rec(origin)


# ---------------------------------------------------------------------------
# Polygon gluing <-> tour correspondence
# ---------------------------------------------------------------------------


def xi(u: ColoredUnicellularMap) -> tuple:
    """Map a colored polygon gluing to its graph and bi-Eulerian tour.

    Step ``k`` of the tour is side ``k`` of the polygon, going from the
    color of corner ``k`` to the color of corner ``k+1``; the edge labelled
    by the gluing pair of side ``k`` joins those two colors.  The gluing is
    twisted on an edge exactly when the tour uses that edge twice in the
    same direction.
    """
    g = u.gluing
    nn = 2 * g.n
    corner_color = u.corner_colors
    label_of_side = {}
    twist_of_side = {}
    edge_list = [None] * g.n
    for k, ((a, b), twist) in enumerate(zip(g.pairs, g.twists)):
        label = u.edge_labels[k]
        label_of_side[a] = label_of_side[b] = label
        twist_of_side[a] = twist_of_side[b] = twist
        ends = tuple(sorted((corner_color[a], corner_color[(a + 1) % nn])))
        edge_list[label - 1] = ends
    graph = EdgeLabelledGraph(u.q, tuple(edge_list))
    steps = []
    seen = set()
    for k in range(nn):
        label = label_of_side[k]
        frm = corner_color[k]
        uu, vv = graph.endpoints(label)
        if uu == vv:
            if label not in seen:
                d = 0
            else:
                d = 0 if twist_of_side[k] else 1
        else:
            d = 0 if frm == uu else 1
        seen.add(label)
        steps.append((label, d))
    tour = BiEulerianTour(graph, corner_color[0], tuple(steps))
    return graph, tour


def xi_inverse(graph: EdgeLabelledGraph, tour: BiEulerianTour) -> ColoredUnicellularMap:
    """Rebuild the colored gluing whose face tour is ``tour``."""
    if tour.graph != graph:
        raise ValueError("tour does not live on the given graph")
    n = graph.n
    positions: dict[int, list] = {}
    for k, (label, _) in enumerate(tour.steps):
        positions.setdefault(label, []).append(k)
    pairs = []
    twists = []
    labels = []
    for label, (i, j) in sorted(positions.items(), key=lambda kv: min(kv[1])):
        d_i = tour.steps[i][1]
        d_j = tour.steps[j][1]
        if graph.is_loop(label):
            twisted = d_j == 0
        else:
            twisted = d_i == d_j
        pairs.append((i, j))
        twists.append(twisted)
        labels.append(label)
    gluing = PolygonGluing(n, tuple(pairs), tuple(twists))
    # colors: corner k gets the from-color of step k; check consistency
    from .maps_core import glue_polygon

    skel = glue_polygon(gluing)
    corner_color = [tour.step_endpoints(k)[0] for k in range(2 * n)]
    colors = []
    for cls in skel.vertex_classes:
        values = {corner_color[c] for c in cls}
        if len(values) != 1:
            raise ValueError("tour colors are inconsistent with the gluing")
        colors.append(values.pop())
    return ColoredUnicellularMap._on_skeleton(gluing, skel, tuple(colors),
                                              graph.q, tuple(labels))


# ---------------------------------------------------------------------------
# BEST theorem on explicit digraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph on vertices ``1..q``; arc ``a`` goes from
    ``arcs[a][0]`` to ``arcs[a][1]``."""

    q: int
    arcs: tuple

    def __post_init__(self):
        arcs = tuple(tuple(a) for a in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        for t, h in arcs:
            if not (1 <= t <= self.q and 1 <= h <= self.q):
                raise ValueError("arc endpoint out of range")


def gen_eulerian_tours(g: Digraph, origin: int):
    """All Eulerian tours of ``g`` from ``origin``, as arc-id sequences."""
    used = [False] * len(g.arcs)
    seq: list = []

    def rec(current: int):
        if len(seq) == len(g.arcs):
            if current == origin:
                yield tuple(seq)
            return
        for a, (t, h) in enumerate(g.arcs):
            if not used[a] and t == current:
                used[a] = True
                seq.append(a)
                yield from rec(h)
                seq.pop()
                used[a] = False

    yield from rec(origin)


def best_decompose(g: Digraph, tour: tuple) -> tuple:
    """Split an Eulerian tour into (tree toward origin, departure orders).

    Returns ``(origin, tree, tau)`` where ``tree[v]`` is the last arc used
    to leave each non-origin vertex ``v`` and ``tau[v]`` lists the other
    arcs leaving ``v`` in order of use.
    """
    if len(tour) != len(g.arcs) or sorted(tour) != list(range(len(g.arcs))):
        raise ValueError("tour must use every arc exactly once")
    origin = g.arcs[tour[0]][0]
    last_exit = {}
    order: dict[int, list] = {}
    for a in tour:
        t, _ = g.arcs[a]
        order.setdefault(t, []).append(a)
        last_exit[t] = a
    tree = {v: a for v, a in last_exit.items() if v != origin}
    tau = {}
    for v, arcs in order.items():
        skip = tree.get(v)
        tau[v] = tuple(a for a in arcs if a != skip)
    return origin, tree, tau


def best_compose(g: Digraph, origin: int, tree: dict, tau: dict) -> tuple:
    """Rebuild the Eulerian tour from a BEST pair; inverse of decompose.

    From each vertex the walk departs along its ``tau`` arcs in order and,
    for a non-origin vertex, along its tree arc last.
    """
    pointer = {v: 0 for v in tau}
    tree_used = set()
    seq = []
    current = origin
    for _ in range(len(g.arcs)):
        arcs = tau.get(current, ())
        i = pointer.get(current, 0)
        if i < len(arcs):
            a = arcs[i]
            pointer[current] = i + 1
        elif current != origin and current not in tree_used:
            a = tree[current]
            tree_used.add(current)
        else:
            raise ValueError("walk is stuck; data is not a valid BEST pair")
        seq.append(a)
        current = g.arcs[a][1]
    if current != origin or sorted(seq) != list(range(len(g.arcs))):
        raise ValueError("data does not produce an Eulerian tour")
    return tuple(seq)
