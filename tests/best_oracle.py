"""Arc-level BEST machinery, kept as the test oracle for the half-edge
``theta`` and ``theta_fiber`` of :mod:`unimaps.bijections`.

A tour is turned into an Eulerian tour of a digraph on arc ids (the two
copies of a loop or of an edge repeated in the same direction become two
arcs), split by :func:`best_decompose` into the last exit of each vertex
and the other departures, and rebuilt by :func:`best_compose`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from map_oracle import edge_of

from unimaps.bijections import OrientedTreeRootedMap
from unimaps.maps_core import RootedMap
from unimaps.tours import BiEulerianTour


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


def endpoints(tour: BiEulerianTour, label: int) -> tuple:
    """The endpoints ``(u, v)``, ``u <= v``, of the edge labelled
    ``label`` in the graph of ``tour``."""
    return tour.edges[label - 1]


def is_loop(tour: BiEulerianTour, label: int) -> bool:
    """Whether the edge labelled ``label`` joins a vertex to itself."""
    u, v = endpoints(tour, label)
    return u == v


def oriented_edges(tour: BiEulerianTour) -> frozenset:
    """Labels of the edges that ``tour`` takes twice in the same
    direction (a loop's first step has direction 0)."""
    ends = tour.edges
    first: dict[int, int] = {}
    out = set()
    for label, d in tour.steps:
        if label not in first:
            first[label] = d
            continue
        u, v = ends[label - 1]
        if d == 0 if u == v else d == first[label]:
            out.add(label)
    return frozenset(out)


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


def _parents(t: OrientedTreeRootedMap, vid, root_v):
    """parent[v] = (parent vertex, tree edge id), None at the root."""
    m = t.m
    adj: dict[int, list] = {}
    for eid in t.tree:
        a, b = vid[eid], vid[m.alpha[eid]]
        adj.setdefault(a, []).append((b, eid))
        adj.setdefault(b, []).append((a, eid))
    parent = {root_v: None}
    stack = [root_v]
    while stack:
        v = stack.pop()
        for w, eid in adj.get(v, ()):
            if w not in parent:
                parent[w] = (v, eid)
                stack.append(w)
    return parent


def arc_theta(t: OrientedTreeRootedMap) -> BiEulerianTour:
    """Oracle for ``bijections.theta``: the bi-Eulerian tour of ``t``,
    composed on arcs with :func:`best_compose`."""
    m = t.m
    verts, edges = m.vertices(), m.edges()
    vid = m.vertex_index()
    vlabel = [t.vertex_labels[i] for i in vid]
    elabel = [t.edge_labels[k] for k in m.edge_index()]
    tail_of = {elabel[h]: h for h in t.orientation}
    n, q = len(edges), len(verts)
    ends = [None] * n
    edge_with_label = [None] * n
    for c in edges:
        h = min(c)
        ends[elabel[h] - 1] = tuple(sorted((vlabel[h], vlabel[m.alpha[h]])))
        edge_with_label[elabel[h] - 1] = c

    root_v = vid[m.root]
    parent = _parents(t, vid, root_v)

    # parent half-edge at each non-root vertex: the half-edge of the tree
    # edge to the parent lying on the child side
    parent_he = {}
    for i in range(q):
        if i == root_v:
            continue
        _, eid = parent[i]
        parent_he[i] = eid if vid[eid] == i else m.alpha[eid]

    # per-vertex half-edge sequences
    seqs = {}
    for i, c in enumerate(verts):
        d = len(c)
        if i == root_v:
            h = m.root
            seq = []
            for _ in range(d):
                seq.append(h)
                h = m.sigma[h]
        else:
            h = m.sigma[parent_he[i]]
            seq = []
            for _ in range(d - 1):
                seq.append(h)
                h = m.sigma[h]
        seqs[i] = seq

    # arc table: arcs 2k, 2k+1 belong to the edge labelled k+1
    arcs = [None] * (2 * n)
    arc_of_he = {}
    for k in range(n):
        lab = k + 1
        u, v = ends[k]
        if lab in tail_of:
            th = tail_of[lab]
            pair = (vlabel[th], vlabel[m.alpha[th]])
            arcs[2 * k] = arcs[2 * k + 1] = pair
        elif u == v:
            arcs[2 * k] = arcs[2 * k + 1] = (u, u)
        else:
            for h in edge_with_label[k]:
                a = 2 * k if vlabel[h] == u else 2 * k + 1
                arcs[a] = (vlabel[h], vlabel[m.alpha[h]])
                arc_of_he[h] = a

    # label-sorted pairing of ingoing half-edges with outgoing oriented
    # edges at each vertex
    pi_of_head = {}
    for i in range(q):
        heads = sorted(lab for lab, th in tail_of.items()
                       if vid[m.alpha[th]] == i)
        tails = sorted(lab for lab, th in tail_of.items() if vid[th] == i)
        assert len(heads) == len(tails)
        for hl, tl in zip(heads, tails):
            pi_of_head[m.alpha[tail_of[hl]]] = tl

    # emit the departure orders; copies of indistinguishable arcs are
    # numbered in order of use (tree copies of oriented edges come last
    # at their vertex, so they get the higher id)
    copy_count = [0] * n
    tree_arc = {}
    for i in range(q):
        if i == root_v:
            continue
        _, eid = parent[i]
        lab = elabel[eid]
        if lab in tail_of:
            tree_arc[t.vertex_labels[i]] = 2 * (lab - 1) + 1
        else:
            tree_arc[t.vertex_labels[i]] = arc_of_he[parent_he[i]]

    tau = {}
    for i in range(q):
        out = []
        for h in seqs[i]:
            lab = elabel[h]
            if lab in tail_of:
                th = tail_of[lab]
                e = lab if h == th else pi_of_head[h]
                k = e - 1
                if e in tail_of and edge_of(m, tail_of[e]) in t.tree:
                    a = 2 * k  # the tree holds the other copy
                else:
                    a = 2 * k + copy_count[k]
                    copy_count[k] += 1
                out.append(a)
            elif ends[lab - 1][0] == ends[lab - 1][1]:
                k = lab - 1
                out.append(2 * k + copy_count[k])
                copy_count[k] += 1
            else:
                out.append(arc_of_he[h])
        tau[t.vertex_labels[i]] = tuple(out)

    digraph = Digraph(q, tuple(arcs))
    origin = t.vertex_labels[root_v]
    seq = best_compose(digraph, origin, tree_arc, tau)

    steps = []
    uses = [0] * n
    for a in seq:
        k = a // 2
        lab = k + 1
        u, v = ends[k]
        if lab in tail_of:
            d = 0 if (u == v or arcs[a][0] == u) else 1
        elif u == v:
            d = 0 if uses[k] == 0 else 1
        else:
            d = 0 if a == 2 * k else 1
        uses[k] += 1
        steps.append((lab, d))
    return BiEulerianTour(q, ends, origin, tuple(steps))


def arc_theta_fiber(tour: BiEulerianTour) -> tuple:
    """Oracle for ``bijections.theta_fiber``: the ``2^w`` preimages of a
    tour, read off its arcs with :func:`best_decompose`."""
    n, q = len(tour.edges), tour.q
    oriented = oriented_edges(tour)

    # direction of each oriented edge, from the tour
    tail_color = {}
    for k, (lab, d) in enumerate(tour.steps):
        if lab in oriented and lab not in tail_color:
            u, v = endpoints(tour, lab)
            tail_color[lab] = u if (u == v or d == 0) else v

    arcs = [None] * (2 * n)
    for k in range(n):
        lab = k + 1
        u, v = endpoints(tour, lab)
        if lab in oriented:
            t = tail_color[lab]
            h = u + v - t
            arcs[2 * k] = arcs[2 * k + 1] = (t, h)
        elif u == v:
            arcs[2 * k] = arcs[2 * k + 1] = (u, u)
        else:
            arcs[2 * k] = (u, v)
            arcs[2 * k + 1] = (v, u)

    # tour steps -> arc ids (first use of an indistinguishable pair gets
    # the even id)
    uses = [0] * n
    seq = []
    for lab, d in tour.steps:
        k = lab - 1
        if lab in oriented or is_loop(tour, lab):
            seq.append(2 * k + uses[k])
        else:
            seq.append(2 * k if d == 0 else 2 * k + 1)
        uses[k] += 1
    digraph = Digraph(q, tuple(arcs))
    origin, tree, tau = best_decompose(digraph, seq)
    tree_labels = frozenset(a // 2 + 1 for a in tree.values())

    # half-edge allocation: edge labelled k+1 owns half-edges 2k, 2k+1
    # with 2k at the smaller endpoint (at the tail for oriented edges)
    he_at = {}   # (label, color) -> half-edge, for non-loop edges
    tail_he = {}
    for k in range(n):
        lab = k + 1
        u, v = endpoints(tour, lab)
        if lab in oriented:
            t = tail_color[lab]
            tail_he[lab] = 2 * k
            if u != v:
                he_at[(lab, t)] = 2 * k
                he_at[(lab, u + v - t)] = 2 * k + 1
        elif u != v:
            he_at[(lab, u)] = 2 * k
            he_at[(lab, v)] = 2 * k + 1

    # label-sorted pairing at each color: r-th ingoing oriented edge is
    # matched with the r-th outgoing one; the head half-edge of the edge
    # labelled k+1 is 2k+1 by the allocation above
    matched_head_he = {}  # outgoing oriented edge -> ingoing half-edge
    for c in range(1, q + 1):
        heads = sorted(lab for lab in oriented
                       if arcs[2 * (lab - 1)][1] == c)
        tails = sorted(lab for lab in oriented if tail_color[lab] == c)
        if len(heads) != len(tails):
            raise ValueError("tour orientation is not balanced")
        for hl, tl in zip(heads, tails):
            matched_head_he[tl] = 2 * (hl - 1) + 1

    # slots per color; fixed fills plus one binary choice per oriented
    # non-tree edge
    slot_hes = {}
    choices = []  # (color, pos_a, pos_b, he_a, he_b)
    for c in range(1, q + 1):
        arcs_here = list(tau.get(c, ()))
        if c != origin:
            arcs_here.append(tree[c])
        fills = [None] * len(arcs_here)
        loop_seen = {}
        pending = {}
        for pos, a in enumerate(arcs_here):
            k = a // 2
            lab = k + 1
            u, v = endpoints(tour, lab)
            tree_slot = c != origin and pos == len(arcs_here) - 1
            if lab in oriented:
                if tree_slot:
                    fills[pos] = tail_he[lab]  # the branch toward the root
                else:
                    pending.setdefault(lab, []).append(pos)
            elif u == v:
                i = loop_seen.get(lab, 0)
                loop_seen[lab] = i + 1
                fills[pos] = 2 * k + i
            else:
                fills[pos] = he_at[(lab, c)]
        for lab, positions in pending.items():
            if lab in tree_labels:
                # the tree holds one copy; the remaining slot takes the
                # matched ingoing half-edge
                assert len(positions) == 1
                fills[positions[0]] = matched_head_he[lab]
            else:
                assert len(positions) == 2
                pa, pb = positions
                choices.append((c, pa, pb, tail_he[lab], matched_head_he[lab]))
        slot_hes[c] = fills

    w = len(choices)
    out = []
    for assignment in itertools.product((0, 1), repeat=w):
        fills = {c: list(v) for c, v in slot_hes.items()}
        for bit, (c, pa, pb, ha, hb) in zip(assignment, choices):
            if bit:
                ha, hb = hb, ha
            fills[c][pa] = ha
            fills[c][pb] = hb
        sigma = [0] * (2 * n)
        for c, cycle in fills.items():
            for i, h in enumerate(cycle):
                sigma[h] = cycle[(i + 1) % len(cycle)]
        alpha = [0] * (2 * n)
        for k in range(n):
            alpha[2 * k] = 2 * k + 1
            alpha[2 * k + 1] = 2 * k
        root = fills[origin][0]
        m = RootedMap(tuple(sigma), tuple(alpha), root)
        color_of_he = {}
        for c, cycle in fills.items():
            for h in cycle:
                color_of_he[h] = c
        vertex_labels = tuple(color_of_he[min(cyc)] for cyc in m.vertices())
        edge_labels = tuple(min(cyc) // 2 + 1 for cyc in m.edges())
        tree_ids = frozenset(2 * (lab - 1) for lab in tree_labels)
        orientation = frozenset(tail_he[lab] for lab in oriented)
        out.append(OrientedTreeRootedMap(
            m, vertex_labels, edge_labels, tree_ids, orientation))
    return tuple(out)
