"""Correspondences between colored one-face maps and tree-rooted maps.

The pipeline has two stages.  ``xi`` (in :mod:`unimaps.tours`) turns a
colored one-face map into a bi-Eulerian tour of its color graph.  ``theta``
here relates such tours to tree-rooted maps on orientable surfaces that
carry a compatible balanced orientation: every tour with ``w`` edges
repeated in the same direction has exactly ``2^w`` preimages, all of
external weight ``w``.  Composing the two gives the surjection ``upsilon``
from oriented tree-rooted maps onto colored one-face maps on general
surfaces, which restricts to a bijection ``phi`` on the orientable ones
(where ``w = 0`` and the orientation is empty).

The tour is decomposed BEST-style, straight off the half-edges: the
departures from each color, in tour order, are the rotation at that color,
and at every color but the origin the last of them is the tree edge toward
the origin.  An oriented edge is left twice from its tail: once along its
tail half-edge and once along an ingoing half-edge paired with it.  The
pairing is fixed: at each vertex the ingoing half-edges of oriented edges,
sorted by edge label, are paired with the oriented edges leaving the
vertex, also sorted by label.  It depends only on labels, so the whole
construction is invariant under relabelling of half-edges.

``psi`` opens the planar submap of an externally-labelled planar-rooted
map on its slot system: the rotation and pairing that the map induces on
the submap's half-edges, renumbered ``0..s-1`` in increasing order.
Every element of ``psi_fiber`` keeps the slot system it was closed on,
with its face orbits and root slot, and nothing else derived: the submap
faces are those slot orbits, read as half-edges through the slots.
``psi`` and the canonical key read that copy.  Validation derives it
from the fields and refuses a kept copy that disagrees, so a validated
element keeps only what its fields give.  Spanning trees and planar
submaps are checked spanning and connected by one search,
:func:`_tree_up`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import maps_core
from .maps_core import (
    ColoredUnicellularMap,
    RootedMap,
    canonical_relabelling,
    canonical_rotation,
    record,
)
from .tours import BiEulerianTour, xi, xi_inverse


class _LabelledMap:
    """Label bookkeeping shared by the rooted maps below, which carry a map
    ``m``, ``vertex_labels`` (by vertex, in :meth:`RootedMap.vertices`
    order) and ``edge_labels`` (by edge, in :meth:`RootedMap.edges`
    order)."""

    @property
    def q(self) -> int:
        return len(self.vertex_labels)

    @property
    def n(self) -> int:
        return len(self.edge_labels)

    def _tuple_labels(self) -> None:
        """Normalize ``vertex_labels`` and ``edge_labels`` to tuples."""
        object.__setattr__(self, "vertex_labels", tuple(self.vertex_labels))
        object.__setattr__(self, "edge_labels", tuple(self.edge_labels))

    def _check_labels(self, q: int, n: int) -> None:
        """Raise ValueError unless the labels are permutations of ``1..q``
        and ``1..n``."""
        if sorted(self.vertex_labels) != list(range(1, q + 1)):
            raise ValueError("vertex labels must be a permutation of 1..q")
        if sorted(self.edge_labels) != list(range(1, n + 1)):
            raise ValueError("edge labels must be a permutation of 1..n")

    def _canonical_form(self, marked_edges) -> tuple:
        """``(perm, key)``: the canonical relabelling of ``m``, and the
        relabelled rotation system followed by the vertex labels, edge
        labels and marked edge ids carried across ``perm``.  The
        relabelled map lists its vertices and edges by least new label,
        so the labels are sorted by that label off ``m``'s own orbits."""
        m = self.m
        perm, sigma2, alpha2 = canonical_rotation(m)
        alpha = m.alpha
        verts2 = [lab for _, lab in sorted([
            (min([perm[h] for h in cyc]), lab)
            for cyc, lab in zip(m.vertices(), self.vertex_labels)])]
        edges2 = [lab for _, lab in sorted([
            (min(perm[h], perm[h2]), lab)
            for (h, h2), lab in zip(m.edges(), self.edge_labels)])]
        marked2 = frozenset([min(perm[eid], perm[alpha[eid]])
                             for eid in marked_edges])
        return perm, (sigma2, alpha2, tuple(verts2), tuple(edges2),
                      marked2)

    def _rejoined(self, pairs) -> tuple:
        """Re-pair half-edges of ``m``: each ``(out, in)`` pair becomes an
        edge that keeps the label of ``out``'s old edge.  Returns the new
        map, which keeps the vertex orbits ``m`` holds (the rotation is
        the same tuple), and its edge labels.  A new pairing equal to
        the :func:`_standard_involution`, as psi's is on an element of
        ``psi_fiber``, is that tuple with its edge orbits."""
        m = self.m
        labels, eid = self.edge_labels, m.edge_index()
        alpha = list(m.alpha)
        for o, i in pairs:
            alpha[o] = i
            alpha[i] = o
        alpha = tuple(alpha)
        standard, edge_data = _standard_involution(len(alpha) // 2)
        if alpha == standard:
            m2 = RootedMap._trusted(m.sigma, standard, m.root,
                                    _vertex_data=m._vertex_data,
                                    _edge_data=edge_data)
        else:
            m2 = RootedMap._trusted(m.sigma, alpha, m.root,
                                    _vertex_data=m._vertex_data)
        outs = {o for o, _ in pairs}
        edge_labels = tuple([labels[eid[alpha[h] if alpha[h] in outs
                                        else h]]
                             for h, _ in m2.edges()])
        return m2, edge_labels


@record
class OrientedTreeRootedMap(_LabelledMap):
    """Rooted orientable map with labelled vertices and edges, a marked
    spanning tree, and a compatible balanced orientation.

    ``vertex_labels[i]`` is the label in ``1..q`` of the i-th vertex (in
    by-minimum-half-edge order) and ``edge_labels[k]`` the label in ``1..n``
    of the k-th edge.  ``tree`` holds the edge ids (minimum half-edge per
    edge) of the spanning tree.  ``orientation`` holds one half-edge per
    oriented edge, the *tail*; the edge points away from the tail's vertex.
    Balance requires every vertex to head as many oriented edges as it
    tails; compatibility requires oriented tree edges to point toward the
    root vertex.  A plain tree-rooted map is the ``orientation == {}``
    case.  Validation keeps ``up``: by vertex, the half-edge on its tree
    edge toward the root vertex (``None`` at the root); it takes no part
    in equality or hashing, and the trusted path must be handed it.
    """

    m: RootedMap
    vertex_labels: tuple
    edge_labels: tuple
    tree: frozenset
    orientation: frozenset = frozenset()
    up = None

    def __post_init__(self):
        self._tuple_labels()
        object.__setattr__(self, "tree", frozenset(self.tree))
        object.__setattr__(self, "orientation", frozenset(self.orientation))
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless the fields describe a labelled map with
        a spanning tree and a compatible balanced orientation, and keep
        ``up`` (a kept ``up`` that disagrees with the tree is an error).
        Reads the vertex index of ``m`` and traces no edge orbit."""
        m = self.m
        alpha = m.alpha
        nh = len(alpha)
        vid = m.vertex_index()
        q = len(m.vertices())
        self._check_labels(q, nh // 2)
        tree, orientation = self.tree, self.orientation
        # an edge id is the smaller half-edge of its edge
        for e in tree:
            if not (0 <= e < nh and e < alpha[e]):
                raise ValueError("tree contains unknown edges")
        if len(tree) != q - 1:
            raise ValueError("tree has the wrong number of edges")
        # q - 1 edges reaching every vertex from the root: a spanning tree
        up = _tree_up(m, vid, tree, q)
        if up.count(None) != 1:
            raise ValueError("tree edges contain a cycle")
        if orientation:
            if not all(0 <= h < nh for h in orientation):
                raise ValueError("orientation holds unknown half-edges")
            # one tail per edge, balanced
            tails = {}
            flow = [0] * q
            for h in orientation:
                eid = min(h, alpha[h])
                if eid in tails:
                    raise ValueError("edge oriented twice")
                tails[eid] = h
                flow[vid[h]] += 1
                flow[vid[alpha[h]]] -= 1
            if any(flow):
                raise ValueError("orientation is not balanced")
            # compatibility: oriented tree edges point toward the root
            # vertex
            for eid, h in tails.items():
                if eid in tree and up[vid[h]] != h:
                    raise ValueError(
                        "oriented tree edge points away from root")
        if self.up is not None and self.up != up:
            raise ValueError("kept tree half-edges disagree with the tree")
        object.__setattr__(self, "up", up)

    @property
    def external_weight(self) -> int:
        alpha = self.m.alpha
        return sum(1 for h in self.orientation
                   if min(h, alpha[h]) not in self.tree)

    def canonical_key(self) -> tuple:
        """Hashable form invariant under half-edge relabelling."""
        perm, key = self._canonical_form(self.tree)
        return key + (tuple(sorted(perm[h] for h in self.orientation)),)


def _tree_up(m: RootedMap, vid: tuple, tree: frozenset, q: int) -> tuple:
    """By each of the ``q`` vertices of ``m``, the half-edge on its edge
    of ``tree`` (edge ids) toward the root vertex; None where the tree
    does not lead to the root, as at the root vertex itself.  ``vid`` is
    ``m.vertex_index()``.  On edges with cycles it gives the branches of
    a search tree, so exactly one None means the edges are spanning and
    connected."""
    alpha, root_v = m.alpha, vid[m.root]
    adj = [[] for _ in range(q)]
    for eid in tree:
        a = alpha[eid]
        adj[vid[eid]].append(eid)
        adj[vid[a]].append(a)
    up = [None] * q
    # the search order grows while it is walked
    order = [root_v]
    for x in order:
        for h in adj[x]:
            a = alpha[h]
            w = vid[a]
            if w != root_v and up[w] is None:
                up[w] = a
                order.append(w)
    return tuple(up)


def _paired_labels(arcs, count: int) -> list:
    """The label-sorted pairing of the module docstring.  ``arcs`` holds
    ``(label, tail, head)`` per oriented edge, with vertices in
    ``range(count)``; at each vertex the r-th edge by label that heads
    there is paired with the r-th that leaves it.  Returns the ``(head
    label, tail label)`` pairs; raises ValueError at an unbalanced
    vertex."""
    heads = [[] for _ in range(count)]
    tails = [[] for _ in range(count)]
    for lab, tail, head in sorted(arcs):
        tails[tail].append(lab)
        heads[head].append(lab)
    pairs = []
    for hs, ts in zip(heads, tails):
        if len(hs) != len(ts):
            raise ValueError("orientation is not balanced")
        pairs.extend(zip(hs, ts))
    return pairs


def theta(t: OrientedTreeRootedMap) -> BiEulerianTour:
    """Map an oriented tree-rooted map to a bi-Eulerian tour of its graph
    of vertex labels.

    The walk starts along the root half-edge.  At every other vertex it
    departs in rotation order from just after the tree half-edge toward
    the root, which it takes last.  A tail half-edge leaves along its own
    edge, an ingoing half-edge along the oriented edge paired with it.
    """
    m = t.m
    sigma, alpha = m.sigma, m.alpha
    vid, eid = m.vertex_index(), m.edge_index()
    vertex_labels, edge_labels = t.vertex_labels, t.edge_labels
    n, q = len(edge_labels), len(vertex_labels)
    ends = [None] * n
    for lab, (h, h2) in zip(edge_labels, m.edges()):
        a, b = vertex_labels[vid[h]], vertex_labels[vid[h2]]
        ends[lab - 1] = (a, b) if a <= b else (b, a)

    tail_of = {edge_labels[eid[h]]: h for h in t.orientation}
    paired = {}  # ingoing half-edge -> label of the edge it leaves along
    if tail_of:
        arcs = [(lab, vid[h], vid[alpha[h]]) for lab, h in tail_of.items()]
        for hl, tl in _paired_labels(arcs, q):
            paired[alpha[tail_of[hl]]] = tl

    root_v = vid[m.root]
    nxt = [m.root if h is None else sigma[h] for h in t.up]
    left = [len(c) for c in m.vertices()]
    looped = [False] * (n + 1)
    steps = []
    current = root_v
    for _ in range(2 * n):
        if not left[current]:
            raise ValueError("walk is stuck; data is not a valid BEST pair")
        h = nxt[current]
        nxt[current] = sigma[h]
        left[current] -= 1
        lab = edge_labels[eid[h]]
        u, v = ends[lab - 1]
        if lab in tail_of:
            if h != tail_of[lab]:
                lab = paired[h]
                u, v = ends[lab - 1]
            h = tail_of[lab]
            d = 0 if vertex_labels[vid[h]] == u else 1
        elif u != v:
            d = 0 if vertex_labels[current] == u else 1
        else:
            d = 1 if looped[lab] else 0
            looped[lab] = True
        current = vid[alpha[h]]
        steps.append((lab, d))
    if current != root_v:
        raise ValueError("data does not produce an Eulerian tour")
    return BiEulerianTour._trusted(q, tuple(ends), vertex_labels[root_v],
                                   tuple(steps))


def theta_fiber(tour: BiEulerianTour) -> tuple:
    """All preimages of a tour under theta: exactly ``2^w`` oriented
    tree-rooted maps, where ``w`` is the number of edges the tour repeats
    in the same direction.

    The edge labelled ``k+1`` owns half-edges ``2k`` and ``2k+1``; ``2k``
    lies at the smaller endpoint, at the tail of an oriented edge and at
    the first departure along a loop.
    """
    ends = tour.edges
    n, q = len(ends), tour.q
    origin = tour.origin

    # one pass: the departures of each color in tour order, as half-edges
    # (the edge labelled k+1 leaves its smaller endpoint, or the first
    # time along a loop, by 2k, else by 2k+1), and the edges taken twice
    # in the same direction (a loop's first step has direction 0)
    fills = [[] for _ in range(q + 1)]  # by color; 0 is unused
    first_d = [-1] * (n + 1)
    oriented = []
    for lab, d in tour.steps:
        u, v = ends[lab - 1]
        if first_d[lab] < 0:
            first_d[lab] = d
        elif first_d[lab] == d:
            oriented.append(lab)
        fills[v if d else u].append(2 * lab - 2 + d)
    del fills[0]
    # the last departure from every color but the origin is its tree
    # half-edge toward the root
    root_fills = fills[origin - 1]
    tree_ids = frozenset([f[-1] & -2 for f in fills if f is not root_fills])
    involution = _standard_involution(n)
    edge_labels = tuple(range(1, n + 1))
    if not oriented:
        return (_fiber_element(fills, origin, involution, edge_labels,
                               tree_ids, frozenset()),)

    orientation = frozenset([2 * lab - 2 for lab in oriented])
    choices = _orient_fills(fills, ends, origin, oriented, first_d)
    out = []
    for assignment in itertools.product((0, 1), repeat=len(choices)):
        chosen = [list(f) for f in fills]
        for bit, (i, pa, pb) in zip(assignment, choices):
            if bit:
                f = chosen[i]
                f[pa], f[pb] = f[pb], f[pa]
        out.append(_fiber_element(chosen, origin, involution, edge_labels,
                                  tree_ids, orientation))
    return tuple(out)


@lru_cache(maxsize=1)
def _standard_involution(n: int) -> tuple:
    """``(alpha, edge_data)``: the pairing of half-edges ``2k`` and
    ``2k + 1`` on ``2n`` half-edges, and its ``(orbits, index)``.  Every
    element of every fiber with ``n`` edges shares them; one entry is
    kept, as exhaustive checks go through ``n`` in order."""
    nh = 2 * n
    alpha = [0] * nh
    alpha[::2] = range(1, nh, 2)
    alpha[1::2] = range(0, nh, 2)
    alpha = tuple(alpha)
    # looked up on the module, so that a wrapper installed there is called
    return alpha, maps_core._orbits(alpha)


def _fiber_element(fills, origin, involution, edge_labels, tree_ids,
                   orientation) -> OrientedTreeRootedMap:
    """The element of :func:`theta_fiber` whose rotation at each color
    ``c`` is the cycle ``fills[c - 1]``: the departures from ``c`` in
    tour order, the first of the origin's being the root and the last
    of every other color's its tree half-edge toward the root.  Its map
    is on the shared ``involution`` of :func:`_standard_involution`."""
    alpha, edge_data = involution
    sigma = [0] * len(alpha)
    for cycle in fills:
        prev = cycle[-1]
        for h in cycle:
            sigma[prev] = h
            prev = h
    m = RootedMap._trusted(tuple(sigma), alpha, fills[origin - 1][0],
                           _edge_data=edge_data)
    # vertices in order of their minimum half-edge
    _, vertex_labels = zip(*sorted([(min(f), c)
                                    for c, f in enumerate(fills, 1)]))
    up = tuple([None if c == origin else fills[c - 1][-1]
                for c in vertex_labels])
    return OrientedTreeRootedMap._trusted(m, vertex_labels, edge_labels,
                                          tree_ids, orientation, up=up)


def _orient_fills(fills, ends, origin, oriented, first_d) -> list:
    """Put the oriented edges into the departures ``fills`` of
    :func:`theta_fiber`, in place, with every choice at 0, and return the
    choices as ``(color index, pos_a, pos_b)``: one per oriented non-tree
    edge, whose two departures may swap.

    An oriented edge leaves its tail both times: once along its tail
    half-edge, once along the ingoing half-edge that the label-sorted
    pairing (:func:`_paired_labels`) at the tail matches with it; the head
    half-edge of the edge labelled k+1 is 2k+1.
    """
    arcs = []
    for lab in oriented:
        u, v = ends[lab - 1]
        tail = v if first_d[lab] else u
        arcs.append((lab, tail, u + v - tail))
    # outgoing oriented edge -> ingoing half-edge
    matched_head_he = {tl: 2 * hl - 1
                       for hl, tl in _paired_labels(arcs, len(fills) + 1)}

    choices = []
    for i, f in enumerate(fills):
        # the last departure from a color but the origin is its tree edge
        tree_lab = (f[-1] >> 1) + 1 if i != origin - 1 else 0
        first_pos = {}  # oriented edge left once from here -> position
        free = []  # (pos_a, pos_b) of the oriented non-tree edges
        for pos, h in enumerate(f):
            lab = (h >> 1) + 1
            if lab not in matched_head_he:
                continue
            if lab not in first_pos:
                first_pos[lab] = pos
                continue
            pa = first_pos[lab]
            if lab == tree_lab:
                # the branch toward the root comes last, and the earlier
                # slot takes the matched ingoing half-edge
                f[pa], f[pos] = matched_head_he[lab], 2 * lab - 2
            else:
                f[pa], f[pos] = 2 * lab - 2, matched_head_he[lab]
                free.append((pa, pos))
        choices.extend((i, pa, pb) for pa, pb in sorted(free))
    return choices


def upsilon(t: OrientedTreeRootedMap) -> ColoredUnicellularMap:
    """The colored one-face map whose face tour is theta of ``t``."""
    return xi_inverse(theta(t))


def upsilon_fiber(u: ColoredUnicellularMap) -> tuple:
    """All oriented tree-rooted maps mapping to ``u``: ``2^w`` of them,
    with ``w = 0`` exactly when ``u`` is orientable."""
    return theta_fiber(xi(u))


def phi(u: ColoredUnicellularMap) -> OrientedTreeRootedMap:
    """Bijection from orientable colored one-face maps to tree-rooted maps
    (empty orientation)."""
    if not u.gluing.orientable:
        raise ValueError("phi is defined on orientable maps only")
    fiber = upsilon_fiber(u)
    if len(fiber) != 1 or fiber[0].orientation:
        raise RuntimeError("the fiber over an orientable map must be one "
                           "map with an empty orientation")
    return fiber[0]


def phi_inverse(t: OrientedTreeRootedMap) -> ColoredUnicellularMap:
    if t.orientation:
        raise ValueError("phi inverse needs an empty orientation")
    return upsilon(t)


# ---------------------------------------------------------------------------
# Externally-labelled planar-rooted maps and the surjection psi
# ---------------------------------------------------------------------------


@record
class ExternallyLabelledPlanarRootedMap(_LabelledMap):
    """Rooted orientable map with labelled vertices and edges, a marked
    spanning planar submap, and a labelling of the submap's faces.

    ``submap`` holds the edge ids of a connected spanning submap whose
    inherited rotation system has genus 0.  ``face_labels`` assigns the
    labels ``1..r`` to the ``r`` faces of the submap, listed by minimum
    half-edge; the face labelled ``r`` plays the role of the outer face.
    Validation keeps one derived record, the submap's
    :func:`_slot_system` as ``slot_system``: its faces are slot orbits,
    read as half-edges through its slots ``hs``.  It takes no part in
    equality or hashing, and a kept copy that disagrees with the fields
    is an error.
    """

    m: RootedMap
    vertex_labels: tuple
    edge_labels: tuple
    submap: frozenset
    face_labels: tuple
    slot_system = None

    def __post_init__(self):
        self._tuple_labels()
        object.__setattr__(self, "submap", frozenset(self.submap))
        object.__setattr__(self, "face_labels", tuple(self.face_labels))
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless the submap is a spanning planar submap
        with labelled faces, and keep its slot system, derived afresh from
        the fields (a kept copy that disagrees is an error)."""
        m = self.m
        alpha = m.alpha
        nh = len(alpha)
        vid = m.vertex_index()
        q, n = len(m.vertices()), nh // 2
        self._check_labels(q, n)
        submap = self.submap
        for e in submap:
            # an edge id is the smaller half-edge of its edge
            if not (0 <= e < nh and e < alpha[e]):
                raise ValueError("submap contains unknown edges")
        # spanning and connected: the search from the root reaches every
        # vertex, as for a spanning tree
        if _tree_up(m, vid, submap, q).count(None) != 1:
            raise ValueError("submap is not spanning and connected")
        # planarity of the inherited rotation system
        slots = _slot_system(m, submap)
        faces = slots[4]
        if q - len(submap) + len(faces) != 2:
            raise ValueError("submap is not planar")
        if sorted(self.face_labels) != list(range(1, len(faces) + 1)):
            raise ValueError("face labels must be a permutation of 1..r")
        if self.slot_system is not None and self.slot_system != slots:
            raise ValueError("kept slot system disagrees with the submap")
        object.__setattr__(self, "slot_system", slots)

    @property
    def r(self) -> int:
        return len(self.face_labels)

    @property
    def external_weight(self) -> int:
        return self.r - 1

    def canonical_key(self) -> tuple:
        """Hashable form invariant under half-edge relabelling."""
        perm, key = self._canonical_form(self.submap)
        hs, faces = self.slot_system[0], self.slot_system[4]
        return key + (tuple(sorted([
            (min([perm[hs[x]] for x in f], default=-1), lab)
            for f, lab in zip(faces, self.face_labels)])),)


def _project(m: RootedMap, edges) -> tuple:
    """``(hs, pos, sigma, mate)``: the rotation and pairing lists that
    ``m`` induces on the half-edges of ``edges`` (distinct edges, each
    named by one of its half-edges), on slots ``0..s-1`` numbered in
    increasing half-edge order, with ``hs[k]`` the half-edge of slot
    ``k`` and ``pos`` its inverse (-1 off the edges).  The numbering
    keeps order, so every face keeps its least half-edge and its place
    in the order by minimum."""
    sigma, alpha = m.sigma, m.alpha
    hs = list(edges)
    hs += [alpha[e] for e in hs]
    hs.sort()
    pos = [-1] * len(sigma)
    for k, h in enumerate(hs):
        pos[h] = k
    rotation = []
    for h in hs:
        x = sigma[h]
        while pos[x] < 0:
            x = sigma[x]
        rotation.append(pos[x])
    return hs, pos, rotation, [pos[alpha[h]] for h in hs]


def _root_slot(m: RootedMap, hs: list) -> int:
    """The first of the slots ``hs`` (half-edges of ``m``) at the root
    vertex, or -1 if there is none."""
    vid = m.vertex_index()
    root_v = vid[m.root]
    for k, h in enumerate(hs):
        if vid[h] == root_v:
            return k
    return -1


def _slot_system(m: RootedMap, submap) -> tuple:
    """``(hs, pos, sigma, mate, faces, face_of, root)``: the
    :func:`_project` of the submap with edge ids ``submap``, the face
    orbits of its slots and the face index of every slot
    (:func:`~unimaps.planar_closure.slot_faces`), and its
    :func:`_root_slot`.  The empty submap (a single vertex) has one
    synthetic empty face."""
    from .planar_closure import slot_faces

    hs, pos, sigma, mate = _project(m, submap)
    faces, face_of = slot_faces(sigma, mate) if hs else (((),), ())
    return hs, pos, sigma, mate, faces, face_of, _root_slot(m, hs)


def _canonical_inner_faces(m: RootedMap, hs: list, faces,
                           outer: int) -> list:
    """The indices in ``faces`` (slot orbits on the slots ``hs``) of the
    inner submap faces, all but ``outer``, in the order induced by the
    canonical relabelling of the whole map (invariant under half-edge
    renaming)."""
    perm = canonical_relabelling(m)
    least = [min([perm[hs[x]] for x in f]) for f in faces]
    inner = [k for k in range(len(faces)) if k != outer]
    inner.sort(key=least.__getitem__)
    return inner


def psi(p: ExternallyLabelledPlanarRootedMap) -> ColoredUnicellularMap:
    """Map an externally-labelled planar-rooted map to a colored one-face
    map.  The face labelled ``r`` is taken as the outer face; opening the
    submap recovers a near-Eulerian tree whose cut edges are re-joined
    according to the remaining labels, giving a compatibly-oriented
    tree-rooted map, whose tour is then read off.  The opening runs on
    the slot system ``p`` keeps."""
    from .planar_closure import dual_layers, open_slots

    m = p.m
    vid = m.vertex_index()
    if p.r == 1:
        t = OrientedTreeRootedMap._trusted(
            m, p.vertex_labels, p.edge_labels, p.submap, frozenset(),
            up=_tree_up(m, vid, p.submap, len(p.vertex_labels)))
        return upsilon(t)
    hs, pos, sigma_sub, mate_sub, sub_faces, face_of, root_sub = \
        p.slot_system
    outer = p.face_labels.index(p.r)
    tree_mate, tails, cuts = open_slots(
        sigma_sub, mate_sub, sub_faces, face_of, root_sub,
        dual_layers(sub_faces, face_of, mate_sub, sub_faces[outer][0]))
    # cut bookkeeping: inner face -> (out slot, in slot)
    buds = {face_of[f]: (o, i) for f, o, i in cuts}
    inner = _canonical_inner_faces(m, hs, sub_faces, outer)
    # re-join the buds: the face labelled j sends its outgoing bud to the
    # ingoing bud of the j-th inner face in canonical order
    pairs = [(hs[buds[f][0]], hs[buds[inner[p.face_labels[f] - 1]][1]])
             for f in inner]
    m2, edge_labels = p._rejoined(pairs)
    tree = frozenset([eid for eid in p.submap if tree_mate[pos[eid]] >= 0])
    orientation = frozenset([hs[t] for t in tails] + [o for o, _ in pairs])
    t = OrientedTreeRootedMap._trusted(
        m2, p.vertex_labels, edge_labels, tree, orientation,
        up=_tree_up(m2, vid, tree, len(p.vertex_labels)))
    return upsilon(t)


def psi_fiber(u: ColoredUnicellularMap) -> tuple:
    """All preimages of ``u`` under psi: exactly ``2^w`` externally
    labelled planar-rooted maps whose submaps have ``w + 1`` faces.
    Each keeps the slot system it was closed on."""
    from .planar_closure import close_slots, slot_faces

    out = []
    for t in upsilon_fiber(u):
        m = t.m
        alpha = m.alpha
        # the tails of the cut edges: the oriented edges off the tree
        cut_tails = [h for h in t.orientation
                     if min(h, alpha[h]) not in t.tree]
        if not cut_tails:
            slots = _slot_system(m, t.tree)
            out.append(ExternallyLabelledPlanarRootedMap._trusted(
                m, t.vertex_labels, t.edge_labels, t.tree, (1,),
                slot_system=slots))
            continue
        # near-Eulerian tree inside the map: tree half-edges plus the buds
        # of the cut oriented edges
        hs, pos, sigma_sub, mate_sub = _project(m, [*t.tree, *cut_tails])
        for o in cut_tails:
            mate_sub[pos[o]] = mate_sub[pos[alpha[o]]] = -1
        root = _root_slot(m, hs)
        full, pairs, outer_rep = close_slots(
            sigma_sub, mate_sub, {pos[o] for o in cut_tails}, root)
        # the closed submap inside the big map, on the same slots
        m2, edge_labels = t._rejoined([(hs[o], hs[i]) for o, i in pairs])
        submap = frozenset([hs[k if k < j else j]
                            for k, j in enumerate(full)])
        # the faces of the closed submap, in order of minimum; the arch of
        # a closure pair (o, i) bounds the inner face through its ingoing
        # slot i, the face whose arch the opening would cut
        faces, face_of = slot_faces(sigma_sub, full)
        inner = _canonical_inner_faces(m2, hs, faces, face_of[outer_rep])
        index = {f: k + 1 for k, f in enumerate(inner)}
        # labels: the face whose outgoing bud originally matched the
        # ingoing bud of inner face G gets G's canonical index
        face_labels = [len(inner) + 1] * len(faces)
        for o, i in pairs:
            face_labels[face_of[i]] = index[face_of[pos[alpha[hs[o]]]]]
        out.append(ExternallyLabelledPlanarRootedMap._trusted(
            m2, t.vertex_labels, edge_labels, submap, tuple(face_labels),
            slot_system=(hs, pos, sigma_sub, full, faces, face_of, root)))
    return tuple(out)
