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
"""

from __future__ import annotations

import itertools

from .maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    RootedMap,
    _unchecked,
    canonical_relabelling,
    record,
)
from .tours import BiEulerianTour, EdgeLabelledGraph, xi, xi_inverse


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

    def half_edge_labels(self) -> tuple:
        """Vertex label and edge label of every half-edge, as two lists."""
        m = self.m
        return ([self.vertex_labels[i] for i in m.vertex_index()],
                [self.edge_labels[k] for k in m.edge_index()])

    def _canonical_form(self, marked_edges) -> tuple:
        """``(perm, key)``: the canonical relabelling of ``m``, and the
        relabelled rotation system followed by the vertex labels, edge
        labels and marked edge ids carried across ``perm``."""
        m = self.m
        perm = canonical_relabelling(m)
        m2 = m.relabelled(perm)
        vid2, eid2 = m2.vertex_index(), m2.edge_index()
        verts2 = [0] * len(self.vertex_labels)
        edges2 = [0] * len(self.edge_labels)
        for h, (i, k) in enumerate(zip(m.vertex_index(), m.edge_index())):
            verts2[vid2[perm[h]]] = self.vertex_labels[i]
            edges2[eid2[perm[h]]] = self.edge_labels[k]
        marked2 = frozenset(m2.edge_of(perm[eid]) for eid in marked_edges)
        return perm, (m2.sigma, m2.alpha, m2.root, tuple(verts2),
                      tuple(edges2), marked2)

    def _rejoined(self, pairs) -> tuple:
        """Re-pair half-edges of ``m``: each ``(out, in)`` pair becomes an
        edge that keeps the label of ``out``'s old edge.  Returns the new
        map and its edge labels."""
        m = self.m
        _, elabel = self.half_edge_labels()
        alpha = list(m.alpha)
        for o, i in pairs:
            alpha[o] = i
            alpha[i] = o
        m2 = RootedMap._trusted(m.sigma, tuple(alpha), m.root)
        outs = {o for o, _ in pairs}
        edge_labels = tuple(elabel[alpha[h] if alpha[h] in outs else h]
                            for h in (min(c) for c in m2.edges()))
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
    in equality or hashing.
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

    @classmethod
    def _trusted(cls, m, vertex_labels, edge_labels, tree, orientation,
                 up=None) -> "OrientedTreeRootedMap":
        """A map from fields known to be valid (tuples and frozensets);
        ``up`` is derived from the tree unless the caller holds it.
        Nothing is checked."""
        t = _unchecked(cls, m=m, vertex_labels=vertex_labels,
                       edge_labels=edge_labels, tree=tree,
                       orientation=orientation, up=up)
        if up is None:
            vid = m.vertex_index()
            object.__setattr__(t, "up", t._tree_up(vid, vid[m.root],
                                                   len(vertex_labels)))
        return t

    def validate(self) -> None:
        """Raise ValueError unless the fields describe a labelled map with
        a spanning tree and a compatible balanced orientation, and keep
        ``up`` (a kept ``up`` that disagrees with the tree is an error).
        Reads the vertex index of ``m`` and traces no edge orbit."""
        m = self.m
        alpha = m.alpha
        nh = len(alpha)
        vid = m.vertex_index()
        q, n = len(m.vertices()), nh // 2
        self._check_labels(q, n)
        # an edge id is the smaller half-edge of its edge
        if not all(0 <= e < nh and e < alpha[e] for e in self.tree):
            raise ValueError("tree contains unknown edges")
        if len(self.tree) != q - 1:
            raise ValueError("tree has the wrong number of edges")
        # q - 1 edges reaching every vertex from the root: a spanning tree
        up = self._tree_up(vid, vid[m.root], q)
        if up.count(None) != 1:
            raise ValueError("tree edges contain a cycle")
        # orientation: one tail per edge, balanced
        if not all(0 <= h < nh for h in self.orientation):
            raise ValueError("orientation holds unknown half-edges")
        tails = {}
        flow = [0] * q
        for h in self.orientation:
            eid = min(h, alpha[h])
            if eid in tails:
                raise ValueError("edge oriented twice")
            tails[eid] = h
            flow[vid[h]] += 1
            flow[vid[alpha[h]]] -= 1
        if any(flow):
            raise ValueError("orientation is not balanced")
        # compatibility: oriented tree edges point toward the root vertex
        for eid, h in tails.items():
            if eid in self.tree and up[vid[h]] != h:
                raise ValueError("oriented tree edge points away from root")
        if self.up is not None and self.up != up:
            raise ValueError("kept tree half-edges disagree with the tree")
        object.__setattr__(self, "up", up)

    def _tree_up(self, vid, root_v, q) -> tuple:
        """By vertex, the half-edge on its tree edge toward ``root_v``."""
        alpha = self.m.alpha
        adj = [[] for _ in range(q)]
        for eid in self.tree:
            adj[vid[eid]].append(eid)
            adj[vid[alpha[eid]]].append(alpha[eid])
        up = [None] * q
        stack = [root_v]
        while stack:
            for h in adj[stack.pop()]:
                w = vid[alpha[h]]
                if w != root_v and up[w] is None:
                    up[w] = alpha[h]
                    stack.append(w)
        return tuple(up)

    @property
    def external_weight(self) -> int:
        return sum(1 for h in self.orientation
                   if self.m.edge_of(h) not in self.tree)

    def canonical_key(self) -> tuple:
        """Hashable form invariant under half-edge relabelling."""
        perm, key = self._canonical_form(self.tree)
        return key + (tuple(sorted(perm[h] for h in self.orientation)),)


def theta(t: OrientedTreeRootedMap) -> tuple:
    """Map an oriented tree-rooted map to its graph and bi-Eulerian tour.

    The walk starts along the root half-edge.  At every other vertex it
    departs in rotation order from just after the tree half-edge toward
    the root, which it takes last.  A tail half-edge leaves along its own
    edge, an ingoing half-edge along the oriented edge paired with it.
    """
    m = t.m
    sigma, alpha = m.sigma, m.alpha
    vid = m.vertex_index()
    vlabel, elabel = t.half_edge_labels()
    n, q = t.n, t.q
    tail_of = {elabel[h]: h for h in t.orientation}
    ends = [None] * n
    for h, h2 in m.edges():
        a, b = vlabel[h], vlabel[h2]
        ends[elabel[h] - 1] = (a, b) if a <= b else (b, a)
    graph = EdgeLabelledGraph._trusted(q, tuple(ends))

    # label-sorted pairing of ingoing half-edges with outgoing oriented
    # edges at each vertex
    heads = [[] for _ in range(q)]
    tails = [[] for _ in range(q)]
    for lab in sorted(tail_of):
        th = tail_of[lab]
        tails[vid[th]].append(lab)
        heads[vid[alpha[th]]].append(lab)
    paired = {}  # ingoing half-edge -> label of the edge it leaves along
    for hs, ts in zip(heads, tails):
        assert len(hs) == len(ts)
        for hl, tl in zip(hs, ts):
            paired[alpha[tail_of[hl]]] = tl

    root_v = vid[m.root]
    nxt = [m.root if h is None else sigma[h] for h in t.up]
    left = [len(c) for c in m.vertices()]
    looped = set()
    steps = []
    current = root_v
    for _ in range(2 * n):
        if not left[current]:
            raise ValueError("walk is stuck; data is not a valid BEST pair")
        h = nxt[current]
        nxt[current] = sigma[h]
        left[current] -= 1
        lab = elabel[h]
        if lab in tail_of:
            if h != tail_of[lab]:
                lab = paired[h]
            h = tail_of[lab]
            d = 0 if vlabel[h] == ends[lab - 1][0] else 1
        elif lab in looped:
            d = 1
        else:
            u, v = ends[lab - 1]
            d = 0 if vlabel[h] == u else 1
            if u == v:
                looped.add(lab)
        current = vid[alpha[h]]
        steps.append((lab, d))
    if current != root_v:
        raise ValueError("data does not produce an Eulerian tour")
    return graph, BiEulerianTour._trusted(graph, t.vertex_labels[root_v],
                                          tuple(steps))


def theta_fiber(graph: EdgeLabelledGraph, tour: BiEulerianTour) -> tuple:
    """All preimages of a tour under theta: exactly ``2^w`` oriented
    tree-rooted maps, where ``w`` is the number of edges the tour repeats
    in the same direction.

    The edge labelled ``k+1`` owns half-edges ``2k`` and ``2k+1``; ``2k``
    lies at the smaller endpoint, at the tail of an oriented edge and at
    the first departure along a loop.
    """
    n, q = graph.n, graph.q
    ends = graph.edges
    origin = tour.origin
    oriented = tour.oriented_edges()

    # departures of each color in tour order; an oriented edge leaves its
    # tail both times
    departures = [[] for _ in range(q + 1)]
    tail_color = {}
    for lab, d in tour.steps:
        u, v = ends[lab - 1]
        c = v if d else u
        departures[c].append(lab)
        if lab in oriented:
            tail_color[lab] = c
    tree_labels = frozenset(departures[c][-1] for c in range(1, q + 1)
                            if c != origin)

    # label-sorted pairing at each color: the r-th ingoing oriented edge is
    # matched with the r-th outgoing one; the head half-edge of the edge
    # labelled k+1 is 2k+1
    heads = [[] for _ in range(q + 1)]
    tails = [[] for _ in range(q + 1)]
    for lab in sorted(oriented):
        u, v = ends[lab - 1]
        t = tail_color[lab]
        tails[t].append(lab)
        heads[u + v - t].append(lab)
    matched_head_he = {}  # outgoing oriented edge -> ingoing half-edge
    for hs, ts in zip(heads, tails):
        if len(hs) != len(ts):
            raise ValueError("tour orientation is not balanced")
        for hl, tl in zip(hs, ts):
            matched_head_he[tl] = 2 * hl - 1

    # the rotation at each color with every choice at 0, and one binary
    # choice per oriented non-tree edge between its two departures
    slots = []
    choices = []  # [color index, pos_a, pos_b, he_a, he_b]
    for c in range(1, q + 1):
        fills = []
        seen = {}  # edges already left once from here -> choice index
        tree_pos = len(departures[c]) - 1 if c != origin else -1
        for pos, lab in enumerate(departures[c]):
            k = lab - 1
            u, v = ends[k]
            if lab in oriented:
                if pos == tree_pos:
                    h = 2 * k  # the branch toward the root
                elif lab in tree_labels:
                    # the tree holds one copy; the remaining slot takes
                    # the matched ingoing half-edge
                    h = matched_head_he[lab]
                elif lab in seen:
                    h = matched_head_he[lab]
                    choices[seen[lab]][2] = pos
                else:
                    seen[lab] = len(choices)
                    choices.append([c - 1, pos, None, 2 * k,
                                    matched_head_he[lab]])
                    h = 2 * k
            elif u == v:
                h = 2 * k + (lab in seen)
                seen[lab] = None
            else:
                h = 2 * k if c == u else 2 * k + 1
            fills.append(h)
        slots.append(fills)

    alpha = tuple(h ^ 1 for h in range(2 * n))
    edge_labels = tuple(range(1, n + 1))
    tree_ids = frozenset(2 * (lab - 1) for lab in tree_labels)
    orientation = frozenset(2 * (lab - 1) for lab in oriented)
    out = []
    for assignment in itertools.product((0, 1), repeat=len(choices)):
        fills = [list(f) for f in slots] if choices else slots
        for bit, (i, pa, pb, ha, hb) in zip(assignment, choices):
            if bit:
                fills[i][pa] = hb
                fills[i][pb] = ha
        sigma = [0] * (2 * n)
        for cycle in fills:
            prev = cycle[-1]
            for h in cycle:
                sigma[prev] = h
                prev = h
        m = RootedMap._trusted(tuple(sigma), alpha, fills[origin - 1][0])
        vertex_labels = tuple(sorted(range(1, q + 1),
                                     key=lambda c: min(fills[c - 1])))
        # the last departure from every color but the origin is its tree
        # half-edge toward the root
        up = tuple(None if c == origin else fills[c - 1][-1]
                   for c in vertex_labels)
        out.append(OrientedTreeRootedMap._trusted(
            m, vertex_labels, edge_labels, tree_ids, orientation, up))
    return tuple(out)


def upsilon(t: OrientedTreeRootedMap) -> ColoredUnicellularMap:
    """The colored one-face map whose face tour is theta of ``t``."""
    graph, tour = theta(t)
    return xi_inverse(graph, tour)


def upsilon_fiber(u: ColoredUnicellularMap) -> tuple:
    """All oriented tree-rooted maps mapping to ``u``: ``2^w`` of them,
    with ``w = 0`` exactly when ``u`` is orientable."""
    graph, tour = xi(u)
    return theta_fiber(graph, tour)


def phi(u: ColoredUnicellularMap) -> OrientedTreeRootedMap:
    """Bijection from orientable colored one-face maps to tree-rooted maps
    (empty orientation)."""
    if not u.gluing.orientable:
        raise ValueError("phi is defined on orientable maps only")
    fiber = upsilon_fiber(u)
    assert len(fiber) == 1 and not fiber[0].orientation
    return fiber[0]


def phi_inverse(t: OrientedTreeRootedMap) -> ColoredUnicellularMap:
    if t.orientation:
        raise ValueError("phi inverse needs an empty orientation")
    return upsilon(t)


def gen_oriented_tree_rooted_maps(n: int, weight: int = None):
    """Stream all oriented tree-rooted maps with ``n`` edges (every vertex
    labelling, edge labelling, spanning tree and compatible balanced
    orientation), optionally restricted to one external weight.  The
    public constructor filters the trees and orientations; relabellings
    of an accepted map are built trusted, with its ``up``, which no
    relabelling changes."""
    from .enumeration import gen_rooted_orientable_maps, spanning_edge_subsets

    for m in gen_rooted_orientable_maps(n):
        q = len(m.vertices())
        trees = spanning_edge_subsets(m)
        orientations = _balanced_orientations(m)
        for tree in trees:
            for orient in orientations:
                try:
                    t = OrientedTreeRootedMap(
                        m, tuple(range(1, q + 1)), tuple(range(1, n + 1)),
                        tree, orient)
                except ValueError:
                    continue
                if weight is not None and t.external_weight != weight:
                    continue
                for vperm in itertools.permutations(range(1, q + 1)):
                    for eperm in itertools.permutations(range(1, n + 1)):
                        yield OrientedTreeRootedMap._trusted(
                            m, vperm, eperm, t.tree, t.orientation, t.up)


def _balanced_orientations(m: RootedMap):
    """All balanced partial orientations of ``m`` as tail half-edge sets."""
    vid = m.vertex_index()
    q = max(vid) + 1
    eids = [min(c) for c in m.edges()]
    out = []
    for subset in _subsets(eids):
        for tails in itertools.product(*[(h, m.alpha[h]) for h in subset]):
            flow = [0] * q
            for h in tails:
                flow[vid[h]] += 1
                flow[vid[m.alpha[h]]] -= 1
            if not any(flow):
                out.append(frozenset(tails))
    return sorted(set(out), key=sorted)


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


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
    Validation keeps those faces as ``submap_faces``; they take no part
    in equality or hashing.
    """

    m: RootedMap
    vertex_labels: tuple
    edge_labels: tuple
    submap: frozenset
    face_labels: tuple
    submap_faces = None

    def __post_init__(self):
        self._tuple_labels()
        object.__setattr__(self, "submap", frozenset(self.submap))
        object.__setattr__(self, "face_labels", tuple(self.face_labels))
        self.validate()

    @classmethod
    def _trusted(cls, m, vertex_labels, edge_labels, submap, face_labels,
                 submap_faces) -> "ExternallyLabelledPlanarRootedMap":
        """A map from fields known to be valid (tuples and a frozenset)
        and the caller's trace ``submap_faces`` of the submap's faces, as
        :func:`_submap_faces_of` lists them.  Nothing is checked."""
        return _unchecked(cls, m=m, vertex_labels=vertex_labels,
                          edge_labels=edge_labels, submap=submap,
                          face_labels=face_labels, submap_faces=submap_faces)

    def validate(self) -> None:
        """Raise ValueError unless the submap is a spanning planar submap
        with labelled faces, and keep its faces (kept faces that disagree
        with the submap are an error)."""
        m = self.m
        alpha = m.alpha
        nh = len(alpha)
        q, n = len(m.vertices()), nh // 2
        self._check_labels(q, n)
        # an edge id is the smaller half-edge of its edge
        if not all(0 <= e < nh and e < alpha[e] for e in self.submap):
            raise ValueError("submap contains unknown edges")
        # spanning and connected
        vid = m.vertex_index()
        ds = DisjointSets(q)
        touched = set()
        for eid in self.submap:
            ds.union(vid[eid], vid[alpha[eid]])
            touched.add(vid[eid])
            touched.add(vid[alpha[eid]])
        if self.submap:
            if touched != set(range(q)) or len(ds.classes()) != 1:
                raise ValueError("submap is not spanning and connected")
        elif q != 1:
            raise ValueError("submap is not spanning and connected")
        # planarity of the inherited rotation system
        faces = tuple(_submap_faces_of(m, self.submap))
        if q - len(self.submap) + len(faces) != 2:
            raise ValueError("submap is not planar")
        if sorted(self.face_labels) != list(range(1, len(faces) + 1)):
            raise ValueError("face labels must be a permutation of 1..r")
        if self.submap_faces is not None and self.submap_faces != faces:
            raise ValueError("kept submap faces disagree with the submap")
        object.__setattr__(self, "submap_faces", faces)

    @property
    def r(self) -> int:
        return len(self.face_labels)

    @property
    def external_weight(self) -> int:
        return self.r - 1

    def canonical_key(self) -> tuple:
        """Hashable form invariant under half-edge relabelling."""
        perm, key = self._canonical_form(self.submap)
        return key + (tuple(sorted(
            (min((perm[x] for x in f), default=-1), lab)
            for f, lab in zip(self.submap_faces, self.face_labels))),)


def _project(m: RootedMap, slots: set):
    """Rotation and pairing induced by ``m`` on a subset of half-edges."""
    sigma = {}
    # in slot order, so that every face traced on the system starts at
    # its minimum
    for h in sorted(slots):
        x = m.sigma[h]
        while x not in slots:
            x = m.sigma[x]
        sigma[h] = x
    mate = {h: m.alpha[h] for h in slots}
    return sigma, mate


def _submap_system(m: RootedMap, submap: frozenset):
    """Rotation and pairing induced by ``m`` on the half-edges of a
    submap given by its edge ids."""
    return _project(m, {h for h in range(m.half_edge_count)
                        if m.edge_of(h) in submap})


def _submap_faces_of(m: RootedMap, submap: frozenset):
    """Faces of a spanning submap, ordered by minimum half-edge; for the
    empty submap (single vertex) a single synthetic empty face."""
    from .planar_closure import slot_faces

    if not submap:
        return [()]
    return sorted(slot_faces(*_submap_system(m, submap)), key=min)


def _canonical_inner_faces(m: RootedMap, faces, outer_rep: int):
    """Inner submap faces in the order induced by the canonical
    relabelling of the whole map (invariant under half-edge renaming)."""
    perm = canonical_relabelling(m)
    inner = [f for f in faces if f and min(f) != outer_rep]
    return sorted(inner, key=lambda f: min(perm[x] for x in f))


def psi(p: ExternallyLabelledPlanarRootedMap) -> ColoredUnicellularMap:
    """Map an externally-labelled planar-rooted map to a colored one-face
    map.  The face labelled ``r`` is taken as the outer face; opening the
    submap recovers a near-Eulerian tree whose cut edges are re-joined
    according to the remaining labels, giving a compatibly-oriented
    tree-rooted map, whose tour is then read off."""
    from .planar_closure import open_slots

    m = p.m
    faces = p.submap_faces
    r = len(faces)
    if r == 1:
        t = OrientedTreeRootedMap._trusted(m, p.vertex_labels, p.edge_labels,
                                           p.submap, frozenset())
        return upsilon(t)
    sigma_sub, mate_sub = _submap_system(m, p.submap)
    label_of_rep = {min(f): lab for f, lab in zip(faces, p.face_labels)}
    outer_rep = next(min(f) for f in faces if label_of_rep[min(f)] == r)
    vid = m.vertex_index()
    root_sub = min(h for h in sigma_sub if vid[h] == vid[m.root])
    tree_mate, tails, cuts = open_slots(mate_sub, faces, vid, root_sub,
                                        outer_rep)
    # cut bookkeeping: inner face -> (out slot, in slot)
    buds_of_rep = {f: (o, i) for f, o, i in cuts}
    inner = _canonical_inner_faces(m, faces, outer_rep)
    by_index = {k + 1: f for k, f in enumerate(inner)}
    # re-join the buds: the face labelled j sends its outgoing bud to the
    # ingoing bud of the j-th inner face in canonical order
    pairs = []
    for f in inner:
        o, _ = buds_of_rep[min(f)]
        _, i = buds_of_rep[min(by_index[label_of_rep[min(f)]])]
        pairs.append((o, i))
    m2, edge_labels = p._rejoined(pairs)
    tree = frozenset(eid for eid in p.submap if tree_mate[eid] >= 0)
    orientation = frozenset(tails) | {o for o, _ in pairs}
    t = OrientedTreeRootedMap._trusted(m2, p.vertex_labels, edge_labels,
                                       tree, orientation)
    return upsilon(t)


def psi_fiber(u: ColoredUnicellularMap) -> tuple:
    """All preimages of ``u`` under psi: exactly ``2^w`` externally
    labelled planar-rooted maps whose submaps have ``w + 1`` faces."""
    from .planar_closure import close_slots, open_slots, slot_faces

    out = []
    for t in upsilon_fiber(u):
        m = t.m
        cut_edges = [m.edge_of(h) for h in t.orientation
                     if m.edge_of(h) not in t.tree]
        if not cut_edges:
            out.append(ExternallyLabelledPlanarRootedMap._trusted(
                m, t.vertex_labels, t.edge_labels, t.tree, (1,),
                tuple(_submap_faces_of(m, t.tree))))
            continue
        tail_of_edge = {m.edge_of(h): h for h in t.orientation}
        # near-Eulerian tree inside the map: tree half-edges plus the buds
        # of the cut oriented edges
        slots = set()
        for eid in t.tree:
            slots.add(eid)
            slots.add(m.alpha[eid])
        buds = {}
        for eid in cut_edges:
            o = tail_of_edge[eid]
            buds[o] = True
            buds[m.alpha[o]] = False
            slots.add(o)
            slots.add(m.alpha[o])
        sigma_sub, mate_sub = _project(m, slots)
        for h in buds:
            mate_sub[h] = -1
        vid = m.vertex_index()
        root_sub = min(h for h in slots if vid[h] == vid[m.root])
        out_buds = {h for h, is_out in buds.items() if is_out}
        full, pairs, outer_rep = close_slots(sigma_sub, mate_sub,
                                             out_buds, root_sub)
        # the closed submap inside the big map
        m2, edge_labels = t._rejoined(pairs)
        submap = frozenset(min(h, full[h]) for h in slots)
        # association inner face -> closure pair, by re-opening the
        # closed submap, whose faces are traced once for this and for the
        # face labels
        faces = sorted(slot_faces(sigma_sub, full), key=min)
        tree_mate, _, cuts = open_slots(full, faces, vid, root_sub,
                                        outer_rep)
        assert {h for h in slots if tree_mate[h] == -1} == set(buds), \
            "re-opening disagrees with the cutting"
        out_slot_of_rep = {f: o for f, o, i in cuts}
        in_face_of_slot = {i: f for f, o, i in cuts}
        inner = _canonical_inner_faces(m2, faces, outer_rep)
        index_of_rep = {min(f): k + 1 for k, f in enumerate(inner)}
        # labels: the face whose outgoing bud originally matched the
        # ingoing bud of inner face G gets G's canonical index
        label_of_rep = {}
        for f in inner:
            o = out_slot_of_rep[min(f)]
            partner_face = in_face_of_slot[m.alpha[o]]
            label_of_rep[min(f)] = index_of_rep[partner_face]
        w = len(inner)
        face_labels = tuple(
            label_of_rep.get(min(f), w + 1) for f in faces)
        out.append(ExternallyLabelledPlanarRootedMap._trusted(
            m2, t.vertex_labels, edge_labels, submap, face_labels,
            tuple(faces)))
    return tuple(out)


def gen_externally_labelled_maps(n: int):
    """Stream every externally-labelled planar-rooted map with n edges.
    The public constructor filters the submaps; relabellings of an
    accepted map are built trusted, with its submap faces, which no
    relabelling changes."""
    from .enumeration import gen_rooted_orientable_maps

    for m in gen_rooted_orientable_maps(n):
        q = len(m.vertices())
        eids = [min(c) for c in m.edges()]
        for sub in _subsets(eids):
            r = len(_submap_faces_of(m, frozenset(sub)))
            try:
                p = ExternallyLabelledPlanarRootedMap(
                    m, tuple(range(1, q + 1)), tuple(range(1, n + 1)),
                    frozenset(sub), tuple(range(1, r + 1)))
            except ValueError:
                continue
            for vperm in itertools.permutations(range(1, q + 1)):
                for eperm in itertools.permutations(range(1, n + 1)):
                    for fperm in itertools.permutations(range(1, r + 1)):
                        yield ExternallyLabelledPlanarRootedMap._trusted(
                            m, vperm, eperm, p.submap, fperm,
                            p.submap_faces)
