"""Closure and opening between near-Eulerian trees and plane maps.

A near-Eulerian tree is a rooted plane tree where some edges are oriented
toward the root vertex and some dangling half-edges (buds, ingoing or
outgoing) are inserted in the rotations, subject to every vertex having as
many ingoing as outgoing half-edges.  The closure joins each outgoing bud
to an ingoing bud by a new edge in the unique non-crossing way compatible
with the embedding, producing a plane map (a planar rooted map with a
marked outer face).  The opening inverts this: it cuts, for each inner
face, its breakable edge (the outer-incident edge that follows the
component of the root vertex around the face), ring by ring in order of
the faces' dual distance from the outer face in the closed map, until
only the outer face remains.  Round k cuts the faces at distance k, which
the cuts of the rounds before have brought to distance 1.

Everything is combinatorial: plane maps are rotation systems of genus 0
with a distinguished face, and one chirality holds throughout.  In
face-walk order outgoing buds open and ingoing buds close the
non-crossing matching, and the infinite face of a closure is the orbit of
the outgoing bud of an outermost arch.  The face on the reference side of
a half-edge, directed away from its vertex, is the face of its mate's
orbit, so a dual-distance edge has its tail on the nearer face's orbit.
The breakable edge is the outer-incident edge crossed right after the
stretch of the face on the root vertex's component.  Of the sixteen ways
to choose these four rules, this is the only one under which both round
trips succeed on every instance up to 8 slots; the global mirror image
would be an equally valid normalization.
"""

from __future__ import annotations

from .maps_core import (
    RootedMap,
    _unchecked,
    canonical_relabelling,
    euler_data,
    record,
)


@record
class NearEulerianTree:
    """Rooted plane tree with buds and a partial orientation.

    Slots ``0..s-1`` are the rotation items: tree half-edges and buds.
    ``sigma`` is the rotation, ``mate[i]`` the paired slot of a tree
    half-edge and -1 for buds, ``out_buds`` the outgoing buds (the other
    buds are ingoing), ``tails`` the tail slots of the oriented tree edges
    (each must sit on the child side, so the edge points toward the root).
    """

    sigma: tuple
    mate: tuple
    out_buds: frozenset
    tails: frozenset
    root: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "mate", tuple(self.mate))
        object.__setattr__(self, "out_buds", frozenset(self.out_buds))
        object.__setattr__(self, "tails", frozenset(self.tails))
        self.validate()

    @classmethod
    def _trusted(cls, sigma: tuple, mate: tuple, out_buds: frozenset,
                 tails: frozenset, root: int) -> "NearEulerianTree":
        """A tree from fields known to form a valid near-Eulerian tree;
        nothing is checked."""
        return _unchecked(cls, sigma=sigma, mate=mate, out_buds=out_buds,
                          tails=tails, root=root)

    def validate(self) -> None:
        """Raise ValueError unless the slots form a balanced rooted plane
        tree with buds, oriented toward the root; one linear pass."""
        sigma, mate = self.sigma, self.mate
        out_buds, tails = self.out_buds, self.tails
        s = len(sigma)
        if s == 0:
            raise ValueError("need at least one slot")
        if sorted(sigma) != list(range(s)) or len(mate) != s:
            raise ValueError("sigma must be a permutation of the slots")
        root = self.root
        if not 0 <= root < s:
            raise ValueError("root slot out of range")
        buds = []
        for i, j in enumerate(mate):
            if j == -1:
                buds.append(i)
            elif not (0 <= j < s) or mate[j] != i or j == i:
                raise ValueError("mate is not an involution with -1 buds")
        if not out_buds.issubset(buds):
            raise ValueError("out_buds must be bud slots")
        # vertices are the sigma-orbits, numbered in order of first slot
        vertex = [-1] * s
        nv = 0
        for start in range(s):
            if vertex[start] < 0:
                x = start
                while vertex[x] < 0:
                    vertex[x] = nv
                    x = sigma[x]
                nv += 1
        # nv - 1 edges reaching every vertex from the root: a spanning
        # tree.  The search walks each vertex's rotation from the slot it
        # was entered by, and gives every vertex's depth.
        if s - len(buds) != 2 * (nv - 1):
            raise ValueError("slot pairing does not form a tree")
        depth = [-1] * nv
        depth[vertex[root]] = 0
        queue = [root]
        for entry in queue:
            d = depth[vertex[entry]] + 1
            x = entry
            while True:
                j = mate[x]
                if j >= 0 and depth[vertex[j]] < 0:
                    depth[vertex[j]] = d
                    queue.append(j)
                x = sigma[x]
                if x == entry:
                    break
        if len(queue) != nv:
            raise ValueError("slot pairing does not form a tree")
        # orientation: tails on tree half-edges, toward the root
        if not all(0 <= t < s and 0 <= mate[t] for t in tails):
            raise ValueError("tails must be tree half-edges")
        if any(mate[t] in tails for t in tails):
            raise ValueError("edge oriented both ways")
        for t in tails:
            if depth[vertex[t]] <= depth[vertex[mate[t]]]:
                raise ValueError("oriented edge points away from the root")
        # balance: per vertex, ingoing items match outgoing items
        flow = [0] * nv
        for b in buds:
            flow[vertex[b]] += 1 if b in out_buds else -1
        for t in tails:
            flow[vertex[t]] += 1
            flow[vertex[mate[t]]] -= 1
        if any(flow):
            raise ValueError("near-Eulerian balance fails at a vertex")

    @property
    def external_weight(self) -> int:
        return len(self.out_buds)


@record
class PlaneMap:
    """A rooted planar map with a marked outer face.

    ``outer`` is the minimum half-edge of the marked face's orbit.  The
    breadth-first search of the dual graph from the outer face
    (:meth:`layers`) runs at most once, on first use, and takes no part
    in equality or hashing.
    """

    m: RootedMap
    outer: int
    _layers = None

    def __post_init__(self):
        self.validate()

    @classmethod
    def _trusted(cls, m: RootedMap, outer: int) -> "PlaneMap":
        """A plane map known to have genus 0 and ``outer`` a face
        identifier; nothing is checked."""
        return _unchecked(cls, m=m, outer=outer)

    def validate(self) -> None:
        """Raise ValueError unless ``m`` has genus 0 and ``outer`` is one
        of its face identifiers; ``m`` keeps the orbits this traces."""
        m = self.m
        faces = m.faces()
        # Euler characteristic 2 - 2 genus; genus 0 means exactly 2
        if len(m.vertices()) - m.half_edge_count // 2 + len(faces) != 2:
            raise ValueError("plane maps must have genus 0")
        # each face orbit starts at its minimum
        outer = self.outer
        if not (0 <= outer < m.half_edge_count
                and faces[m.face_index()[outer]][0] == outer):
            raise ValueError("outer is not a face identifier")

    def layers(self) -> tuple:
        """The :func:`dual_layers` triple ``(face_of, dist, tails)`` of
        the map's faces, computed once; callers must not mutate it."""
        if self._layers is None:
            object.__setattr__(self, "_layers", dual_layers(
                self.m.faces(), dict(enumerate(self.m.alpha)), self.outer))
        return self._layers

    def canonical_key(self) -> tuple:
        """Hashable form invariant under half-edge relabelling: the
        first-visit relabelling's rotation and pairing, then the least
        new label on the outer face."""
        m = self.m
        perm = canonical_relabelling(m)
        c = m.relabelled(perm)
        outer_face = m.faces()[m.face_index()[self.outer]]
        return c.sigma + c.alpha + (min(perm[x] for x in outer_face),)


# ---------------------------------------------------------------------------
# Generic slot-level machinery (shared with the psi construction, which
# operates on submaps of larger maps)
# ---------------------------------------------------------------------------


def slot_face(sigma: dict, mate: dict, start) -> tuple:
    """Face orbit of a slot system through ``start``: the next slot is
    ``sigma[mate[x]]`` along an edge and ``sigma[x]`` at a bud."""
    orbit = [start]
    m = mate[start]
    x = sigma[m] if m >= 0 else sigma[start]
    while x != start:
        orbit.append(x)
        m = mate[x]
        x = sigma[m] if m >= 0 else sigma[x]
    return tuple(orbit)


def slot_faces(sigma: dict, mate: dict) -> list:
    """Every face orbit of a slot system (see :func:`slot_face`), each
    from its first slot in ``sigma`` order."""
    seen = set()
    out = []
    for start in sigma:
        if start not in seen:
            orbit = slot_face(sigma, mate, start)
            seen.update(orbit)
            out.append(orbit)
    return out


def _arches(buds: list):
    """Non-crossing matching of buds in cyclic face-walk order, in one
    stack pass.

    ``buds`` lists ``(slot, is_out)`` pairs; outgoing buds open and
    ingoing buds close.  Read
    from just after its lowest prefix depth, the walk never goes below
    that depth, so every closer meets its opener on the stack; the arches
    that close back at that depth are the outermost ones, inside no other
    arch.  Returns ``(pairs, outermost)``, lists of
    ``(out_slot, in_slot)``.
    """
    depth = low = start = 0
    for k, (_, is_out) in enumerate(buds):
        depth += 1 if is_out else -1
        if depth < low:
            low, start = depth, k + 1
    if depth:
        raise ValueError("buds cannot be matched")
    pairs = []
    outermost = []
    stack = []
    for slot, is_out in buds[start:] + buds[:start]:
        if is_out:
            stack.append(slot)
            continue
        pair = (stack.pop(), slot)
        pairs.append(pair)
        if not stack:
            outermost.append(pair)
    return pairs, outermost


def close_slots(sigma: dict, mate: dict, out_buds: set, root: int):
    """Join the buds of a one-face slot system; returns the completed mate
    map, the closure pairs and the outer face representative.

    Each closure edge covers the stretch of the tree contour from its
    outgoing to its ingoing bud; only the outermost arches border the
    infinite face, so only the closed face through one of them is traced.
    """
    walk = slot_face(sigma, mate, root)
    if len(walk) != len(sigma):
        raise ValueError("closure needs a single face")
    pairs, outermost = _arches([(x, x in out_buds) for x in walk
                                if mate[x] < 0])
    full = dict(mate)
    for o, i in pairs:
        full[o] = i
        full[i] = o
    if not pairs:
        return full, pairs, min(walk)
    outer_face = slot_face(sigma, full, outermost[0][0])
    on_outer = set(outer_face)
    if any(o not in on_outer for o, _ in outermost):
        raise ValueError("closure edges disagree on the outer face")
    return full, pairs, min(outer_face)


def dual_layers(faces: list, mate: dict, outer: int):
    """One breadth-first search of the dual graph from the outer face,
    over the face orbits ``faces`` of the slot system.

    Returns ``(face_of, dist, tails)``: the index in ``faces`` of every
    slot's face, the dual distance of every face and the tail slots of
    the dual-distance orientation (an edge is oriented when its sides lie
    at different distances, with the larger-distance face on the fixed
    reference side).
    """
    face_of = {}
    for k, f in enumerate(faces):
        for x in f:
            face_of[x] = k
    adj = [set() for _ in faces]
    for x, mx in mate.items():
        if mx >= 0:
            adj[face_of[x]].add(face_of[mx])
    dist = [-1] * len(faces)
    dist[face_of[outer]] = 0
    order = [face_of[outer]]
    i = 0
    while i < len(order):
        f = order[i]
        for g in adj[f]:
            if dist[g] < 0:
                dist[g] = dist[f] + 1
                order.append(g)
        i += 1
    if len(order) != len(faces):
        raise ValueError("dual graph is disconnected")
    tails = set()
    for x, mx in mate.items():
        if mx < 0 or mx < x:
            continue
        da, db = dist[face_of[x]], dist[face_of[mx]]
        if da == db:
            continue
        tails.add(mx if da > db else x)
    return face_of, dist, tails


def open_slots(mate: dict, faces: list, vertex, root: int, layers: tuple):
    """Cut the breakable edges ring by ring until only the outer face is
    left.  ``faces`` are the face orbits of the slot system,
    ``vertex[x]`` identifies the vertex of slot ``x`` and ``layers`` is
    the :func:`dual_layers` triple of ``faces`` from the outer face,
    which the caller may already hold for other uses.  Returns
    ``(tree_mate, tails, cuts)`` where ``cuts`` is a list of
    ``(face_rep, out_slot, in_slot)`` with ``face_rep`` identifying the
    inner face (its minimum slot) whose breakable edge was cut.

    Round k cuts the faces at dual distance k in the map as given: once
    the rings below k are cut, the outer face has absorbed them, so those
    faces are the ones at distance 1, and no face's orbit changes before
    its own cut.  The distances are computed once; a face's
    outer-incident edges in round k are its still-paired slots whose
    mate lies on a face at distance below k.
    """
    face_of, dist, full_tails = layers
    # per vertex, its paired slots with the vertex across the edge
    adj: dict = {}
    for x, mx in mate.items():
        if mx >= 0:
            adj.setdefault(vertex[x], []).append((x, vertex[mx]))
    root_v = vertex[root]
    rings = [[] for _ in range(max(dist) + 1)]
    for f, d in enumerate(dist):
        rings[d].append(f)
    mm = dict(mate)
    cuts = []
    for k in range(1, len(rings)):
        ring_cuts = []
        for f in rings[k]:
            orbit = faces[f]
            eslots = [x for x in orbit
                      if mm[x] >= 0 and dist[face_of[mm[x]]] < k]
            if not eslots:
                raise ValueError("distance-1 face without outer edges")
            # the root vertex's component after deleting the
            # outer-incident edges of f
            cut_set = set(eslots)
            cut_set.update(mm[x] for x in eslots)
            reached = {root_v}
            stack = [root_v]
            while stack:
                for x, w in adj.get(stack.pop(), ()):
                    if w not in reached and mm[x] >= 0 and x not in cut_set:
                        reached.add(w)
                        stack.append(w)
            # the slot after x along f is sigma[mm[x]], at mm[x]'s vertex
            chosen = [x for x in eslots if vertex[mm[x]] in reached]
            if len(chosen) != 1:
                raise ValueError("breakable edge is not unique")
            b = chosen[0]
            # the breakable edge separates f from the outer face, so it
            # is oriented; cut it into an out and an in bud
            tail = b if b in full_tails else mm[b]
            if tail not in full_tails:
                raise ValueError("breakable edge is not oriented")
            ring_cuts.append((min(orbit), tail, mm[tail]))
        for _, t, h in ring_cuts:
            mm[t] = -1
            mm[h] = -1
        cuts.extend(ring_cuts)
    tails = {t for t in full_tails if mm[t] >= 0}
    return mm, tails, cuts


# ---------------------------------------------------------------------------
# Public wrappers on whole objects
# ---------------------------------------------------------------------------


def dual_distance_orientation(p: PlaneMap) -> frozenset:
    """Tail half-edges of the dual-distance orientation: exactly the
    edges whose two sides have different dual distances are oriented."""
    return frozenset(p.layers()[2])


def closure_gamma(t: NearEulerianTree) -> PlaneMap:
    """Close a near-Eulerian tree into a plane map on the same slots."""
    sigma, mate = dict(enumerate(t.sigma)), dict(enumerate(t.mate))
    full, pairs, outer = close_slots(sigma, mate, set(t.out_buds), t.root)
    # full is a copy of the slot-ordered mate dict, in slot order
    m = RootedMap._trusted(t.sigma, tuple(full.values()), t.root)
    return PlaneMap._trusted(m, outer)


def opening_delta(p: PlaneMap) -> NearEulerianTree:
    """Open a plane map into a near-Eulerian tree on the same slots, from
    the face orbits and vertex index that ``p.m`` keeps and the dual
    layers that ``p`` keeps."""
    m = p.m
    tree_mate, tails, cuts = open_slots(
        dict(enumerate(m.alpha)), m.faces(), m.vertex_index(), m.root,
        p.layers())
    out_buds = frozenset(t for _, t, _ in cuts)
    # tree_mate is a copy of the slot-ordered mate dict, in slot order
    return NearEulerianTree._trusted(m.sigma, tuple(tree_mate.values()),
                                     out_buds, frozenset(tails), m.root)


def gen_near_eulerian_trees(max_slots: int):
    """All near-Eulerian trees with at most ``max_slots`` rotation items."""
    for shape in _tree_shapes(max_slots):
        yield from _decorate(shape)


def _tree_shapes(budget: int):
    """Nested shapes: a vertex is a tuple of items, each item either 'bud'
    or a child vertex tuple.  The root tuple must be nonempty."""
    def _vertex_tuples(size):
        # all vertex tuples using exactly `size` slots at this vertex's
        # items (an edge to a child uses 2 slots: one here, one there)
        if size == 0:
            yield ()
            return
        for first_cost in (1, 2):
            if first_cost > size:
                continue
            if first_cost == 1:
                for rest in _vertex_tuples(size - 1):
                    yield ("bud",) + rest
            else:
                # child edge: 1 slot here + 1 slot at the child + child items
                for sub in range(0, size - 2 + 1):
                    for child in _vertex_tuples(sub):
                        for rest in _vertex_tuples(size - 2 - sub):
                            yield (child,) + rest

    for total in range(1, budget + 1):
        yield from _vertex_tuples(total)


def _decorate(shape):
    """Every near-Eulerian tree on a shape, bud directions in
    ``itertools.product`` order (first bud slowest, ingoing first).

    Count an outgoing bud as +1 and an ingoing one as -1, and let S be
    the sum over the buds below a tree edge.  Balance at every vertex
    forces that edge to be oriented (tail at the child) when S = -1 and
    unoriented when S = 0; any other S, or a nonzero sum over the whole
    tree, admits no orientation.  The buds of a subtree are contiguous in
    preorder, so a prefix of bud directions is pruned as soon as one of
    its closed subtrees or the remaining total cannot balance.
    """
    sigma, mate, buds, edges = _layout(shape)
    k = len(buds)
    if k % 2:
        return
    # edges whose subtree has buds, by the index of its last bud
    closing = [[] for _ in range(k)]
    for child, lo, hi in edges:
        if lo < hi:
            closing[hi - 1].append(lo)
    prefix = [0] * (k + 1)
    out = [False] * k

    def extend(j):
        if j == k:
            tails = frozenset(child for child, lo, hi in edges
                              if prefix[hi] - prefix[lo] == -1)
            yield NearEulerianTree._trusted(
                sigma, mate, frozenset(b for b, o in zip(buds, out) if o),
                tails, 0)
            return
        for is_out in (False, True):
            p = prefix[j] + (1 if is_out else -1)
            if abs(p) > k - j - 1:
                continue
            if all(p - prefix[lo] in (0, -1) for lo in closing[j]):
                prefix[j + 1] = p
                out[j] = is_out
                yield from extend(j + 1)

    yield from extend(0)


def _layout(shape):
    """Slots of a shape in preorder: ``(sigma, mate, buds, edges)`` with
    the bud slots in preorder and, per tree edge, ``(child_slot, lo, hi)``
    where ``buds[lo:hi]`` are the buds of the subtree below it."""
    sigma = []
    mate = []
    buds = []
    edges = []

    def alloc():
        sigma.append(None)
        mate.append(-1)
        return len(sigma) - 1

    def place(vertex, parent_slot):
        own = [] if parent_slot is None else [parent_slot]
        for item in vertex:
            s = alloc()
            own.append(s)
            if item == "bud":
                buds.append(s)
            else:
                child = alloc()
                mate[s] = child
                mate[child] = s
                lo = len(buds)
                place(item, child)
                edges.append((child, lo, len(buds)))
        for k, s in enumerate(own):
            sigma[s] = own[(k + 1) % len(own)]

    place(shape, None)
    return tuple(sigma), tuple(mate), buds, edges


def gen_plane_maps(max_edges: int):
    """All plane maps with 1..max_edges edges (each planar rooted map once
    per choice of marked face), by brute force over the rooted maps.  An
    oracle for the tests and the benchmark's pools; no check calls it:
    ``verify gamma-roundtrip`` counts the plane maps with the planar
    census instead."""
    from .enumeration import gen_rooted_orientable_maps

    for e in range(1, max_edges + 1):
        for m in gen_rooted_orientable_maps(e):
            if euler_data(m)[3] != 0:
                continue
            for f in m.faces():
                yield PlaneMap._trusted(m, f[0])
