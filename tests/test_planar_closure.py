import itertools
import random
from collections import Counter

import pytest
from map_oracle import relabelled, walk_slot_faces
from revalidate import revalidated

from unimaps import maps_core, planar_closure
from unimaps.checks import CHECKS
from unimaps.enumeration import planar_census
from unimaps.maps_core import DisjointSets, RootedMap
from unimaps.planar_closure import (
    NearEulerianTree,
    PlaneMap,
    _arches,
    _layout,
    _tree_shapes,
    close_slots,
    closure_gamma,
    dual_distance_orientation,
    dual_layers,
    gen_near_eulerian_trees,
    gen_plane_maps,
    open_slots,
    opening_delta,
    slot_faces,
)


# ---------------------------------------------------------------------------
# Oracles: the round-based opening, which traces the faces and reruns the
# dual-distance search once per cut round; the list-scan closure, which
# restarts its matching scan after every pair and compares every arch with
# every other to find the outermost ones; and the dict/union-find
# near-Eulerian tree validator.  The opening and closure oracles run on
# slot dicts and trace faces with ``walk_slot_faces``, a walk of their own.
# ---------------------------------------------------------------------------


def slot_system(sigma: tuple, mate: tuple):
    """Slot-level dicts of a rotation and a pairing on slots ``0..s-1``."""
    return dict(enumerate(sigma)), dict(enumerate(mate))


def slot_vertices(sigma) -> dict:
    """slot -> vertex representative (minimum slot of its sigma orbit);
    ``sigma`` is a slot dict or a permutation tuple of the slots."""
    vertex = {}
    for start in sigma:
        if start in vertex:
            continue
        orbit = [start]
        x = sigma[start]
        while x != start:
            orbit.append(x)
            x = sigma[x]
        rep = min(orbit)
        for y in orbit:
            vertex[y] = rep
    return vertex


def random_near_eulerian_tree(rng, slots: int) -> NearEulerianTree:
    """A near-Eulerian tree with ``slots`` rotation items (an even number:
    a tree with an odd number of slots has an odd number of buds, which
    cannot balance), drawn with
    ``rng`` (not uniformly): a random plane tree with buds, then bud
    directions chosen in preorder at random, backtracking where a subtree
    or the whole tree cannot balance (the rule of ``_decorate``).  A shape
    that no direction balances, or that the bounded backtracking does not
    balance, is redrawn."""

    def shape(size):
        items = []
        while size:
            if size >= 2 and rng.random() < 0.5:
                sub = rng.randint(0, size - 2)
                items.append(shape(sub))
                size -= 2 + sub
            else:
                items.append("bud")
                size -= 1
        return tuple(items)

    def extend(j):
        # at most `budget` steps per shape, then the shape is redrawn
        budget[0] -= 1
        if j == k:
            return True
        for is_out in rng.sample((False, True), 2):
            p = prefix[j] + (1 if is_out else -1)
            if budget[0] > 0 and abs(p) <= k - j - 1 and all(
                    p - prefix[lo] in (0, -1) for lo in closing[j]):
                prefix[j + 1] = p
                out[j] = is_out
                if extend(j + 1):
                    return True
        return False

    while True:
        sigma, mate, buds, edges = _layout(shape(slots))
        k = len(buds)
        # per bud, the subtrees whose buds end there
        closing = [[] for _ in range(k)]
        for _, lo, hi in edges:
            if lo < hi:
                closing[hi - 1].append(lo)
        prefix = [0] * (k + 1)
        out = [False] * k
        budget = [200]
        if k % 2 == 0 and extend(0):
            break
    tails = {child for child, lo, hi in edges
             if prefix[hi] - prefix[lo] == -1}
    return NearEulerianTree(sigma, mate,
                            {b for b, o in zip(buds, out) if o}, tails)


def oracle_validate_tree(sigma, mate, out_buds, tails, root):
    """The dict/union-find validator of near-Eulerian trees: raises
    ``ValueError`` with the same messages as ``NearEulerianTree``, and
    assumes every tail is a slot."""
    s = len(sigma)
    if s == 0:
        raise ValueError("need at least one slot")
    if sorted(sigma) != list(range(s)) or len(mate) != s:
        raise ValueError("sigma must be a permutation of the slots")
    if not 0 <= root < s:
        raise ValueError("root slot out of range")
    buds = set()
    for i, j in enumerate(mate):
        if j == -1:
            buds.add(i)
        elif not (0 <= j < s) or mate[j] != i or j == i:
            raise ValueError("mate is not an involution with -1 buds")
    if not out_buds <= buds:
        raise ValueError("out_buds must be bud slots")
    vertex = slot_vertices(sigma)
    nv = len(set(vertex.values()))
    edges = {(i, mate[i]) for i in range(s) if 0 <= mate[i] and i < mate[i]}
    if len(edges) != nv - 1:
        raise ValueError("slot pairing does not form a tree")
    ds = DisjointSets(s)
    for a, b in edges:
        if ds.find(vertex[a]) == ds.find(vertex[b]):
            raise ValueError("slot pairing does not form a tree")
        ds.union(vertex[a], vertex[b])
    if not all(0 <= mate[t] for t in tails):
        raise ValueError("tails must be tree half-edges")
    if any(mate[t] in tails for t in tails):
        raise ValueError("edge oriented both ways")
    adj: dict[int, list] = {}
    for a, b in edges:
        adj.setdefault(vertex[a], []).append(vertex[b])
        adj.setdefault(vertex[b], []).append(vertex[a])
    root_v = vertex[root]
    depth = {root_v: 0}
    queue = [root_v]
    for v in queue:
        for w in adj.get(v, ()):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    for t in tails:
        if depth[vertex[t]] <= depth[vertex[mate[t]]]:
            raise ValueError("oriented edge points away from the root")
    flow: dict[int, int] = {}
    for b in buds:
        flow[vertex[b]] = flow.get(vertex[b], 0) + (
            1 if b in out_buds else -1)
    for t in tails:
        flow[vertex[t]] = flow.get(vertex[t], 0) + 1
        h = mate[t]
        flow[vertex[h]] = flow.get(vertex[h], 0) - 1
    if any(flow.values()):
        raise ValueError("near-Eulerian balance fails at a vertex")


def match_buds(bud_walk: list) -> list:
    """Non-crossing matching of ``(slot, is_out)`` buds in cyclic order by
    repeatedly pairing the first adjacent opener and closer."""
    items = list(bud_walk)
    pairs = []
    while items:
        n = len(items)
        done = False
        for i in range(n):
            slot, is_out = items[i]
            nslot, nis_out = items[(i + 1) % n]
            if is_out and not nis_out:
                pairs.append((slot, nslot))
                for k in sorted(((i + 1) % n, i), reverse=True):
                    items.pop(k)
                done = True
                break
        if not done:
            raise ValueError("buds cannot be matched")
    return pairs


def outermost_arches(buds: list, pairs: list) -> list:
    """The pairs whose contour stretch lies inside no other pair's."""
    pos = {x: k for k, (x, _) in enumerate(buds)}
    nb = len(buds)
    spans = {(o, i): (pos[i] - pos[o]) % nb for o, i in pairs}

    def contains(a, b):
        sa = spans[a]
        return ((pos[b[0]] - pos[a[0]]) % nb < sa
                and (pos[b[1]] - pos[a[0]]) % nb <= sa)

    return [a for a in pairs
            if not any(b != a and contains(b, a) for b in pairs)]


def scan_close_slots(sigma: dict, mate: dict, out_buds: set, root: int):
    """List-scan closure: ``(full_mate, pairs, outer)`` like
    :func:`close_slots`."""
    faces = walk_slot_faces(sigma, mate)
    if len(faces) != 1:
        raise ValueError("closure needs a single face")
    walk = faces[0]
    start = walk.index(root)
    walk = walk[start:] + walk[:start]
    buds = [(x, x in out_buds) for x in walk if mate[x] < 0]
    pairs = match_buds(buds)
    full = dict(mate)
    for o, i in pairs:
        full[o] = i
        full[i] = o
    closed_faces = walk_slot_faces(sigma, full)
    if not pairs:
        assert len(closed_faces) == 1
        return full, pairs, min(closed_faces[0])
    face_of = {x: f for f in closed_faces for x in f}
    outer_orbits = {face_of[o] for o, _ in outermost_arches(buds, pairs)}
    if len(outer_orbits) != 1:
        raise ValueError("closure edges disagree on the outer face")
    return full, pairs, min(outer_orbits.pop())


def slot_dual_distances(sigma: dict, mate: dict, outer: int) -> dict:
    """Dual distance from the outer face, per face representative."""
    faces = walk_slot_faces(sigma, mate)
    face_of = {x: min(f) for f in faces for x in f}
    adj = {min(f): set() for f in faces}
    for x, mx in mate.items():
        if mx >= 0:
            adj[face_of[x]].add(face_of[mx])
            adj[face_of[mx]].add(face_of[x])
    start = face_of[outer]
    dist = {start: 0}
    queue = [start]
    while queue:
        f = queue.pop(0)
        for g in adj[f]:
            if g not in dist:
                dist[g] = dist[f] + 1
                queue.append(g)
    if len(dist) != len(faces):
        raise ValueError("dual graph is disconnected")
    return dist


def round_orientation_tails(sigma: dict, mate: dict, outer: int) -> set:
    faces = walk_slot_faces(sigma, mate)
    face_of = {x: min(f) for f in faces for x in f}
    dist = slot_dual_distances(sigma, mate, outer)
    tails = set()
    for x, mx in mate.items():
        if mx < 0 or mx < x:
            continue
        da, db = dist[face_of[x]], dist[face_of[mx]]
        if da == db:
            continue
        tails.add(mx if da > db else x)
    return tails


def breakable_round(sigma: dict, mm: dict, vertex: dict, root: int,
                    outer: int, full_tails: set):
    """Breakable edge of every current distance-1 face, as a list of
    ``(face_rep, tail_slot, head_slot)``; empty when no inner face is
    left."""
    faces = walk_slot_faces(sigma, mm)
    face_of = {x: min(f) for f in faces for x in f}
    orbit_of = {min(f): f for f in faces}
    dist = slot_dual_distances(sigma, mm, outer)
    ones = [f for f, d in dist.items() if d == 1]
    if not ones:
        if any(dist.values()):
            raise ValueError("opening is stuck")
        return []
    outer_rep = face_of[outer]
    verts = sorted(set(vertex.values()))
    index = {v: i for i, v in enumerate(verts)}
    round_cuts = []
    for f in ones:
        orbit = orbit_of[f]
        eslots = [x for x in orbit
                  if mm[x] >= 0 and face_of[mm[x]] == outer_rep]
        if not eslots:
            raise ValueError("distance-1 face without outer edges")
        ds = DisjointSets(len(verts))
        cut_set = set(eslots) | {mm[x] for x in eslots}
        for x, mx in mm.items():
            if mx >= 0 and x < mx and x not in cut_set:
                ds.union(index[vertex[x]], index[vertex[mx]])
        root_comp = ds.find(index[vertex[root]])

        def next_slot(x):
            m = mm[x]
            return sigma[m] if m >= 0 else sigma[x]

        chosen = []
        for x in eslots:
            if ds.find(index[vertex[next_slot(x)]]) == root_comp:
                chosen.append(x)
        if len(chosen) != 1:
            raise ValueError("breakable edge is not unique")
        b = chosen[0]
        tail = b if b in full_tails else mm[b]
        if tail not in full_tails:
            raise ValueError("breakable edge is not oriented")
        round_cuts.append((f, tail, mm[tail]))
    return round_cuts


def round_open_slots(sigma: dict, mate: dict, root: int, outer: int):
    """Round-based opening: ``(tree_mate, tails, cuts)`` like
    :func:`open_slots`."""
    vertex = slot_vertices(sigma)
    full_tails = round_orientation_tails(sigma, mate, outer)
    mm = dict(mate)
    cuts = []
    while True:
        round_cuts = breakable_round(sigma, mm, vertex, root, outer,
                                     full_tails)
        if not round_cuts:
            break
        for f, t, h in round_cuts:
            mm[t] = -1
            mm[h] = -1
            cuts.append((f, t, h))
    tails = {t for t in full_tails if mm[t] >= 0}
    return mm, tails, cuts


def dual_distances(p: PlaneMap) -> dict:
    """Dual distance of every face (keyed by its minimum half-edge)."""
    return slot_dual_distances(*slot_system(p.m.sigma, p.m.alpha), p.outer)


def breakable_edges(p: PlaneMap) -> frozenset:
    """One breakable edge (as an edge id) per face at dual distance 1."""
    sigma, mate = slot_system(p.m.sigma, p.m.alpha)
    tails = round_orientation_tails(sigma, mate, p.outer)
    cuts = breakable_round(sigma, dict(mate), slot_vertices(sigma),
                           p.m.root, p.outer, tails)
    return frozenset(min(t, h) for _, t, h in cuts)


def loop_map():
    return RootedMap((1, 0), (1, 0), 0)


def in_buds(t: NearEulerianTree) -> frozenset:
    """The ingoing buds: bud slots that are not outgoing."""
    return frozenset(i for i, j in enumerate(t.mate)
                     if j == -1 and i not in t.out_buds)


class TestNearEulerianTree:
    def test_single_out_in_pair(self):
        t = NearEulerianTree((1, 0), (-1, -1), frozenset({0}), frozenset())
        assert t.external_weight == 1
        assert in_buds(t) == frozenset({1})

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            NearEulerianTree((1, 0), (-1, -1), frozenset({0, 1}), frozenset())

    def test_rejects_orientation_away_from_root(self):
        # oriented edge plus balancing buds: tail must be at the child
        # (slot 1); rooting at the other endpoint must be rejected
        NearEulerianTree((2, 3, 0, 1), (1, 0, -1, -1),
                         frozenset({2}), frozenset({1}))
        with pytest.raises(ValueError):
            NearEulerianTree((2, 3, 0, 1), (1, 0, -1, -1),
                             frozenset({3}), frozenset({0}))

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            NearEulerianTree((1, 0), (1, 0), frozenset(), frozenset())

    @pytest.mark.parametrize("sigma,mate,out_buds,tails", [
        ((1, 0), (-1, -1), {0}, {9}),
        ((1, 0), (-1, -1), {0}, {2}),
        ((0, 1), (1, 0), set(), {-1}),
        ((0, 1), (1, 0), set(), {-2}),
    ])
    def test_rejects_tails_outside_the_slots(self, sigma, mate, out_buds,
                                             tails):
        with pytest.raises(ValueError, match="tails must be tree half-edges"):
            NearEulerianTree(sigma, mate, frozenset(out_buds),
                             frozenset(tails))

    def test_one_pass_validator_agrees_with_the_oracle(self):
        """Every tree with at most 8 slots under every single mutation:
        two sigma entries swapped, one bud's direction flipped, one slot's
        tail toggled, or the root moved.  The validator accepts exactly
        when the dict/union-find oracle does, with the same message."""
        checked = Counter()
        for t in gen_near_eulerian_trees(8):
            for args in tree_mutations(t):
                try:
                    oracle_validate_tree(*args)
                    expected = None
                except ValueError as exc:
                    expected = str(exc)
                try:
                    NearEulerianTree(*args)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, args
                checked[expected] += 1
        # every check of the validator is reached
        assert set(checked) == {
            None, "slot pairing does not form a tree",
            "tails must be tree half-edges", "edge oriented both ways",
            "oriented edge points away from the root",
            "near-Eulerian balance fails at a vertex"}


def tree_mutations(t):
    """The tree's own fields, then each single mutation of them."""
    s = len(t.sigma)
    yield t.sigma, t.mate, t.out_buds, t.tails, t.root
    for i, j in itertools.combinations(range(s), 2):
        sigma = list(t.sigma)
        sigma[i], sigma[j] = sigma[j], sigma[i]
        yield tuple(sigma), t.mate, t.out_buds, t.tails, t.root
    for b in range(s):
        if t.mate[b] == -1:
            yield t.sigma, t.mate, t.out_buds ^ {b}, t.tails, t.root
    for x in range(s):
        yield t.sigma, t.mate, t.out_buds, t.tails ^ {x}, t.root
    for r in range(s):
        if r != t.root:
            yield t.sigma, t.mate, t.out_buds, t.tails, r


class TestPlaneMap:
    def test_outer_must_be_a_face(self):
        PlaneMap(loop_map(), 0)
        PlaneMap(loop_map(), 1)
        with pytest.raises(ValueError):
            PlaneMap(loop_map(), 2)

    def test_rejects_positive_genus(self):
        torus = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        with pytest.raises(ValueError):
            PlaneMap(torus, 0)


class TestMatching:
    def test_adjacent_pair(self):
        assert match_buds([(0, True), (1, False)]) == [(0, 1)]

    def test_nested(self):
        pairs = set(match_buds([(0, True), (1, True), (2, False), (3, False)]))
        assert pairs == {(1, 2), (0, 3)}

    def test_cyclic_wrap(self):
        assert match_buds([(0, False), (1, True)]) == [(1, 0)]

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            match_buds([(0, True), (1, True)])


class TestDualDistance:
    def nested_loops(self):
        # two nested loops at one vertex
        return PlaneMap(RootedMap((1, 2, 3, 0), (3, 2, 1, 0), 0), 0)

    def test_nested_loops(self):
        dist = dual_distances(self.nested_loops())
        assert sorted(dist.values()) == [0, 1, 2]

    def test_single_loop_inner_face_at_one(self):
        dist = dual_distances(PlaneMap(loop_map(), 0))
        assert sorted(dist.values()) == [0, 1]

    def test_tree_has_empty_orientation(self):
        path = PlaneMap(RootedMap((0, 2, 1, 3), (1, 0, 3, 2), 0), 0)
        assert dual_distance_orientation(path) == frozenset()
        assert breakable_edges(path) == frozenset()

    def test_single_loop_is_breakable_and_oriented(self):
        p = PlaneMap(loop_map(), 0)
        tails = dual_distance_orientation(p)
        assert len(tails) == 1
        assert breakable_edges(p) == frozenset({0})

    def test_two_disjoint_loops_both_breakable(self):
        # two loops side by side at one vertex: two distance-1 faces
        p = PlaneMap(RootedMap((1, 2, 3, 0), (1, 0, 3, 2), 0), 0)
        assert dual_distances(p)[p.outer] == 0
        assert len(breakable_edges(p)) == 2

    def test_orientation_is_balanced_everywhere(self):
        for p in gen_plane_maps(4):
            tails = dual_distance_orientation(p)
            flow = Counter()
            for cyc in p.m.vertices():
                v = min(cyc)
                for h in cyc:
                    if h in tails:
                        flow[v] += 1
                    elif p.m.alpha[h] in tails:
                        flow[v] -= 1
            assert not any(flow.values())


def brute_near_eulerian_trees(max_slots):
    """Oracle: every bud direction x edge orientation on every shape,
    kept when ``NearEulerianTree`` accepts it."""
    for shape in _tree_shapes(max_slots):
        buds = []
        edges = []

        def scan(vertex, path):
            for i, item in enumerate(vertex):
                if item == "bud":
                    buds.append(path + (i,))
                else:
                    edges.append(path + (i,))
                    scan(item, path + (i,))

        scan(shape, ())
        for bud_dirs in itertools.product((0, 1), repeat=len(buds)):
            for edge_dirs in itertools.product((0, 1), repeat=len(edges)):
                t = _brute_build(shape, dict(zip(buds, bud_dirs)),
                                 dict(zip(edges, edge_dirs)))
                if t is not None:
                    yield t


def _brute_build(shape, bud_dirs, edge_dirs):
    sigma = []
    mate = []
    out_buds = set()
    tails = set()

    def alloc():
        sigma.append(None)
        mate.append(-2)
        return len(sigma) - 1

    def place(vertex, path, parent_slot):
        own = [] if parent_slot is None else [parent_slot]
        for i, item in enumerate(vertex):
            s = alloc()
            own.append(s)
            if item == "bud":
                mate[s] = -1
                if bud_dirs[path + (i,)]:
                    out_buds.add(s)
            else:
                child = alloc()
                mate[s] = child
                mate[child] = s
                if edge_dirs[path + (i,)]:
                    tails.add(child)  # tail at the child: toward the root
                place(item, path + (i,), child)
        for k, s in enumerate(own):
            sigma[s] = own[(k + 1) % len(own)]

    place(shape, (), None)
    try:
        return NearEulerianTree(tuple(sigma), tuple(mate),
                                frozenset(out_buds), frozenset(tails), 0)
    except ValueError:
        return None


class TestGenerator:
    @pytest.mark.parametrize("slots", range(1, 9))
    def test_stream_equals_brute_force(self, slots):
        fast = list(gen_near_eulerian_trees(slots))
        assert fast == list(brute_near_eulerian_trees(slots))

    def test_counts_match_planar_census(self):
        """Trees with at most 2e slots are the plane maps with at most e
        edges: one per rooted planar map and marked face."""
        census = planar_census(5)
        expected = [3, 21, 156, 1290, 11496]
        for e in range(1, 6):
            maps = sum(f * c for (v, f), c in census.items()
                       if 1 <= v + f - 2 <= e)
            assert maps == expected[e - 1]
            assert sum(1 for _ in gen_near_eulerian_trees(2 * e)) == maps
            assert sum(1 for _ in gen_near_eulerian_trees(2 * e + 1)) == maps


# [DERIVED] counts established by two independent exhaustive generators:
# near-Eulerian trees by total rotation items, and plane maps (rooted
# planar maps with a marked face) by edge count.
LEVEL_COUNTS = {1: 3, 2: 18, 3: 135, 4: 1134, 5: 10206}


class TestRoundTrips:
    def test_counts_agree(self, trees10, plane_maps5):
        """Trees by slot pairs, brute-force plane maps by edges, and the
        census sum over q + r - 2 = e of r P_{q,r} that ``verify
        gamma-roundtrip`` counts the plane maps with."""
        by_slots = Counter(len(t.sigma) // 2 for t in trees10)
        by_edges = Counter(len(p.m.edges()) for p in plane_maps5)
        by_census = Counter()
        for (q, r), c in planar_census(5).items():
            if q + r > 2:
                by_census[q + r - 2] += r * c
        assert by_slots == by_edges == by_census == Counter(LEVEL_COUNTS)

    def test_gamma_then_delta_is_identity(self, trees10):
        for t in trees10:
            t2 = revalidated(opening_delta(revalidated(closure_gamma(t))))
            assert (t2.sigma, t2.mate, t2.out_buds, t2.tails, t2.root) == (
                t.sigma, t.mate, t.out_buds, t.tails, t.root)

    def test_delta_then_gamma_is_identity(self, plane_maps5):
        for p in plane_maps5:
            p2 = revalidated(closure_gamma(revalidated(opening_delta(p))))
            assert p2.m == p.m and p2.outer == p.outer

    def test_gamma_is_injective(self, trees10):
        images = {(closure_gamma(t).m, closure_gamma(t).outer)
                  for t in trees10}
        assert len(images) == len(trees10)

    def test_induced_orientation_is_dual_distance(self, trees10):
        """The oriented edges of a near-Eulerian tree, plus its closure
        edges taken out-to-in, recover the dual-distance orientation of
        the closure."""
        for t in trees10:
            p = closure_gamma(t)
            assert dual_distance_orientation(p) == t.tails | t.out_buds

    def test_weight_counts_faces(self, trees10):
        """w buds closed means w inner faces: the closure of a weight-w
        tree has w+1 faces."""
        for t in trees10:
            p = closure_gamma(t)
            assert len(p.m.faces()) == t.external_weight + 1


class TestCanonicalKey:
    def test_key_ignores_relabelling(self):
        """Every closure image to 4 edges, its half-edges renamed by a
        seeded random permutation, keeps its key."""
        rng = random.Random(16)
        for t in gen_near_eulerian_trees(8):
            p = closure_gamma(t)
            perm = list(range(p.m.half_edge_count))
            rng.shuffle(perm)
            outer_face = p.m.faces()[p.m.face_index()[p.outer]]
            q = PlaneMap(relabelled(p.m, perm),
                         min(perm[x] for x in outer_face))
            assert q.canonical_key() == p.canonical_key()

    def test_closure_images_are_the_plane_maps(self):
        """The 1,290 closure images to 4 edges have 1,290 distinct keys,
        those of the brute-force plane maps; only 188 of the images are
        in first-visit form, so raw tuples would not compare."""
        images = [closure_gamma(t) for t in gen_near_eulerian_trees(8)]
        keys = {p.canonical_key() for p in images}
        assert len(images) == len(keys) == 1290
        assert keys == {p.canonical_key() for p in gen_plane_maps(4)}
        first_visit = [p for p in images if maps_core.canonical_relabelling(
            p.m) == tuple(range(p.m.half_edge_count))]
        assert len(first_visit) == 188


def _open_both(sigma, mate, root, outer, faces, face_of):
    """Open with the ring pass, given the face orbits and the face index
    of every slot, and with the round oracle on the slot dicts; every
    output must agree, the cuts as a multiset."""
    layers = dual_layers(faces, face_of, mate, outer)
    mm, tails, cuts = open_slots(sigma, mate, faces, face_of, root, layers)
    sigma, mate = slot_system(sigma, mate)
    omm, otails, ocuts = round_open_slots(sigma, mate, root, outer)
    mm = dict(enumerate(mm))
    assert mm == omm and tails == otails
    assert Counter(cuts) == Counter(ocuts)
    dist, parent, full_tails = layers
    assert {min(f): d for f, d in zip(faces, dist)} == \
        slot_dual_distances(sigma, mate, outer)
    assert all(x in faces[face_of[x]] for x in mate)
    # every face but the outer one is reached along a parent edge from a
    # face one nearer
    for f, (d, x) in enumerate(zip(dist, parent)):
        assert (x < 0) == (d == 0)
        assert d == 0 or (face_of[x] == f
                          and dist[face_of[mate[x]]] == d - 1)
    assert full_tails == round_orientation_tails(sigma, mate, outer)


class TestAgainstOracles:
    def test_opening_of_every_plane_map(self, plane_maps5):
        for p in plane_maps5:
            m = p.m
            assert m.faces() == walk_slot_faces(
                *slot_system(m.sigma, m.alpha))
            assert slot_faces(m.sigma, m.alpha) == (tuple(m.faces()),
                                                    m.face_index())
            _open_both(m.sigma, m.alpha, m.root, p.outer, m.faces(),
                       m.face_index())

    def test_opening_of_every_closed_tree(self, trees10):
        for t in trees10:
            p = closure_gamma(t)
            m = p.m
            _open_both(m.sigma, m.alpha, m.root, p.outer, m.faces(),
                       m.face_index())

    def test_random_trees_beyond_exhaustive_reach(self):
        """Seeded random near-Eulerian trees with 14 to 30 slots: closure
        then opening is the identity, and the ring pass agrees with the
        round oracle on the closed map."""
        rng = random.Random(20)
        weights = Counter()
        for slots in range(14, 31, 2):
            for _ in range(20):
                t = random_near_eulerian_tree(rng, slots)
                p = revalidated(closure_gamma(t))
                assert revalidated(opening_delta(p)) == t
                m = p.m
                _open_both(m.sigma, m.alpha, m.root, p.outer, m.faces(),
                           m.face_index())
                weights[t.external_weight] += 1
        # the draws reach deep faces, not only trees without buds
        assert max(weights) >= 8 and weights[0] < sum(weights.values()) // 4

    def test_closure_of_every_tree(self, trees10):
        for t in trees10:
            out = set(t.out_buds)
            full, pairs, outer = close_slots(t.sigma, t.mate, out, t.root)
            ofull, opairs, oouter = scan_close_slots(
                *slot_system(t.sigma, t.mate), out, t.root)
            assert dict(enumerate(full)) == ofull and outer == oouter
            assert sorted(pairs) == sorted(opairs)

    def test_each_arch_bounds_the_face_through_its_in_slot(self, trees10):
        """The opening cuts, from every inner face of a closed tree, the
        closure arch whose ingoing slot lies on that face: the rule by
        which ``bijections.psi_fiber`` reads off each arch's face."""
        for t in trees10:
            full, pairs, outer = close_slots(t.sigma, t.mate,
                                             set(t.out_buds), t.root)
            faces, face_of = slot_faces(t.sigma, full)
            rep = {x: f[0] for f in faces for x in f}
            _, _, cuts = open_slots(t.sigma, full, faces, face_of, t.root,
                                    dual_layers(faces, face_of, full, outer))
            assert Counter(cuts) == Counter(
                (rep[i], o, i) for o, i in pairs)

    def test_arches_of_every_bud_word(self):
        """Every cyclic word of at most 12 buds: the same pairs and the same
        outermost arches as the list scan, or the same error."""
        for length in range(13):
            for word in itertools.product((False, True), repeat=length):
                buds = list(enumerate(word))
                if 2 * sum(word) != length:
                    with pytest.raises(ValueError):
                        match_buds(buds)
                    with pytest.raises(ValueError):
                        _arches(buds)
                    continue
                oracle = match_buds(buds)
                pairs, outermost = _arches(buds)
                assert sorted(pairs) == sorted(oracle)
                assert sorted(outermost) == \
                    sorted(outermost_arches(buds, oracle))


class TestFaceTraces:
    @pytest.fixture
    def traces(self, monkeypatch):
        """Count face traces: each ``slot_faces`` and each ``slot_face``
        call."""
        count = [0]
        real_faces = planar_closure.slot_faces
        real_face = planar_closure.slot_face

        def faces(sigma, mate):
            count[0] += 1
            return real_faces(sigma, mate)

        def face(sigma, mate, start):
            count[0] += 1
            return real_face(sigma, mate, start)

        monkeypatch.setattr(planar_closure, "slot_faces", faces)
        monkeypatch.setattr(planar_closure, "slot_face", face)
        return count

    def test_no_trace_per_opening_at_most_two_per_closure(self, traces,
                                                          monkeypatch):
        """A closure traces at most two faces.  An opening traces none;
        per ring k it walks the outer region once, and once more the face
        at distance k on the root's chain while the root vertex is not on
        the outer region (its nearest face is at distance k or more)."""
        walks = [0]
        real_walk = planar_closure.face_walk

        def walk(sigma, mate, start):
            walks[0] += 1
            return real_walk(sigma, mate, start)

        monkeypatch.setattr(planar_closure, "face_walk", walk)
        chained = 0
        for t in gen_near_eulerian_trees(8):
            traces[0] = 0
            p = closure_gamma(t)
            assert traces[0] <= 2
            traces[0] = walks[0] = 0
            assert opening_delta(p) == t
            assert traces[0] == 0
            opening_walks = walks[0]
            dist = dual_distances(p)
            rings = max(dist.values())
            rep = {x: min(f) for f in p.m.faces() for x in f}
            near = min(dist[rep[x]] for x in p.m.vertices()[
                p.m.vertex_index()[p.m.root]])
            assert opening_walks <= rings + min(near, rings)
            chained += near > 0
        assert chained > 0

    def test_opening_reads_the_orbits_the_plane_map_keeps(self, monkeypatch):
        """``opening_delta`` of a validated plane map calls no
        ``slot_faces`` and traces no orbit: it reads the faces and the
        face index that ``p.m`` keeps.  The generated
        maps keep the orbits that ``gen_plane_maps`` traced; the closures,
        built unchecked, keep those of their validation."""
        maps = list(gen_plane_maps(4))
        closed = [closure_gamma(t) for t in gen_near_eulerian_trees(8)]
        for p in closed:
            p.validate()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(planar_closure, "slot_faces",
                            counted("slot_faces", slot_faces))
        monkeypatch.setattr(maps_core, "_orbits",
                            counted("_orbits", maps_core._orbits))
        for p in maps + closed:
            opening_delta(p)
        assert calls == Counter()

    def test_validation_counts_the_vertices_in_place(self, monkeypatch,
                                                     one_worker):
        """``PlaneMap.validate`` traces the faces and counts the vertices
        without tracing them, so ``gamma-roundtrip`` at bound 4 traces one
        orbit per tree, the faces of its closure (1,290 trees; tracing the
        vertices too took 2,580).  The calls are counted in this process,
        so the check runs here alone."""
        real = maps_core._orbits
        calls = [0]

        def counting(perm):
            calls[0] += 1
            return real(perm)
        monkeypatch.setattr(maps_core, "_orbits", counting)
        verdict = CHECKS["gamma-roundtrip"].run(4, planar_census)
        assert verdict == (None, 1290, 4)
        assert calls[0] == 1290
