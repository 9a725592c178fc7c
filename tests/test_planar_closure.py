import itertools
from collections import Counter

import pytest

from unimaps.enumeration import planar_census
from unimaps.maps_core import RootedMap, trace_faces
from unimaps.planar_closure import (
    NearEulerianTree,
    PlaneMap,
    _tree_shapes,
    breakable_edges,
    closure_gamma,
    dual_distance_orientation,
    dual_distances,
    gen_near_eulerian_trees,
    gen_plane_maps,
    match_buds,
    opening_delta,
    orientation_tails,
)


def loop_map():
    return RootedMap((1, 0), (1, 0), 0)


class TestNearEulerianTree:
    def test_single_out_in_pair(self):
        t = NearEulerianTree((1, 0), (-1, -1), frozenset({0}), frozenset())
        assert t.external_weight == 1
        assert t.in_buds == frozenset({1})

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


@pytest.fixture(scope="module")
def nets():
    return list(gen_near_eulerian_trees(10))


@pytest.fixture(scope="module")
def maps():
    return list(gen_plane_maps(5))


class TestRoundTrips:
    def test_counts_agree(self, nets, maps):
        by_slots = Counter(len(t.sigma) // 2 for t in nets)
        by_edges = Counter(len(p.m.edges()) for p in maps)
        assert by_slots == by_edges == Counter(LEVEL_COUNTS)

    def test_gamma_then_delta_is_identity(self, nets):
        for t in nets:
            t2 = opening_delta(closure_gamma(t))
            assert (t2.sigma, t2.mate, t2.out_buds, t2.tails, t2.root) == (
                t.sigma, t.mate, t.out_buds, t.tails, t.root)

    def test_delta_then_gamma_is_identity(self, maps):
        for p in maps:
            p2 = closure_gamma(opening_delta(p))
            assert p2.m == p.m and p2.outer == p.outer

    def test_gamma_is_injective(self, nets):
        images = {(closure_gamma(t).m, closure_gamma(t).outer) for t in nets}
        assert len(images) == len(nets)

    def test_induced_orientation_is_dual_distance(self, nets):
        """The oriented edges of a near-Eulerian tree, plus its closure
        edges taken out-to-in, recover the dual-distance orientation of
        the closure."""
        for t in nets:
            p = closure_gamma(t)
            assert dual_distance_orientation(p) == t.tails | t.out_buds

    def test_weight_counts_faces(self, nets):
        """w buds closed means w inner faces: the closure of a weight-w
        tree has w+1 faces."""
        for t in nets:
            p = closure_gamma(t)
            assert len(trace_faces(p.m)) == t.external_weight + 1
