import itertools
from collections import Counter
from math import comb, factorial
from operator import eq

import pytest
from labelled_oracle import gen_tree_rooted_maps, spanning_edge_subsets
from map_oracle import relabelled
from revalidate import revalidated
from transfer_oracle import (
    bipartite_profile_by_gluings,
    factorization_profile,
    labelled_vertex_profile,
)

from unimaps import enumeration
from unimaps.enumeration import (
    _matchings,
    _shape,
    _standard,
    gen_colored_unicellular,
    gen_rooted_orientable_maps,
    gen_unicellular,
    planar_census,
    spanning_tree_count,
    surjection_count,
    vertex_profile,
)
from unimaps.formulas import hz_recurrence_check, ledoux_check
from unimaps.maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    PolygonGluing,
    RootedMap,
    canonical_relabelling,
    euler_data,
    glue_polygon,
    glue_sides,
)
from unimaps.series import check_qfd


def dfact(k):
    r = 1
    while k > 1:
        r *= k
        k -= 2
    return r


class TestGenUnicellular:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts(self, n):
        assert sum(1 for _ in gen_unicellular(n)) == 2 ** n * dfact(2 * n - 1)
        assert sum(1 for _ in gen_unicellular(n, True)) == dfact(2 * n - 1)

    def test_no_duplicates(self):
        seen = set(gen_unicellular(3))
        assert len(seen) == 8 * 15

    @pytest.mark.parametrize("orientable_only", [True, False])
    def test_stream_equals_validated_gluings(self, orientable_only):
        twist_choices = (False,) if orientable_only else (False, True)
        for n in range(1, 5):
            expected = [PolygonGluing(n, tuple(pairs), twists)
                        for pairs in _matchings(list(range(2 * n)))
                        for twists in itertools.product(twist_choices,
                                                        repeat=n)]
            fast = list(map(revalidated, gen_unicellular(n, orientable_only)))
            assert fast == expected
            assert [g.twists for g in fast] == [g.twists for g in expected]

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            next(gen_unicellular(0))


def filtered_colored_maps(n, orientable_only):
    """Oracle: every coloring in ``itertools.product`` order, kept when it
    uses every color."""
    for g in gen_unicellular(n, orientable_only):
        v = len(glue_polygon(g))
        for q in range(1, v + 1):
            for colors in itertools.product(range(1, q + 1), repeat=v):
                if set(colors) == set(range(1, q + 1)):
                    yield ColoredUnicellularMap(g, colors, q)


class TestColoredStream:
    @pytest.mark.parametrize("orientable_only", [True, False])
    def test_equals_filter(self, orientable_only):
        for n in range(1, 4):
            fast = list(map(revalidated,
                            gen_colored_unicellular(n, orientable_only)))
            assert fast == list(filtered_colored_maps(n, orientable_only))
            assert all(u.vertex_classes == glue_polygon(u.gluing)
                       for u in fast)


class TestVertexProfile:
    def test_orientable_tables(self):
        # [DERIVED] one-face map counts on orientable surfaces by vertices
        assert sorted(vertex_profile(1, True).items()) == [((1, 2), 1)]
        assert sorted(vertex_profile(2, True).items()) == [
            ((1, 2), 1), ((2, 1), 1), ((2, 3), 2)]

    def test_orientable_n3(self):
        t = vertex_profile(3, True)
        assert sorted(t.items()) == [((1, 2), 1), ((2, 1), 1), ((2, 3), 2),
                             ((3, 2), 10), ((3, 4), 5)]
        assert t[(3, 1)] == 0 and t[(3, 3)] == 0

    def test_general_tables(self):
        # [DERIVED] one-face maps on all surfaces by vertices
        assert sorted(vertex_profile(1).items()) == [((1, 1), 1), ((1, 2), 1)]
        assert sorted(vertex_profile(2).items()) == [
            ((1, 1), 1), ((1, 2), 1), ((2, 1), 5), ((2, 2), 5), ((2, 3), 2)]

    def test_totals_match_stream(self):
        assert vertex_profile(3).total() == 2 + 4 * 3 + 8 * 15
        assert vertex_profile(4, True).total() == 1 + 3 + 15 + 105


def edge_rows(table, k):
    """The rows of ``table`` with ``k`` edges."""
    return {key: c for key, c in table.items() if key[0] == k}


# the transfer's modes: orientable, all surfaces, bipartite (orientable)
MODES = [(True, False), (False, False), (True, True)]
IDS = ["True", "False", "bipartite"]


class TestCanonicalForm:
    """States that differ only in the order of their open sides, or in the
    ends of one side, get one key; the path is read from label 0.

    The key is the shape of a state: the length of its path of open sides
    from label 0 to the current label, and the lengths of its cycles.
    Every state the transfer reaches is such a path and such cycles, and
    the standard sides of a shape have that shape."""

    @pytest.mark.parametrize("orientable_only", [True, False])
    def test_order_of_open_sides(self, monkeypatch, orientable_only):
        sides = [(0, 3), (3, 2), (1, 4), (2, 2)]
        shape = _shape(sides)
        for perm in itertools.permutations(sides):
            assert _shape(list(perm)) == shape
        # and so for every glued state the transfer keys on this surface
        for state in set(self.reached_states(monkeypatch, 6,
                                             orientable_only)):
            for _, sides in self.glued_states(state, orientable_only, False):
                shape = _shape(sides)
                assert _shape(sides[::-1]) == shape
                assert _shape(sides[1:] + sides[:1]) == shape

    def test_ends_of_a_side_on_all_surfaces(self):
        sides = [(0, 3), (3, 2), (1, 4), (2, 2)]
        shape = _shape(sides)
        for flips in itertools.product((False, True), repeat=len(sides)):
            flipped = [(b, a) if f else (a, b)
                       for (a, b), f in zip(sides, flips)]
            for perm in itertools.permutations(flipped):
                assert _shape(list(perm)) == shape

    def test_exact_shapes(self):
        assert _shape([]) == (0, ())
        # no side at label 0: the path is empty, whatever else is open
        assert _shape([(2, 1)]) == (0, (1,))
        assert _shape([(0, 3), (3, 2)]) == (2, ())
        assert _shape([(5, 6), (1, 2), (4, 4), (6, 5), (0, 1)]) == (2, (1, 2))

    @pytest.mark.parametrize("orientable_only", [True, False])
    def test_label_zero_stays_zero(self, monkeypatch, orientable_only):
        # gluing never renames corner 0, so the path of a glued state runs
        # from label 0 to the current label, and its length is the key's j
        for state in set(self.reached_states(monkeypatch, 8,
                                             orientable_only)):
            for cur, sides in self.glued_states(state, orientable_only,
                                                False):
                left, label, length = list(sides), 0, 0
                while label != cur:
                    side = next(side for side in left if label in side)
                    left.remove(side)
                    a, b = side
                    label, length = b if a == label else a, length + 1
                assert _shape(sides)[0] == length

    @staticmethod
    def shapes(max_sides):
        """Every shape with at most ``max_sides`` open sides."""
        def partitions(total, largest):
            if not total:
                yield ()
            for part in range(min(total, largest), 0, -1):
                for rest in partitions(total - part, part):
                    yield rest + (part,)

        for j in range(max_sides + 1):
            for total in range(max_sides - j + 1):
                for cycles in partitions(total, total):
                    yield j, cycles

    @pytest.mark.parametrize("orientable_only", [True, False])
    def test_every_key_is_its_own_key(self, monkeypatch, orientable_only):
        shapes = list(self.shapes(12))
        assert len(shapes) == len(set(shapes)) == 890
        for shape in shapes:
            sides = _standard(shape)
            assert len(set(sides)) == len(sides) == shape[0] + sum(shape[1])
            assert _shape(sides) == shape
        # the transfer on this surface keys on these shapes alone
        reached = set(self.reached_states(monkeypatch, 8, orientable_only))
        assert reached <= set(self.shapes(8))

    @staticmethod
    def reached_states(monkeypatch, n, orientable_only, bipartite=False):
        """Every state whose successors ``vertex_profile(n)`` computes."""
        states = []
        successors = enumeration._successors

        def record(state, *mode):
            states.append(state)
            return successors(state, *mode)

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_successors", record)
            vertex_profile(n, orientable_only, bipartite=bipartite)
        return states

    @staticmethod
    def glued_states(shape, orientable_only, bipartite):
        """The current label and open sides after the next side opens, or
        closes onto each standard side, glued by ``glue_sides`` alone."""
        sides = _standard(shape)
        j, fresh = shape[0], len(sides) + 1
        yield fresh, sides + [(j, fresh)]
        for i, (a, b) in enumerate(sides):
            # a bipartite closing that glues two parities dies
            if bipartite and (b - j) % 2:
                continue
            for twisted in (False,) if orientable_only else (False, True):
                ds = DisjointSets(fresh + 1)
                glue_sides(ds, a, b, j, fresh, twisted)
                yield ds.find(fresh), [(ds.find(x), ds.find(y))
                                       for x, y in sides[:i] + sides[i + 1:]]

    @pytest.mark.parametrize("orientable_only,bipartite", MODES, ids=IDS)
    def test_states_are_a_path_and_cycles(self, monkeypatch,
                                          orientable_only, bipartite):
        shapes = self.reached_states(monkeypatch, 10, orientable_only,
                                     bipartite)
        seen = [glued for shape in shapes
                for glued in self.glued_states(shape, orientable_only,
                                               bipartite)]
        # some hold cycles: open sides with the path empty
        assert any(sides for cur, sides in seen if cur == 0)
        for cur, sides in seen:
            # corner 0 and the current corner add an end each
            ends = Counter([0, cur])
            for side in sides:
                ends.update(side)
            assert set(ends.values()) == {2}
            if orientable_only:
                # one side leaves each label; from 0 they lead to cur
                after = dict(sides)
                assert len(after) == len(sides)
                label = 0
                while label != cur:
                    label = after.pop(label)
                # and the rest enter the labels they leave: one-way cycles
                assert sorted(after) == sorted(after.values())
            if bipartite:
                # every cycle is even
                while after:
                    label, length = next(iter(after)), 0
                    while label in after:
                        label, length = after.pop(label), length + 1
                    assert length % 2 == 0
        if bipartite:
            # so every standard side joins two labels of different parity,
            # each label's parity its value's
            for shape in shapes:
                assert all(m % 2 == 0 for m in shape[1])
                assert all((a + b) % 2 for a, b in _standard(shape))

    @pytest.mark.parametrize("orientable_only,bipartite", MODES, ids=IDS)
    def test_state_count(self, monkeypatch, orientable_only, bipartite):
        # one state per shape; a key that kept the states of one shape
        # apart would reach more, and so would one that kept a cycle's
        # phase in the bipartite mode
        counts = (25, 43, 70) if bipartite else (67, 139, 272)
        for n, count in zip((8, 10, 12), counts):
            states = self.reached_states(monkeypatch, n, orientable_only,
                                         bipartite)
            assert len(states) == count


def brute_vertex_profile(n, orientable_only):
    """Oracle: glue every (matching, twist mask) pair and count classes.

    The masks of a matching are walked depth first: ``walk`` glues pairs
    k .. n-1 untwisted, and before each pair j it hands a copy of the
    union-find, with pair j glued twisted, to its own walk from j + 1.
    Every complete gluing counts its own classes: the roots of its
    union-find, the corners that are their own parents."""
    nn = 2 * n
    corners = range(nn)

    def walk(ds, pairs, k):
        for j in range(k, n):
            a, b = pairs[j]
            if not orientable_only:
                twisted = DisjointSets(0)
                twisted.parent = ds.parent[:]
                glue_sides(twisted, a, (a + 1) % nn, b, (b + 1) % nn, True)
                walk(twisted, pairs, j + 1)
            glue_sides(ds, a, (a + 1) % nn, b, (b + 1) % nn, False)
        table[(n, sum(map(eq, ds.parent, corners)))] += 1

    table = Counter()
    for pairs in _matchings(list(range(nn))):
        walk(DisjointSets(nn), pairs, 0)
    return table


class TestTransferAgainstOracle:
    @pytest.mark.parametrize("n,orientable_only", [
        (n, o) for n in range(1, 7) for o in (True, False)] + [(7, True)])
    def test_equals_brute_force(self, n, orientable_only):
        """Brute force, computed once, against both transfers."""
        brute = brute_vertex_profile(n, orientable_only)
        assert labelled_vertex_profile(n, orientable_only) == brute
        assert edge_rows(vertex_profile(n, orientable_only), n) == brute

    @pytest.mark.parametrize("n,orientable_only", [(9, False), (10, True)])
    def test_equals_labelled_transfer(self, n, orientable_only):
        """Every row of the one-pass table against the labelled transfer,
        one size at a time."""
        labelled = Counter()
        for k in range(1, n + 1):
            labelled.update(labelled_vertex_profile(k, orientable_only))
        assert vertex_profile(n, orientable_only) == labelled

    @pytest.fixture(scope="class")
    def eps_eta(self):
        return vertex_profile(10, True), vertex_profile(10)

    def test_totals_beyond_brute_force(self, eps_eta):
        eps, eta = eps_eta
        for n in range(1, 11):
            assert sum(edge_rows(eps, n).values()) == dfact(2 * n - 1)
            assert sum(edge_rows(eta, n).values()) == \
                2 ** n * dfact(2 * n - 1)

    def test_recurrences_through_ten_edges(self, eps_eta):
        eps, eta = eps_eta
        for n in range(1, 11):
            for v in range(1, n + 2):
                fault = hz_recurrence_check(eps, n, v)
                assert fault is None, fault
                if n >= 2:
                    fault = ledoux_check(eta, n, v)
                    assert fault is None, fault
        fault, _ = check_qfd(eta, 10)
        assert fault is None, fault


class TestBipartiteProfile:
    """The transfer's bipartite mode against the two oracles of
    :mod:`transfer_oracle`: every orientable gluing, and the
    factorizations of a cycle."""

    @pytest.fixture(scope="class")
    def table(self):
        return vertex_profile(8, True, bipartite=True)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_gluings(self, table, n):
        assert edge_rows(table, n) == bipartite_profile_by_gluings(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_factorizations(self, table, n):
        assert edge_rows(table, n) == factorization_profile(n)

    def test_refuses_all_surfaces(self):
        with pytest.raises(ValueError):
            vertex_profile(4, bipartite=True)


class TestGenRootedOrientableMaps:
    @pytest.mark.parametrize("e,count", [(1, 2), (2, 10), (3, 74), (4, 706)])
    def test_counts(self, e, count):
        # [DERIVED] rooted maps on orientable surfaces, all genera; each
        # one, built unchecked, is valid
        assert sum(1 for _ in map(revalidated,
                                  gen_rooted_orientable_maps(e))) == count

    def test_outputs_are_canonical_and_distinct(self):
        maps = list(gen_rooted_orientable_maps(2))
        assert len(set(maps)) == len(maps)
        for m in maps:
            assert m == revalidated(relabelled(m, canonical_relabelling(m)))

    def test_one_face_maps_match_gluings(self):
        for n in (1, 2, 3):
            stream = Counter()
            for m in gen_rooted_orientable_maps(n):
                v, _, f, _ = euler_data(m)
                if f == 1:
                    stream[(n, v)] += 1
            assert stream == edge_rows(vertex_profile(n, True), n)


def brute_planar_census(max_edges):
    """Oracle: keep the genus-0 maps among all rooted orientable maps."""
    table = Counter()
    table[(1, 1)] = 1
    for e in range(1, max_edges + 1):
        for m in gen_rooted_orientable_maps(e):
            v, _, f, genus = euler_data(m)
            if genus == 0:
                table[(v, f)] += 1
    return table


def planar_maps_with_edges(e):
    return 2 * 3 ** e * factorial(2 * e) // (factorial(e) * factorial(e + 2))


class TestPlanarCensus:
    @pytest.mark.parametrize("max_edges", range(1, 7))
    def test_equals_brute_force(self, max_edges):
        assert planar_census(max_edges) == brute_planar_census(max_edges)

    def test_totals_through_fourteen_edges(self):
        t = planar_census(14)
        for e in range(1, 15):
            tot = sum(v for (q, r), v in t.items() if q + r - 2 == e)
            assert tot == planar_maps_with_edges(e)

    def test_small_values(self):
        t = planar_census(3)
        # [DERIVED] rooted planar maps counted by (vertices, faces)
        assert t[(1, 1)] == 1
        assert t[(1, 2)] == 1 and t[(2, 1)] == 1
        assert t[(3, 1)] == 2 and t[(1, 3)] == 2
        assert t[(2, 2)] == 5
        assert t[(2, 3)] == 22 and t[(3, 2)] == 22

    def test_symmetry_and_totals(self):
        t = planar_census(4)
        for (q, r), v in t.items():
            assert t[(r, q)] == v
        for e in range(1, 5):
            tot = sum(v for (q, r), v in t.items() if q + r - 2 == e)
            assert tot == planar_maps_with_edges(e)


@pytest.fixture(scope="module")
def rooted_maps():
    """Every rooted orientable map with 1..5 edges, by edge count, shared
    by the tests of the spanning-tree count with the orbits each map
    caches."""
    return {e: tuple(gen_rooted_orientable_maps(e)) for e in range(1, 6)}


class TestTreeRootedMaps:
    def test_spanning_trees_of_theta_graph(self):
        # two vertices, three parallel edges: 3 spanning trees
        m = RootedMap((2, 3, 4, 5, 0, 1), (1, 0, 3, 2, 5, 4), 0)
        assert euler_data(m)[0] == 2
        assert len(spanning_edge_subsets(m)) == 3
        assert spanning_tree_count(m) == 3

    @pytest.mark.parametrize("sigma,alpha,trees", [
        # one vertex with two loops: the empty tree alone
        ((1, 2, 3, 0), (1, 0, 3, 2), 1),
        # a bouquet of four parallel edges between two vertices
        ((2, 3, 4, 5, 6, 7, 0, 1), (1, 0, 3, 2, 5, 4, 7, 6), 4),
        # a triangle with one edge doubled and a loop at its third vertex
        ((2, 3, 7, 4, 1, 6, 8, 0, 9, 5), (1, 0, 3, 2, 5, 4, 7, 6, 9, 8), 5),
    ])
    def test_count_of_small_graphs(self, sigma, alpha, trees):
        m = RootedMap(sigma, alpha, 0)
        assert spanning_tree_count(m) == len(spanning_edge_subsets(m)) \
            == trees

    @pytest.mark.parametrize("e", range(1, 6))
    def test_count_equals_listing(self, rooted_maps, e):
        """The matrix-tree count agrees with the listing on every rooted
        map with ``e`` edges."""
        for m in rooted_maps[e]:
            assert spanning_tree_count(m) == len(spanning_edge_subsets(m))

    @pytest.mark.parametrize("n,total", [
        (1, 2), (2, 10), (3, 70), (4, 588), (5, 5544)])
    def test_planar_maps_have_mullin_trees(self, rooted_maps, n, total):
        """Summed over the rooted planar maps with ``n`` edges, the
        spanning trees number C_n C_(n+1) (Mullin, "On the enumeration of
        tree-rooted maps", 1967)."""
        assert comb(2 * n, n) * comb(2 * n + 2, n + 1) \
            // ((n + 1) * (n + 2)) == total
        assert sum(spanning_tree_count(m) for m in rooted_maps[n]
                   if len(m.vertices()) + len(m.faces()) == n + 2) == total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_totals_by_vertex_count(self, n):
        for q in range(1, n + 2):
            got = sum(1 for _ in gen_tree_rooted_maps(n, q))
            assert got == 2 ** (q - 1) * comb(n, q - 1) * dfact(2 * n - 1)

    def test_labels_are_bijective(self):
        for m, labels, tree in gen_tree_rooted_maps(2, 2):
            assert sorted(labels.values()) == [1, 2]
            assert len(tree) == 1


class TestSurjections:
    def test_values(self):
        assert surjection_count(0, 0) == 1
        assert surjection_count(3, 1) == 1
        assert surjection_count(4, 2) == 14
        assert surjection_count(3, 4) == 0

    def test_stirling_relation(self):
        # sum over q of C(x, q) * surj(v, q) interpolates x^v
        for v in range(5):
            for x in range(6):
                total = sum(comb(x, q) * surjection_count(v, q)
                            for q in range(v + 1))
                assert total == x ** v
