import itertools
from math import comb, factorial

import pytest

from unimaps.enumeration import (
    CountTable,
    _matchings,
    gen_colored_unicellular,
    gen_rooted_orientable_maps,
    gen_tree_rooted_maps,
    gen_unicellular,
    planar_census,
    spanning_edge_subsets,
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
            fast = list(gen_unicellular(n, orientable_only))
            assert fast == expected
            assert [g.twists for g in fast] == [g.twists for g in expected]

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            next(gen_unicellular(0))
        g = next(gen_unicellular(2))
        with pytest.raises(ValueError):
            g._retwisted((True,))


def filtered_colored_maps(n, orientable_only):
    """Oracle: every coloring in ``itertools.product`` order, kept when it
    uses every color."""
    for g in gen_unicellular(n, orientable_only):
        v = glue_polygon(g).vertex_count
        for q in range(1, v + 1):
            for colors in itertools.product(range(1, q + 1), repeat=v):
                if set(colors) == set(range(1, q + 1)):
                    yield ColoredUnicellularMap(g, colors, q)


class TestColoredStream:
    @pytest.mark.parametrize("orientable_only", [True, False])
    def test_equals_filter(self, orientable_only):
        for n in range(1, 4):
            fast = list(gen_colored_unicellular(n, orientable_only))
            assert fast == list(filtered_colored_maps(n, orientable_only))
            assert all(u.skeleton == glue_polygon(u.gluing) for u in fast)


class TestVertexProfile:
    def test_orientable_tables(self):
        # [DERIVED] one-face map counts on orientable surfaces by vertices
        assert vertex_profile(1, True).items() == [((1, 2), 1)]
        assert vertex_profile(2, True).items() == [((2, 1), 1), ((2, 3), 2)]

    def test_orientable_n3(self):
        t = vertex_profile(3, True)
        assert t[(3, 2)] == 10
        assert t[(3, 4)] == 5
        assert t[(3, 1)] == 0 and t[(3, 3)] == 0
        assert t.total() == 15

    def test_general_tables(self):
        # [DERIVED] one-face maps on all surfaces by vertices
        assert vertex_profile(1).items() == [((1, 1), 1), ((1, 2), 1)]
        assert vertex_profile(2).items() == [
            ((2, 1), 5), ((2, 2), 5), ((2, 3), 2)]

    def test_totals_match_stream(self):
        assert vertex_profile(3).total() == 8 * 15
        assert vertex_profile(4, True).total() == 105


def brute_vertex_profile(n, orientable_only):
    """Oracle: glue every (matching, twist mask) pair and count classes."""
    nn = 2 * n
    table = CountTable()
    masks = (0,) if orientable_only else range(1 << n)
    for pairs in _matchings(list(range(nn))):
        for mask in masks:
            ds = DisjointSets(nn)
            for k, (a, b) in enumerate(pairs):
                glue_sides(ds, a, (a + 1) % nn, b, (b + 1) % nn,
                           mask >> k & 1)
            table.add((n, len({ds.find(c) for c in range(nn)})))
    return table


class TestTransferAgainstOracle:
    @pytest.mark.parametrize("n,orientable_only", [
        (n, o) for n in range(1, 7) for o in (True, False)] + [(7, True)])
    def test_equals_brute_force(self, n, orientable_only):
        assert vertex_profile(n, orientable_only).by_key == \
            brute_vertex_profile(n, orientable_only).by_key

    @pytest.fixture(scope="class")
    def eps_eta(self):
        eps, eta = CountTable(), CountTable()
        for n in range(1, 9):
            eps.merge(vertex_profile(n, True))
            eta.merge(vertex_profile(n))
        return eps, eta

    def test_totals_beyond_brute_force(self, eps_eta):
        eps, eta = eps_eta
        assert sum(c for (n, _), c in eps.items() if n == 8) == dfact(15)
        assert sum(c for (n, _), c in eta.items() if n == 8) == \
            2 ** 8 * dfact(15)

    def test_recurrences_through_eight_edges(self, eps_eta):
        eps, eta = eps_eta
        for n in range(1, 9):
            for v in range(1, n + 2):
                verdict = hz_recurrence_check(eps, n, v)
                assert verdict, verdict
                if n >= 2:
                    verdict = ledoux_check(eta, n, v)
                    assert verdict, verdict
        verdict = check_qfd(eta, 8)
        assert verdict, verdict.detail


class TestGenRootedOrientableMaps:
    @pytest.mark.parametrize("e,count", [(1, 2), (2, 10), (3, 74), (4, 706)])
    def test_counts(self, e, count):
        # [DERIVED] rooted maps on orientable surfaces, all genera
        assert sum(1 for _ in gen_rooted_orientable_maps(e)) == count

    def test_outputs_are_canonical_and_distinct(self):
        maps = list(gen_rooted_orientable_maps(2))
        assert len(set(maps)) == len(maps)
        for m in maps:
            assert m == m.relabelled(canonical_relabelling(m))

    def test_one_face_maps_match_gluings(self):
        for n in (1, 2, 3):
            stream = CountTable()
            for m in gen_rooted_orientable_maps(n):
                v, _, f, _ = euler_data(m)
                if f == 1:
                    stream.add((n, v))
            assert stream == vertex_profile(n, True)


def brute_planar_census(max_edges):
    """Oracle: keep the genus-0 maps among all rooted orientable maps."""
    table = CountTable()
    table[(1, 1)] = 1
    for e in range(1, max_edges + 1):
        for m in gen_rooted_orientable_maps(e):
            v, _, f, genus = euler_data(m)
            if genus == 0:
                table.add((v, f))
    return table


def planar_maps_with_edges(e):
    return 2 * 3 ** e * factorial(2 * e) // (factorial(e) * factorial(e + 2))


class TestPlanarCensus:
    @pytest.mark.parametrize("max_edges", range(1, 7))
    def test_equals_brute_force(self, max_edges):
        assert planar_census(max_edges).by_key == \
            brute_planar_census(max_edges).by_key

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


class TestTreeRootedMaps:
    def test_spanning_trees_of_theta_graph(self):
        # two vertices, three parallel edges: 3 spanning trees
        m = RootedMap((2, 3, 4, 5, 0, 1), (1, 0, 3, 2, 5, 4), 0)
        assert euler_data(m)[0] == 2
        assert len(spanning_edge_subsets(m)) == 3

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
