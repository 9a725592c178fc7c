import itertools
from collections import Counter
from math import factorial

import pytest

from best_oracle import arc_theta, arc_theta_fiber
from labelled_oracle import (
    gen_externally_labelled_maps,
    gen_oriented_tree_rooted_maps,
)
from revalidate import revalidated
from unimaps import maps_core
from unimaps.bijections import (
    OrientedTreeRootedMap,
    phi,
    phi_inverse,
    theta,
    theta_fiber,
    upsilon,
    upsilon_fiber,
)
from unimaps.enumeration import gen_colored_unicellular, gen_unicellular
from unimaps.formulas import t_formula
from unimaps.maps_core import ColoredUnicellularMap, RootedMap, glue_polygon
from unimaps.tours import xi


def all_colored(n, orientable_only=False):
    for g in gen_unicellular(n, orientable_only):
        v = len(glue_polygon(g))
        for q in range(1, v + 1):
            for colors in itertools.product(range(1, q + 1), repeat=v):
                if set(colors) != set(range(1, q + 1)):
                    continue
                for labels in itertools.permutations(range(1, n + 1)):
                    yield ColoredUnicellularMap(g, colors, q, labels)


class TestOrientedTreeRootedMap:
    def loop_with_tail(self):
        m = RootedMap((1, 0), (1, 0), 0)
        return OrientedTreeRootedMap(m, (1,), (1,), frozenset(), frozenset({0}))

    def test_weight_and_sizes(self):
        t = self.loop_with_tail()
        assert t.q == 1 and t.n == 1
        assert t.external_weight == 1

    def test_rejects_unbalanced(self):
        # a single non-loop edge cannot be oriented in a balanced way
        m = RootedMap((0, 1), (1, 0), 0)
        with pytest.raises(ValueError):
            OrientedTreeRootedMap(m, (1, 2), (1,), frozenset({0}),
                                  frozenset({0}))

    def test_rejects_incompatible_tree_orientation(self):
        # edge oriented away from the root vertex while in the tree:
        # tail must sit at the child, so a tail at the root is rejected
        m = RootedMap((0, 1), (1, 0), 0)
        balanced = False
        try:
            OrientedTreeRootedMap(m, (1, 2), (1,), frozenset({0}),
                                  frozenset({0, 1}))
            balanced = True
        except ValueError:
            pass
        assert not balanced

    @pytest.mark.parametrize("orientation", [{-1}, {2}])
    def test_rejects_unknown_orientation_half_edges(self, orientation):
        # -1 used to index the loop's last half-edge and pass as balanced
        m = RootedMap((1, 0), (1, 0), 0)
        with pytest.raises(ValueError, match="unknown half-edges"):
            OrientedTreeRootedMap(m, (1,), (1,), frozenset(), orientation)

    def test_canonical_key_invariant_under_relabelling(self):
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        t = OrientedTreeRootedMap(m, (1,), (1, 2), frozenset(),
                                  frozenset({0, 1}))
        perm = [0, 3, 1, 2]
        m2 = m.relabelled(perm)
        t2 = OrientedTreeRootedMap(m2, (1,), (1, 2), frozenset(),
                                   frozenset({perm[0], perm[1]}))
        assert t.canonical_key() == t2.canonical_key()


class TestUpsilonFibers:
    @pytest.mark.parametrize("n", [1, 2])
    def test_fiber_structure(self, n):
        for u in all_colored(n):
            fiber = upsilon_fiber(u)
            weights = {t.external_weight for t in fiber}
            assert len(weights) == 1
            w = weights.pop()
            assert len(fiber) == 2 ** w
            assert (w == 0) == u.gluing.orientable
            assert len({t.canonical_key() for t in fiber}) == len(fiber)
            for t in fiber:
                assert upsilon(t) == u

    def test_fiber_structure_three_edges(self):
        seen_nonorientable = 0
        for i, u in enumerate(all_colored(3)):
            if i % 7:  # sample for speed; the n<=2 sweep is exhaustive
                continue
            fiber = upsilon_fiber(u)
            w = fiber[0].external_weight
            assert len(fiber) == 2 ** w
            assert all(upsilon(t) == u for t in fiber)
            if w:
                seen_nonorientable += 1
        assert seen_nonorientable > 50

    @pytest.mark.parametrize("n", [1, 2])
    def test_completeness(self, n):
        """Every oriented tree-rooted map lies in the fiber of its image."""
        total = 0
        for t in gen_oriented_tree_rooted_maps(n):
            u = upsilon(t)
            keys = {x.canonical_key() for x in upsilon_fiber(u)}
            assert t.canonical_key() in keys
            total += 1
        expect = sum(2 ** upsilon_fiber(u)[0].external_weight
                     for u in all_colored(n))
        assert total == expect

    def test_theta_is_relabelling_invariant(self):
        for t in gen_oriented_tree_rooted_maps(2):
            perm = list(range(t.m.half_edge_count))
            perm.reverse()
            # conjugate the whole structure and compare images
            m2 = t.m.relabelled(perm)
            old_verts, old_edges = t.m.vertices(), t.m.edges()
            vl = {min(perm[h] for h in c): lab
                  for c, lab in zip(old_verts, t.vertex_labels)}
            el = {min(perm[h] for h in c): lab
                  for c, lab in zip(old_edges, t.edge_labels)}
            t2 = OrientedTreeRootedMap(
                m2,
                tuple(vl[min(c)] for c in m2.vertices()),
                tuple(el[min(c)] for c in m2.edges()),
                frozenset(min(perm[e], perm[t.m.alpha[e]]) for e in t.tree),
                frozenset(perm[h] for h in t.orientation))
            assert theta(t) == theta(t2)


class TestPhi:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bijection(self, n):
        images = set()
        count = 0
        for u in all_colored(n, orientable_only=True):
            t = phi(u)
            assert not t.orientation
            assert phi_inverse(t) == u
            images.add(t.canonical_key())
            count += 1
        assert len(images) == count
        assert count == sum(t_formula(n, q) * factorial(n)
                            for q in range(1, n + 2))

    def test_rejects_nonorientable(self):
        for u in all_colored(1):
            if not u.gluing.orientable:
                with pytest.raises(ValueError):
                    phi(u)

    def test_edge_color_property(self):
        """(star): edges by endpoint colors agree between U and phi(U)."""
        for u in all_colored(2, orientable_only=True):
            graph, _ = xi(u)
            t = phi(u)
            vlab = {}
            for cyc, lab in zip(t.m.vertices(), t.vertex_labels):
                for h in cyc:
                    vlab[h] = lab
            pairs = Counter(
                tuple(sorted((vlab[min(c)], vlab[t.m.alpha[min(c)]])))
                for c in t.m.edges())
            assert pairs == Counter(graph.edges)


class TestDegreeProperty:
    @pytest.mark.parametrize("n", [1, 2])
    def test_corner_degrees_match(self, n):
        """(star star): per color, corner count in U equals the degree of
        that vertex in any fiber element."""
        for u in all_colored(n):
            nn = 2 * n
            corners = Counter(u.corner_color(c) for c in range(nn))
            for t in upsilon_fiber(u):
                deg = Counter()
                for cyc, lab in zip(t.m.vertices(), t.vertex_labels):
                    deg[lab] += len(cyc)
                assert deg == corners


class TestAgainstArcOracle:
    """The half-edge ``theta`` and ``theta_fiber`` equal the arc-level BEST
    oracle: the same fiber elements in the same order, and the same tour
    back from each of them.  Every object built on the way, unchecked, is
    valid: the colored maps, graphs, tours and fiber elements, and the
    colored map back from each element, through n = 4 on orientable
    surfaces (the bound of criterion 8)."""

    CASES = {
        "general-n1": lambda: gen_colored_unicellular(1, False),
        "general-n2": lambda: gen_colored_unicellular(2, False),
        "general-n3": lambda: gen_colored_unicellular(3, False),
        "orientable-n4": lambda: gen_colored_unicellular(4, True),
        "labelled-n2": lambda: all_colored(2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fiber_and_theta(self, case):
        count = 0
        for u in map(revalidated, self.CASES[case]()):
            graph, tour = map(revalidated, xi(u))
            fiber = theta_fiber(graph, tour)
            assert fiber == arc_theta_fiber(graph, tour)
            for t in map(revalidated, fiber):
                assert tuple(map(revalidated, theta(t))) == arc_theta(t) \
                    == (graph, tour)
                assert revalidated(upsilon(t)) == u
            count += 1
        assert count

    @pytest.mark.parametrize("n", [1, 2])
    def test_theta_on_all_oriented_tree_rooted_maps(self, n):
        """Maps with any half-edge numbering, not only fiber elements."""
        for t in gen_oriented_tree_rooted_maps(n):
            assert theta(t) == arc_theta(t)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("stream", [gen_oriented_tree_rooted_maps,
                                    gen_externally_labelled_maps])
def test_label_streams_yield_valid_objects(stream, n):
    """Both label-permuting generators build the relabellings of each map
    their filter accepts through a trusted constructor; every object they
    yield passes its public constructor unchanged, kept data included."""
    count = 0
    for obj in stream(n):
        revalidated(obj)
        count += 1
    assert count


def test_phi_round_trip_traces_each_orbit_kind_once(monkeypatch):
    """A phi round trip computes the vertex orbits and the edge orbits of
    its one rooted map once each."""
    maps = list(gen_colored_unicellular(3, True))
    calls = []
    orbits = maps_core._orbits

    def counting(perm):
        calls.append(perm)
        return orbits(perm)

    monkeypatch.setattr(maps_core, "_orbits", counting)
    for u in maps:
        assert phi_inverse(phi(u)) == u
    assert len(calls) == 2 * len(maps)
