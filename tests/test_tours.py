import itertools
from math import factorial

import pytest
from revalidate import revalidated

from best_oracle import Digraph, best_compose, best_decompose, endpoints, \
    gen_eulerian_tours, is_loop, oriented_edges
from map_oracle import corner_color
from unimaps.enumeration import gen_unicellular
from unimaps.maps_core import ColoredUnicellularMap, glue_polygon
from unimaps.tours import BiEulerianTour, EdgeLabelledGraph, xi, xi_inverse


def gen_bi_eulerian_tours(g: EdgeLabelledGraph, origin: int):
    """Backtracking enumeration of all bi-Eulerian tours with ``origin``."""
    uses = [0] * (g.n + 1)
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
            u, v = endpoints(g, label)
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


def direction_free(tour: BiEulerianTour) -> bool:
    """True when no edge is repeated in the same direction."""
    return not oriented_edges(tour)


def all_colored(n, orientable_only=False, with_labels=True):
    """Every edge-labelled colored gluing with n edges (all q)."""
    for g in gen_unicellular(n, orientable_only):
        v = len(glue_polygon(g))
        for q in range(1, v + 1):
            for colors in itertools.product(range(1, q + 1), repeat=v):
                if set(colors) != set(range(1, q + 1)):
                    continue
                if with_labels:
                    for labels in itertools.permutations(range(1, n + 1)):
                        yield ColoredUnicellularMap(g, colors, q, labels)
                else:
                    yield ColoredUnicellularMap(g, colors, q)


def connected_graphs(q, n):
    """All edge-labelled connected graphs with vertex set 1..q, n edges."""
    possible = [(u, v) for u in range(1, q + 1) for v in range(u, q + 1)]
    for ends in itertools.product(possible, repeat=n):
        try:
            yield EdgeLabelledGraph(q, ends)
        except ValueError:
            continue


class TestEdgeLabelledGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            EdgeLabelledGraph(2, ((1, 1), (2, 2)))
        with pytest.raises(ValueError):
            EdgeLabelledGraph(3, ((1, 2), (1, 2)))

    def test_loops(self):
        g = EdgeLabelledGraph(2, ((1, 2), (2, 2)))
        assert not is_loop(g, 1)
        assert is_loop(g, 2)
        assert endpoints(g, 2) == (2, 2)


class TestBiEulerianTours:
    def test_single_loop_has_two_tours(self):
        g = EdgeLabelledGraph(1, ((1, 1),))
        assert len(list(gen_bi_eulerian_tours(g, 1))) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_loops_have_2n_factorial_tours(self, n):
        g = EdgeLabelledGraph(1, tuple((1, 1) for _ in range(n)))
        assert len(list(gen_bi_eulerian_tours(g, 1))) == factorial(2 * n)

    def test_tours_are_valid_and_distinct(self):
        g = EdgeLabelledGraph(2, ((1, 2), (1, 2)))
        tours = list(gen_bi_eulerian_tours(g, 1))
        assert len(tours) == len(set(tours))
        for t in tours:
            BiEulerianTour(g, 1, t.steps)  # revalidates

    def test_validation_rejects_broken_walks(self):
        g = EdgeLabelledGraph(2, ((1, 2), (1, 2)))
        with pytest.raises(ValueError):
            BiEulerianTour(g, 1, ((1, 0), (1, 0), (2, 0), (2, 1)))
        with pytest.raises(ValueError):
            BiEulerianTour(g, 1, ((1, 0), (2, 1), (1, 0), (1, 1)))

    def test_oriented_edges_on_loop(self):
        g = EdgeLabelledGraph(1, ((1, 1),))
        same = BiEulerianTour(g, 1, ((1, 0), (1, 0)))
        opp = BiEulerianTour(g, 1, ((1, 0), (1, 1)))
        assert oriented_edges(same) == frozenset({1})
        assert direction_free(opp)


class TestXi:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        for u in all_colored(n):
            tour = revalidated(xi(u))
            assert revalidated(xi_inverse(tour)) == u

    def test_orientable_iff_direction_free(self):
        for u in all_colored(3, with_labels=False):
            assert direction_free(xi(u)) == u.gluing.orientable

    def test_edge_color_multiset_preserved(self):
        for u in all_colored(2):
            graph = xi(u).graph
            nn = 2 * u.gluing.n
            expect = sorted(
                tuple(sorted((corner_color(u, a),
                              corner_color(u, (a + 1) % nn))))
                for a, b in u.gluing.pairs)
            assert sorted(graph.edges) == expect

    @pytest.mark.parametrize("n,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_bijection_counts(self, n, q):
        lhs = sum(1 for u in all_colored(n) if u.q == q)
        rhs = 0
        for g in connected_graphs(q, n):
            for origin in range(1, q + 1):
                rhs += sum(1 for _ in gen_bi_eulerian_tours(g, origin))
        assert lhs == rhs

    def test_inverse_hits_every_pair(self):
        n, q = 2, 2
        for g in connected_graphs(q, n):
            for origin in range(1, q + 1):
                for tour in gen_bi_eulerian_tours(g, origin):
                    u = revalidated(xi_inverse(tour))
                    assert revalidated(xi(u)) == tour


class TestBest:
    def diamond(self):
        return Digraph(3, ((1, 2), (2, 1), (2, 3), (3, 2), (1, 2), (2, 1)))

    def test_round_trip(self):
        d = self.diamond()
        tours = list(gen_eulerian_tours(d, 1))
        assert tours
        for t in tours:
            origin, tree, tau = best_decompose(d, t)
            assert origin == 1
            assert best_compose(d, origin, tree, tau) == t

    def test_decompositions_distinct(self):
        d = self.diamond()
        seen = set()
        for t in gen_eulerian_tours(d, 1):
            origin, tree, tau = best_decompose(d, t)
            key = (origin, tuple(sorted(tree.items())),
                   tuple(sorted(tau.items())))
            assert key not in seen
            seen.add(key)

    def test_tree_is_directed_toward_origin(self):
        d = self.diamond()
        for t in gen_eulerian_tours(d, 1):
            _, tree, _ = best_decompose(d, t)
            # following tree arcs from any vertex must reach the origin
            for v in (2, 3):
                x, hops = v, 0
                while x != 1:
                    x = d.arcs[tree[x]][1]
                    hops += 1
                    assert hops <= 3

    def test_compose_rejects_incomplete_data(self):
        d = Digraph(2, ((1, 2), (2, 1), (1, 2), (2, 1)))
        with pytest.raises(ValueError):
            # the walk returns to the origin with arc 2 never used
            best_compose(d, 1, {2: 1}, {1: (0,), 2: (3,)})
