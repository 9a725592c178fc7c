import itertools
from math import factorial

import pytest
from revalidate import revalidated

from best_oracle import Digraph, best_compose, best_decompose, endpoints, \
    gen_eulerian_tours, is_loop, oriented_edges
from map_oracle import corner_color
from unimaps.enumeration import gen_unicellular
from unimaps.maps_core import ColoredUnicellularMap, glue_polygon
from unimaps.tours import BiEulerianTour, xi, xi_inverse


def gen_bi_eulerian_tours(q: int, ends: tuple, origin: int):
    """Backtracking enumeration of all bi-Eulerian tours with ``origin``
    on the graph with vertices ``1..q`` and edge ends ``ends``."""
    n = len(ends)
    uses = [0] * (n + 1)
    steps: list = []

    def rec(current: int):
        if len(steps) == 2 * n:
            if current == origin:
                yield BiEulerianTour(q, ends, origin, tuple(steps))
            return
        for label in range(1, n + 1):
            if uses[label] == 2:
                continue
            u, v = ends[label - 1]
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


def covering_ends(q, n):
    """Every tuple of n edge ends on the vertices 1..q that touches each
    of them, the disconnected ones included."""
    possible = [(u, v) for u in range(1, q + 1) for v in range(u, q + 1)]
    for ends in itertools.product(possible, repeat=n):
        if {x for e in ends for x in e} == set(range(1, q + 1)):
            yield ends


class TestBiEulerianTours:
    def test_rejects_disconnected_ends(self):
        """A walk that would need the missing connection is refused, and
        the enumeration finds no tour; a vertex of a disconnected graph
        that no edge touches is refused even under a closed walk."""
        ends = ((1, 1), (2, 2))
        with pytest.raises(ValueError, match="wrong vertex"):
            BiEulerianTour(2, ends, 1, ((1, 0), (1, 1), (2, 0), (2, 1)))
        for origin in (1, 2):
            assert not list(gen_bi_eulerian_tours(2, ends, origin))
        with pytest.raises(ValueError, match="on no edge"):
            BiEulerianTour(3, ((1, 2), (1, 2)), 1,
                           ((1, 0), (1, 1), (2, 0), (2, 1)))

    def test_rejects_vertex_on_no_edge(self):
        with pytest.raises(ValueError, match="on no edge"):
            BiEulerianTour(2, ((1, 1),), 1, ((1, 0), (1, 0)))

    def test_rejects_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BiEulerianTour(1, ((1, 2),), 1, ((1, 0), (1, 1)))
        with pytest.raises(ValueError, match="out of range"):
            BiEulerianTour(2, ((0, 1), (1, 2)), 1,
                           ((2, 0), (2, 1), (1, 1), (1, 0)))

    def test_loops_and_normalized_ends(self):
        t = BiEulerianTour(2, ((2, 1), (2, 2)), 1,
                           ((1, 0), (2, 0), (2, 1), (1, 1)))
        assert t.edges == ((1, 2), (2, 2))
        assert not is_loop(t, 1)
        assert is_loop(t, 2)
        assert endpoints(t, 2) == (2, 2)

    def test_single_loop_has_two_tours(self):
        assert len(list(gen_bi_eulerian_tours(1, ((1, 1),), 1))) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_loops_have_2n_factorial_tours(self, n):
        ends = ((1, 1),) * n
        assert len(list(gen_bi_eulerian_tours(1, ends, 1))) == factorial(2 * n)

    def test_tours_are_valid_and_distinct(self):
        tours = list(gen_bi_eulerian_tours(2, ((1, 2), (1, 2)), 1))
        assert len(tours) == len(set(tours))
        for t in tours:
            revalidated(t)

    def test_validation_rejects_broken_walks(self):
        ends = ((1, 2), (1, 2))
        with pytest.raises(ValueError):
            BiEulerianTour(2, ends, 1, ((1, 0), (1, 0), (2, 0), (2, 1)))
        with pytest.raises(ValueError):
            BiEulerianTour(2, ends, 1, ((1, 0), (2, 1), (1, 0), (1, 1)))

    def test_oriented_edges_on_loop(self):
        same = BiEulerianTour(1, ((1, 1),), 1, ((1, 0), (1, 0)))
        opp = BiEulerianTour(1, ((1, 1),), 1, ((1, 0), (1, 1)))
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
            tour = xi(u)
            nn = 2 * u.gluing.n
            expect = sorted(
                tuple(sorted((corner_color(u, a),
                              corner_color(u, (a + 1) % nn))))
                for a, b in u.gluing.pairs)
            assert sorted(tour.edges) == expect

    @pytest.mark.parametrize("n,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_bijection_counts(self, n, q):
        lhs = sum(1 for u in all_colored(n) if u.q == q)
        rhs = 0
        for ends in covering_ends(q, n):
            for origin in range(1, q + 1):
                rhs += sum(1 for _ in gen_bi_eulerian_tours(q, ends, origin))
        assert lhs == rhs

    def test_inverse_hits_every_pair(self):
        n, q = 2, 2
        for ends in covering_ends(q, n):
            for origin in range(1, q + 1):
                for tour in gen_bi_eulerian_tours(q, ends, origin):
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
