import pytest

from unimaps import maps_core
from unimaps.maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    PolygonGluing,
    RootedMap,
    canonical_relabelling,
    euler_data,
    face_permutation,
    glue_polygon,
)


def canonicalize(m: RootedMap) -> RootedMap:
    """Canonical representative of the rooted-isomorphism class of ``m``.

    Half-edges are relabelled in first-visit order of the traversal from the
    root, so the root becomes 0.  Two rooted maps are isomorphic as rooted
    maps iff their canonical forms are identical.
    """
    return m.relabelled(canonical_relabelling(m))


def loop_map():
    # one vertex, one loop edge, on the sphere
    return RootedMap((1, 0), (1, 0), 0)


def link_map():
    # two vertices joined by one edge
    return RootedMap((0, 1), (1, 0), 0)


class TestDisjointSets:
    def test_basic(self):
        ds = DisjointSets(5)
        ds.union(0, 3)
        ds.union(3, 4)
        assert ds.find(4) == ds.find(0)
        assert ds.find(1) != ds.find(0)
        assert ds.classes() == [[0, 3, 4], [1], [2]]


class TestRootedMap:
    def test_validation_rejects_fixed_point(self):
        with pytest.raises(ValueError):
            RootedMap((0, 1), (0, 1), 0)

    def test_validation_rejects_odd_size(self):
        with pytest.raises(ValueError):
            RootedMap((0,), (0,), 0)

    def test_validation_rejects_disconnected(self):
        # two disjoint loops
        with pytest.raises(ValueError):
            RootedMap((1, 0, 3, 2), (1, 0, 3, 2), 0)

    def test_loop_structure(self):
        m = loop_map()
        assert m.vertices() == [(0, 1)]
        assert m.edges() == [(0, 1)]
        assert euler_data(m) == (1, 1, 2, 0)

    def test_link_structure(self):
        m = link_map()
        assert m.vertices() == [(0,), (1,)]
        assert euler_data(m) == (2, 1, 1, 0)

    def test_face_permutation_orbits(self):
        m = loop_map()
        assert face_permutation(m) == (0, 1)
        assert m.faces() == [(0,), (1,)]

    def test_faces_are_traced_once(self, monkeypatch):
        """``faces``, ``face_index`` and ``euler_data`` share one trace,
        which takes no part in equality."""
        m = RootedMap((1, 2, 3, 0), (3, 2, 1, 0), 0)  # two nested loops
        calls = []
        orbits = maps_core._orbits

        def counting(perm):
            calls.append(perm)
            return orbits(perm)

        monkeypatch.setattr(maps_core, "_orbits", counting)
        assert m.faces() == [(0,), (1, 3), (2,)]
        assert euler_data(m) == (1, 2, 3, 0)
        assert m.face_index() == (0, 1, 2, 1)
        assert m.faces() == [(0,), (1, 3), (2,)]
        assert calls == [face_permutation(m), m.sigma]
        assert m == RootedMap(m.sigma, m.alpha, m.root)

    def test_torus_map(self):
        # one vertex, two loops crossing: sigma is a 4-cycle, alpha pairs
        # opposite half-edges
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        assert euler_data(m) == (1, 2, 1, 1)

    def test_vertex_and_edge_of(self):
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        assert m.vertex_of(3) == 0
        assert m.edge_of(2) == 0
        assert m.edge_of(1) == 1


class TestCanonicalize:
    def test_idempotent_and_root_zero(self):
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 2)
        c = canonicalize(m)
        assert c.root == 0
        assert canonicalize(c) == c

    def test_separates_nonisomorphic(self):
        path = RootedMap((0, 2, 1, 3), (1, 0, 3, 2), 0)
        torus = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        assert euler_data(path) == (3, 2, 1, 0)
        assert canonicalize(path) != canonicalize(torus)

    def test_identifies_relabellings(self):
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        perm = [0, 3, 1, 2]
        assert canonicalize(m.relabelled(perm)) == canonicalize(m)


class TestPolygonGluing:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolygonGluing(2, ((0, 1), (1, 3)), (False, False))
        with pytest.raises(ValueError):
            PolygonGluing(2, ((0, 1),), (False,))

    def test_orientable_flag(self):
        g = PolygonGluing(2, ((0, 2), (1, 3)), (False, True))
        assert not g.orientable
        assert PolygonGluing(2, ((0, 2), (1, 3)), (False, False)).orientable

    def test_untwisted_loop_gives_two_vertices(self):
        skel = glue_polygon(PolygonGluing(1, ((0, 1),), (False,)))
        assert skel.vertex_count == 2
        assert skel.orientable

    def test_twisted_loop_gives_one_vertex(self):
        skel = glue_polygon(PolygonGluing(1, ((0, 1),), (True,)))
        assert skel.vertex_count == 1
        assert not skel.orientable

    def test_torus_gluing(self):
        # aba'b' square glued without twists: one vertex, genus 1
        skel = glue_polygon(PolygonGluing(2, ((0, 2), (1, 3)), (False, False)))
        assert skel.vertex_count == 1

    def test_klein_bottle_gluing(self):
        # aabb square, both twisted: V=1, E=2, F=1, chi=0
        skel = glue_polygon(PolygonGluing(2, ((0, 1), (2, 3)), (True, True)))
        assert skel.vertex_count == 1


class TestColoredUnicellularMap:
    def test_coloring_must_be_surjective(self):
        g = PolygonGluing(1, ((0, 1),), (False,))
        with pytest.raises(ValueError):
            ColoredUnicellularMap(g, (1, 1), 2)
        ColoredUnicellularMap(g, (1, 2), 2)
        ColoredUnicellularMap(g, (2, 1), 2)

    def test_corner_colors(self):
        g = PolygonGluing(1, ((0, 1),), (False,))
        cm = ColoredUnicellularMap(g, (1, 2), 2)
        # corners 0 and 1 lie in different classes
        assert {cm.corner_color(0), cm.corner_color(1)} == {1, 2}

    def test_corner_color_out_of_range(self):
        g = PolygonGluing(2, ((0, 2), (1, 3)), (False, False))
        cm = ColoredUnicellularMap(g, (1,), 1)
        assert [cm.corner_color(c) for c in range(4)] == [1, 1, 1, 1]
        for corner in (4, -1):
            with pytest.raises(ValueError):
                cm.corner_color(corner)

    def test_polygon_glued_once(self, monkeypatch):
        from unimaps import maps_core
        from unimaps.bijections import psi_fiber
        from unimaps.tours import xi

        calls = []
        real = maps_core.glue_polygon
        monkeypatch.setattr(maps_core, "glue_polygon",
                            lambda g: calls.append(g) or real(g))
        g = PolygonGluing(2, ((0, 1), (2, 3)), (True, False))
        u = ColoredUnicellularMap(g, (1, 2), 2)
        assert len(calls) == 1
        xi(u)
        for c in range(4):
            u.corner_color(c)
        fiber = psi_fiber(u)
        assert len(fiber) == 2
        assert len(calls) == 1

    def test_tour_inverse_glues_once(self, monkeypatch):
        from unimaps import maps_core
        from unimaps.tours import xi, xi_inverse

        g = PolygonGluing(3, ((0, 2), (1, 4), (3, 5)), (True, False, True))
        u = ColoredUnicellularMap(g, (2, 1), 2, edge_labels=(3, 1, 2))
        graph, tour = xi(u)
        calls = []
        real = maps_core.glue_polygon
        monkeypatch.setattr(maps_core, "glue_polygon",
                            lambda g: calls.append(g) or real(g))
        u2 = xi_inverse(graph, tour)
        assert len(calls) == 1
        assert u2 == u
        assert u2.skeleton == real(g)
        assert u2.corner_colors == u.corner_colors

    def test_edge_labels_default_and_strip(self):
        g = PolygonGluing(2, ((0, 2), (1, 3)), (False, False))
        cm = ColoredUnicellularMap(g, (1,), 1, edge_labels=(2, 1))
        assert cm.stripped().edge_labels == (1, 2)
        with pytest.raises(ValueError):
            ColoredUnicellularMap(g, (1,), 1, edge_labels=(1, 1))
