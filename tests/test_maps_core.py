import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimaps import maps_core
from unimaps.bijections import (
    ExternallyLabelledPlanarRootedMap,
    OrientedTreeRootedMap,
)
from unimaps.enumeration import gen_unicellular
from unimaps.maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    PolygonGluing,
    RootedMap,
    _unchecked,
    canonical_relabelling,
    euler_data,
    face_permutation,
    glue_polygon,
    record,
    replace,
)
from unimaps.planar_closure import NearEulerianTree, PlaneMap
from unimaps.series import TruncatedBivariateSeries
from unimaps.tours import BiEulerianTour, EdgeLabelledGraph


def canonicalize(m: RootedMap) -> RootedMap:
    """Canonical representative of the rooted-isomorphism class of ``m``.

    Half-edges are relabelled in first-visit order of the traversal from the
    root, so the root becomes 0.  Two rooted maps are isomorphic as rooted
    maps iff their canonical forms are identical.
    """
    return m.relabelled(canonical_relabelling(m))


def vertex_of(m: RootedMap, h: int) -> int:
    """Vertex identifier of half-edge ``h`` (minimum of its sigma-orbit)."""
    least = h
    x = m.sigma[h]
    while x != h:
        least = min(least, x)
        x = m.sigma[x]
    return least


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

    @settings(max_examples=300, deadline=None)
    # descending unions leave the chain 5 -> 4 -> ... -> 0 uncompressed
    @example((6, [(True, k - 1, k) for k in range(5, 0, -1)]))
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                           st.integers(0, n - 1)), max_size=3 * n))))
    def test_matches_naive_closure(self, case):
        """After any unions, with finds interleaved, the classes are the
        naive closure of the united pairs, each sorted and ordered by
        minimum, and ``find`` gives the minimum of the class."""
        n, ops = case
        ds = DisjointSets(n)
        pairs = []
        for unite, x, y in ops:
            if unite:
                ds.union(x, y)
                pairs.append((x, y))
            else:
                ds.find(x)
        classes = naive_closure(n, pairs)
        assert ds.classes() == classes
        for cls in classes:
            assert all(ds.find(x) == cls[0] for x in cls)

    def test_glue_polygon_is_the_closure_of_glue_sides(self, monkeypatch):
        """On every gluing with at most 4 edges, on all surfaces, the
        vertex classes are the closure of the corner pairs that
        ``glue_sides`` identifies."""
        real = maps_core.glue_sides
        pairs = []

        class Recorder:
            def union(self, x, y):
                pairs.append((x, y))

        def recording(ds, *sides):
            real(Recorder(), *sides)
            real(ds, *sides)
        monkeypatch.setattr(maps_core, "glue_sides", recording)
        count = 0
        for n in range(1, 5):
            for g in gen_unicellular(n):
                pairs.clear()
                classes = glue_polygon(g)
                assert len(pairs) == 2 * n
                assert classes == tuple(map(tuple, naive_closure(2 * n,
                                                                 pairs)))
                count += 1
        assert count == 2 + 12 + 120 + 1680


def naive_closure(n, pairs) -> list:
    """The classes of the equivalence on ``0 .. n-1`` generated by
    ``pairs``, by merging sets: sorted lists ordered by minimum."""
    cls = {x: {x} for x in range(n)}
    for x, y in pairs:
        if cls[x] is not cls[y]:
            merged = cls[x] | cls[y]
            for z in merged:
                cls[z] = merged
    return sorted({min(c): sorted(c) for c in cls.values()}.values())


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
        assert vertex_of(m, 3) == 0
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
        classes = glue_polygon(PolygonGluing(1, ((0, 1),), (False,)))
        assert classes == ((0,), (1,))

    def test_twisted_loop_gives_one_vertex(self):
        classes = glue_polygon(PolygonGluing(1, ((0, 1),), (True,)))
        assert classes == ((0, 1),)

    def test_torus_gluing(self):
        # aba'b' square glued without twists: one vertex, genus 1
        classes = glue_polygon(PolygonGluing(2, ((0, 2), (1, 3)),
                                             (False, False)))
        assert len(classes) == 1

    def test_klein_bottle_gluing(self):
        # aabb square, both twisted: V=1, E=2, F=1, chi=0
        classes = glue_polygon(PolygonGluing(2, ((0, 1), (2, 3)),
                                             (True, True)))
        assert len(classes) == 1


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
        tour = xi(u)
        calls = []
        real = maps_core.glue_polygon
        monkeypatch.setattr(maps_core, "glue_polygon",
                            lambda g: calls.append(g) or real(g))
        u2 = xi_inverse(tour)
        assert len(calls) == 1
        assert u2 == u
        assert u2.vertex_classes == real(g)
        assert u2.corner_colors == u.corner_colors

    def test_edge_labels_default_and_strip(self):
        g = PolygonGluing(2, ((0, 2), (1, 3)), (False, False))
        cm = ColoredUnicellularMap(g, (1,), 1, edge_labels=(2, 1))
        assert replace(cm, edge_labels=None).edge_labels == (1, 2)
        with pytest.raises(ValueError):
            ColoredUnicellularMap(g, (1,), 1, edge_labels=(1, 1))


def _orbits_traced(m: RootedMap) -> RootedMap:
    m.vertices(), m.edges(), m.faces()
    return m


def _loop_gluing() -> PolygonGluing:
    return PolygonGluing(1, ((0, 1),), (False,))


def _loop_graph() -> EdgeLabelledGraph:
    return EdgeLabelledGraph(1, ((1, 1),))


# an instance of each record class built through its public constructor,
# the names of the data it keeps beyond its fields, and a field value its
# constructor rejects with ValueError
RECORDS = [
    (lambda: _orbits_traced(loop_map()),
     {"_vertex_data", "_edge_data", "_face_data"}, ("alpha", (0, 1))),
    (_loop_gluing, set(), ("pairs", ((0, 0),))),
    (lambda: ColoredUnicellularMap(_loop_gluing(), (1, 2), 2),
     {"vertex_classes", "corner_colors"}, ("q", 3)),
    (_loop_graph, set(), ("q", 2)),
    (lambda: BiEulerianTour(_loop_graph(), 1, ((1, 0), (1, 0))), set(),
     ("origin", 2)),
    (lambda: OrientedTreeRootedMap(loop_map(), (1,), (1,), frozenset(),
                                   frozenset({0})),
     {"up"}, ("vertex_labels", (2,))),
    (lambda: ExternallyLabelledPlanarRootedMap(loop_map(), (1,), (1,),
                                               frozenset(), (1,)),
     {"submap_faces"}, ("face_labels", (2,))),
    (lambda: NearEulerianTree((1, 0), (-1, -1), frozenset({0}),
                              frozenset()), set(), ("root", 5)),
    (lambda: PlaneMap(loop_map(), 0), set(), ("outer", 5)),
    (lambda: TruncatedBivariateSeries({(0, 1): 2}, 3), set(),
     ("coeffs", {(0, 0): "x"})),
]


@pytest.mark.parametrize("make,kept,bad", RECORDS, ids=[
    type(make()).__name__ for make, _, _ in RECORDS])
def test_record_semantics(make, kept, bad):
    """What every model class keeps from its former dataclass form:
    value equality and hashing over the fields alone, immutability, a
    repr naming the fields, and constructor errors."""
    obj = make()
    cls = type(obj)
    fields = {name: getattr(obj, name) for name in cls._fields}
    assert set(vars(obj)) - set(fields) == kept
    # kept data takes no part in equality or hashing
    fresh = _unchecked(cls, **fields)
    assert not set(vars(fresh)) - set(fields)
    assert obj == fresh and not obj != fresh
    if cls is not TruncatedBivariateSeries:  # its coeffs are a dict
        assert hash(obj) == hash(fresh)
    # a record of another class with equal fields is not equal
    twin_cls = record(type("Twin", (), {"__annotations__": dict.fromkeys(
        cls._fields)}))
    twin = _unchecked(twin_cls, **fields)
    assert obj != twin and twin != obj
    # immutable, fields and kept data alike
    for name in list(fields)[:1] + sorted(kept):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == fresh
    text = repr(obj)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}=" in text for name in fields)
    assert not any(name in text for name in kept)
    with pytest.raises(ValueError):
        replace(obj, **dict([bad]))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    assert replace(obj) == obj
