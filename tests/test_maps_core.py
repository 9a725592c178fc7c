import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from map_oracle import corner_color, edge_of, relabelled

from unimaps import maps_core
from unimaps.bijections import (
    ExternallyLabelledPlanarRootedMap,
    OrientedTreeRootedMap,
    phi,
)
from unimaps.enumeration import gen_colored_unicellular, gen_unicellular
from unimaps.maps_core import (
    ColoredUnicellularMap,
    DisjointSets,
    PolygonGluing,
    RootedMap,
    canonical_relabelling,
    euler_data,
    face_permutation,
    glue_polygon,
    record,
    replace,
)
from unimaps.planar_closure import NearEulerianTree, PlaneMap
from unimaps.series import TruncatedBivariateSeries
from unimaps.tours import BiEulerianTour


def canonicalize(m: RootedMap) -> RootedMap:
    """Canonical representative of the rooted-isomorphism class of ``m``.

    Half-edges are relabelled in first-visit order of the traversal from the
    root, so the root becomes 0.  Two rooted maps are isomorphic as rooted
    maps iff their canonical forms are identical.
    """
    return relabelled(m, canonical_relabelling(m))


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
        ``glue_sides`` identifies.  The kept gluing is dropped before each
        call, since a kept gluing calls ``glue_sides`` no more."""
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
                maps_core._glue_polygon.cache_clear()
                classes = glue_polygon(g)
                assert len(pairs) == 2 * n
                assert classes == tuple(map(tuple, naive_closure(2 * n,
                                                                 pairs)))
                count += 1
        assert count == 2 + 12 + 120 + 1680

    @pytest.mark.parametrize("pairs_a,twists_a,pairs_b,twists_b", [
        # the same pairs, other twists
        (((0, 1), (2, 3)), (False, False), ((0, 1), (2, 3)), (True, False)),
        # the same twists, other pairs
        (((0, 1), (2, 3)), (False, True), ((0, 2), (1, 3)), (False, True)),
    ])
    def test_kept_gluing_is_keyed_by_pairs_and_twists(
            self, pairs_a, twists_a, pairs_b, twists_b):
        """Two gluings that differ only in their twists, or only in their
        pairs, alternate through the one kept entry in either order, and
        each call gives the classes of its own gluing."""
        a = PolygonGluing(2, pairs_a, twists_a)
        b = PolygonGluing(2, pairs_b, twists_b)
        fresh = maps_core._glue_polygon.__wrapped__
        expect = {g: fresh(g.n, g.pairs, g.twists) for g in (a, b)}
        assert expect[a] != expect[b]
        for order in ((a, b), (b, a)):
            maps_core._glue_polygon.cache_clear()
            for g in order * 3:
                assert glue_polygon(g) == expect[g]


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

    def test_alpha_is_checked_again_unless_it_is_the_same_tuple(
            self, monkeypatch):
        """Validation does not repeat the ``alpha`` checks on the tuple
        that last passed them, which it holds by reference: the phi
        images with 3 edges share one pairing tuple, checked once.  An
        equal but distinct tuple is checked in full, a bad one is
        refused, and the held tuple under a rotation of another size is
        checked again and refused; ``sigma`` is checked every time."""
        calls = []
        check = maps_core._check_permutation

        def counting(perm, identity, name):
            calls.append(name)
            return check(perm, identity, name)

        monkeypatch.setattr(maps_core, "_check_permutation", counting)
        monkeypatch.setattr(maps_core, "_checked_alpha", None)
        images = [phi(u).m for u in gen_colored_unicellular(3, True, True)]
        assert all(m.alpha is images[0].alpha for m in images)
        for m in images:
            m.validate()
        assert calls.count("sigma") == len(images) == 95
        assert calls.count("alpha") == 1

        shared = images[0].alpha
        twin = tuple(list(shared))
        assert twin == shared and twin is not shared
        calls.clear()
        RootedMap._trusted(images[0].sigma, twin, 0).validate()
        assert calls == ["sigma", "alpha"]
        calls.clear()
        with pytest.raises(ValueError, match="fixed-point-free"):
            RootedMap._trusted((0, 1), (0, 1), 0).validate()
        assert calls == ["sigma", "alpha"]
        images[0].validate()
        with pytest.raises(ValueError, match="alpha is not a permutation"):
            RootedMap._trusted((1, 0), shared, 0).validate()

    def test_torus_map(self):
        # one vertex, two loops crossing: sigma is a 4-cycle, alpha pairs
        # opposite half-edges
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        assert euler_data(m) == (1, 2, 1, 1)

    def test_vertex_and_edge_of(self):
        m = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        assert vertex_of(m, 3) == 0
        assert edge_of(m, 2) == 0
        assert edge_of(m, 1) == 1


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
        assert canonicalize(relabelled(m, perm)) == canonicalize(m)


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
        assert {corner_color(cm, 0), corner_color(cm, 1)} == {1, 2}

    def test_corner_color_out_of_range(self):
        g = PolygonGluing(2, ((0, 2), (1, 3)), (False, False))
        cm = ColoredUnicellularMap(g, (1,), 1)
        assert [corner_color(cm, c) for c in range(4)] == [1, 1, 1, 1]
        for corner in (4, -1):
            with pytest.raises(ValueError):
                corner_color(cm, corner)

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
            corner_color(u, c)
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


def _derived_data_traced(m: RootedMap) -> RootedMap:
    m.vertices(), m.edges(), m.faces(), canonical_relabelling(m)
    return m


def _loop_gluing() -> PolygonGluing:
    return PolygonGluing(1, ((0, 1),), (False,))


# an instance of each record class built through its public constructor,
# the names of the data it keeps beyond its fields, and a field value its
# constructor rejects with ValueError
RECORDS = [
    (lambda: _derived_data_traced(loop_map()),
     {"_vertex_data", "_edge_data", "_face_data", "_relabelling"},
     ("alpha", (0, 1))),
    (_loop_gluing, set(), ("pairs", ((0, 0),))),
    (lambda: ColoredUnicellularMap(_loop_gluing(), (1, 2), 2),
     {"vertex_classes", "corner_colors"}, ("q", 3)),
    (lambda: BiEulerianTour(1, ((1, 1),), 1, ((1, 0), (1, 0))), set(),
     ("q", 2)),
    (lambda: OrientedTreeRootedMap(loop_map(), (1,), (1,), frozenset(),
                                   frozenset({0})),
     {"up"}, ("vertex_labels", (2,))),
    (lambda: ExternallyLabelledPlanarRootedMap(loop_map(), (1,), (1,),
                                               frozenset(), (1,)),
     {"slot_system"}, ("face_labels", (2,))),
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
    # the trusted path stores fields in order and kept data by name, as
    # given; kept data takes no part in equality or hashing
    fresh = cls._trusted(*fields.values())
    assert vars(fresh) == fields
    assert obj == fresh and not obj != fresh
    data = {name: getattr(obj, name) for name in kept}
    assert vars(cls._trusted(*fields.values(), **data)) == fields | data
    if cls is not TruncatedBivariateSeries:  # its coeffs are a dict
        assert hash(obj) == hash(fresh)
    # a record of another class with equal fields is not equal
    twin_cls = record(type("Twin", (), {"__annotations__": dict.fromkeys(
        cls._fields)}))
    twin = twin_cls._trusted(*fields.values())
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
