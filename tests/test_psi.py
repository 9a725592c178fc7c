import itertools
from collections import Counter
from math import comb, factorial

import pytest
from labelled_oracle import gen_externally_labelled_maps
from map_oracle import corner_color, submap_slot_system, walk_slot_faces
from revalidate import revalidated

from unimaps import bijections, maps_core, planar_closure
from unimaps.bijections import (
    ExternallyLabelledPlanarRootedMap,
    _slot_system,
    _standard_involution,
    phi,
    psi,
    psi_fiber,
)
from unimaps.checks import _fiber_fault
from unimaps.cli import _psi_element_payload
from unimaps.enumeration import (
    gen_colored_unicellular,
    gen_unicellular,
    planar_census,
)
from unimaps.formulas import double_factorial
from unimaps.maps_core import (
    ColoredUnicellularMap,
    RootedMap,
    glue_polygon,
    replace,
)


def all_colored(n, orientable_only=False):
    for g in gen_unicellular(n, orientable_only):
        v = len(glue_polygon(g))
        for q in range(1, v + 1):
            for colors in itertools.product(range(1, q + 1), repeat=v):
                if set(colors) != set(range(1, q + 1)):
                    continue
                for labels in itertools.permutations(range(1, n + 1)):
                    yield ColoredUnicellularMap(g, colors, q, labels)


class TestValidation:
    def link(self):
        # two vertices joined by two parallel edges
        return RootedMap((2, 3, 0, 1), (1, 0, 3, 2), 0)

    def test_accepts_spanning_planar_submap(self):
        p = ExternallyLabelledPlanarRootedMap(
            self.link(), (1, 2), (1, 2), frozenset({0, 2}), (1, 2))
        assert p.r == 2 and p.external_weight == 1

    def test_rejects_non_spanning_submap(self):
        with pytest.raises(ValueError):
            ExternallyLabelledPlanarRootedMap(
                self.link(), (1, 2), (1, 2), frozenset(), (1,))

    def test_rejects_bad_face_labels(self):
        with pytest.raises(ValueError):
            ExternallyLabelledPlanarRootedMap(
                self.link(), (1, 2), (1, 2), frozenset({0, 2}), (1, 1))

    def test_rejects_submap_touching_every_vertex_in_two_parts(self):
        """A submap that meets every vertex is still refused when it
        falls apart: on a path of four vertices, its first and last
        edges."""
        path = RootedMap((0, 2, 1, 4, 3, 5), (1, 0, 3, 2, 5, 4), 0)
        assert len(path.vertices()) == 4
        with pytest.raises(ValueError, match="spanning and connected"):
            ExternallyLabelledPlanarRootedMap(
                path, (1, 2, 3, 4), (1, 2, 3), frozenset({0, 4}), (1, 2))

    def test_rejects_nonplanar_submap(self):
        torus = RootedMap((1, 2, 3, 0), (2, 3, 0, 1), 0)
        with pytest.raises(ValueError):
            ExternallyLabelledPlanarRootedMap(
                torus, (1,), (1, 2), frozenset({0, 1}), (1,))


class TestPsiFibers:
    @pytest.mark.parametrize("n", [1, 2])
    def test_fiber_structure(self, n):
        for u in all_colored(n):
            fiber = psi_fiber(u)
            weights = {p.external_weight for p in fiber}
            assert len(weights) == 1
            w = weights.pop()
            assert len(fiber) == 2 ** w
            assert (w == 0) == u.gluing.orientable
            assert len({p.canonical_key() for p in fiber}) == len(fiber)
            for p in fiber:
                assert psi(p) == u

    def test_every_element_is_valid(self):
        """Every fiber element built unchecked, and psi's image of it, is
        valid, through n = 3 on all surfaces (the bound of criterion 10)."""
        elements = 0
        for n in range(1, 4):
            for u in map(revalidated, gen_colored_unicellular(n, False)):
                for p in map(revalidated, psi_fiber(u)):
                    assert revalidated(psi(p)) == u
                    elements += 1
        assert elements == 1699

    def test_fiber_structure_three_edges(self):
        seen_w = Counter()
        for i, u in enumerate(all_colored(3)):
            if i % 11:  # sample for speed; n<=2 is exhaustive
                continue
            fiber = psi_fiber(u)
            w = fiber[0].external_weight
            seen_w[w] += 1
            assert len(fiber) == 2 ** w
            assert all(psi(p) == u for p in fiber)
        assert set(seen_w) >= {0, 1, 2}

    @pytest.mark.parametrize("n", [1, 2])
    def test_completeness_and_counts(self, n):
        """Every externally-labelled planar-rooted map is a preimage of
        its image, and their number with q vertices and an r-face submap
        is q! r! P(q,r) C(2n, 2q+2r-4) (2n-2q-2r+3)!! times n! for the
        edge labels."""
        census = planar_census(4)
        by = Counter()
        for p in gen_externally_labelled_maps(n):
            u = psi(p)
            keys = {x.canonical_key() for x in psi_fiber(u)}
            assert p.canonical_key() in keys
            by[(p.q, p.r)] += 1
        assert by
        for (q, r), c in by.items():
            expect = (factorial(q) * factorial(r) * census[(q, r)]
                      * comb(2 * n, 2 * q + 2 * r - 4)
                      * double_factorial(2 * n - 2 * q - 2 * r + 3)
                      * factorial(n))
            assert c == expect

    def test_degree_property(self):
        """The total degree of the vertices colored i equals the degree
        of the vertex labelled i in any preimage."""
        for u in all_colored(2):
            nn = 2 * u.gluing.n
            corners = Counter(corner_color(u, c) for c in range(nn))
            for p in psi_fiber(u):
                deg = Counter()
                for cyc, lab in zip(p.m.vertices(), p.vertex_labels):
                    deg[lab] += len(cyc)
                assert deg == corners

    def test_wrong_degrees_fail_both_certificates(self, monkeypatch):
        """An element whose vertex labels are swapped between vertices of
        different degrees fails the degree property (**) both where the
        registry checks fibers and where ``fiber`` reports it; psi is
        patched to map every element back to ``u``, so that the degrees
        are the first property that fails."""
        u = next(u for u in gen_colored_unicellular(2, True)
                 if sorted(Counter(u.corner_colors).values()) == [1, 3])
        (p,) = psi_fiber(u)
        wrong = replace(p, vertex_labels=p.vertex_labels[::-1])
        corners = Counter(u.corner_colors)
        assert _psi_element_payload(p, corners)["degree_certificate_ok"]
        assert not _psi_element_payload(wrong,
                                        corners)["degree_certificate_ok"]
        monkeypatch.setattr(bijections, "psi", lambda p: u)
        assert _fiber_fault(u, (p,)) is None
        assert _fiber_fault(u, (wrong,)) == "degrees"

    def test_orientable_case_reduces_to_tree_rooted(self):
        """On orientable maps the single preimage is the tree-rooted map
        of the orientable bijection, with the tree as submap."""
        for u in all_colored(2, orientable_only=True):
            (p,) = psi_fiber(u)
            t = phi(u)
            assert p.face_labels == (1,)
            assert p.submap == t.tree
            assert p.m == t.m


def _fiber_elements(max_n):
    """Every psi fiber element over one colored map per color orbit with
    at most ``max_n`` edges, all surfaces."""
    return [p for n in range(1, max_n + 1)
            for u in gen_colored_unicellular(n, False, True)
            for p in psi_fiber(u)]


def _altered(value):
    """``value`` changed: an int plus one, a sequence reversed, or, when
    reversing leaves it equal, lengthened by one entry."""
    if isinstance(value, int):
        return value + 1
    changed = value[::-1]
    return changed if changed != value else value + type(value)([-2])


class TestSubmapFaces:
    def test_psi_traces_no_submap_face(self, monkeypatch):
        """``psi`` reads the slot system its input keeps and hands it to
        the opening: no submap is projected and no submap face is traced
        inside it."""
        fibers = [psi_fiber(u) for u in all_colored(2)]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(planar_closure, "slot_faces",
                            counted("slot_faces", planar_closure.slot_faces))
        monkeypatch.setattr(bijections, "_project",
                            counted("_project", bijections._project))
        weights = Counter()
        for fiber in fibers:
            for p in fiber:
                weights[p.external_weight] += 1
                psi(p)
        assert set(weights) == {0, 1, 2}
        assert calls == Counter()

    def test_kept_faces_are_the_submap_faces(self):
        """On every psi fiber element over one colored map per color
        orbit with n <= 3, the faces of the slot system that
        ``psi_fiber`` keeps, and of the one ``_slot_system`` derives,
        read as half-edges through the slots, are the submap faces a
        slot-by-slot walk of the induced slot dicts finds, ordered by
        minimum.  The empty submap has one synthetic empty face."""
        elements = _fiber_elements(3)
        assert len(elements) == 860
        for p in elements:
            faces = ((),)
            if p.submap:
                faces = tuple(sorted(walk_slot_faces(
                    *submap_slot_system(p.m, p.submap)), key=min))
            for slots in (p.slot_system, _slot_system(p.m, p.submap)):
                hs = slots[0]
                assert tuple(tuple(hs[x] for x in f)
                             for f in slots[4]) == faces
            assert len(faces) == p.r

    def test_kept_slot_system_is_the_induced_one(self):
        """On every psi fiber element over one colored map per color
        orbit with n <= 3, the slot system ``psi_fiber`` keeps is the one
        ``m`` induces on the submap: its slots, rotation and pairing are
        those of the oracle's slot dicts, its faces those of a
        slot-by-slot walk, and its root slot the first at the root
        vertex.  A copy with one kept field altered fails validation."""
        elements = _fiber_elements(3)
        assert len(elements) == 860
        for p in elements:
            hs, pos, sigma, mate, faces, face_of, root = p.slot_system
            rotation, pairing = submap_slot_system(p.m, p.submap)
            assert hs == list(rotation)
            assert [k for k in pos if k >= 0] == list(range(len(hs)))
            assert all(pos[h] == k for k, h in enumerate(hs))
            assert {hs[k]: hs[x] for k, x in enumerate(sigma)} == rotation
            assert {hs[k]: hs[x] for k, x in enumerate(mate)} == pairing
            walked = sorted(walk_slot_faces(rotation, pairing), key=min)
            assert [tuple(hs[x] for x in f) for f in faces] == \
                (walked if hs else [()])
            assert all(face_of[x] == k for k, f in enumerate(faces)
                       for x in f)
            vid = p.m.vertex_index()
            at_root = [k for k, h in enumerate(hs)
                       if vid[h] == vid[p.m.root]]
            assert root == (at_root[0] if at_root else -1)
            assert bool(hs) == bool(p.submap)
            for i in range(7):
                kept = list(p.slot_system)
                kept[i] = _altered(kept[i])
                bad = ExternallyLabelledPlanarRootedMap._trusted(
                    p.m, p.vertex_labels, p.edge_labels, p.submap,
                    p.face_labels, slot_system=tuple(kept))
                with pytest.raises(ValueError, match="slot system"):
                    bad.validate()


def test_psi_round_trip_traces_the_involution_once_per_edge_count(
        monkeypatch):
    """A psi round trip re-pairs every cut edge the fiber closed, so the
    map psi builds is on the standard involution, and shares that tuple
    and its edge orbits: over every fiber element with 2 and 3 edges, the
    involution's edge orbits are traced once per edge count."""
    calls = []
    orbits = maps_core._orbits

    def counting(perm):
        calls.append(perm)
        return orbits(perm)

    monkeypatch.setattr(maps_core, "_orbits", counting)
    _standard_involution.cache_clear()
    elements = 0
    for n in (2, 3):
        for u in gen_colored_unicellular(n, False, True):
            for p in psi_fiber(u):
                assert psi(p) == u
                elements += 1
    assert elements == 856
    for n in (2, 3):
        # the pairing of half-edges 2k and 2k + 1
        assert calls.count(tuple([h ^ 1 for h in range(2 * n)])) == 1
