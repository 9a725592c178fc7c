"""The color-orbit quotient that ``phi-roundtrip`` and ``psi-fibers``
check on: the restricted-growth colorings stand for their orbits under
the permutations of the colors, and phi and psi commute with those
permutations up to relabelling, on every coloring both checks reach in
full."""

from collections import Counter
from math import factorial

import pytest

from unimaps.bijections import phi_inverse, psi, psi_fiber
from unimaps.enumeration import gen_colored_unicellular
from unimaps.maps_core import replace


def restricted_growth(colors) -> tuple:
    """``(rep, pi)``: ``colors`` renamed in order of first appearance, and
    the permutation ``pi`` (a dict) with ``colors[i] == pi[rep[i]]``."""
    first = {}
    for c in colors:
        first.setdefault(c, len(first) + 1)
    return tuple(first[c] for c in colors), {i: c for c, i in first.items()}


def permuted(x, pi):
    """``x`` with each vertex label ``l`` renamed ``pi[l]``, revalidated."""
    return replace(x, vertex_labels=tuple(pi[l] for l in x.vertex_labels))


@pytest.mark.parametrize("orientable_only,max_n,orbits,maps", [
    (True, 4, 1207, 8940), (False, 3, 358, 908)])
def test_representatives_name_the_orbits(orientable_only, max_n, orbits,
                                         maps):
    """The stream of representatives is the restricted-growth part of the
    full stream, in the same order, and every colored map lies in the
    orbit of exactly one of them, which holds q! colored maps."""
    for n in range(1, max_n + 1):
        full = list(gen_colored_unicellular(n, orientable_only))
        reps = list(gen_colored_unicellular(n, orientable_only, True))
        assert reps == [u for u in full
                        if restricted_growth(u.colors)[0] == u.colors]
        orbit = Counter((u.gluing, restricted_growth(u.colors)[0])
                        for u in full)
        assert orbit == {(u.gluing, u.colors): factorial(u.q) for u in reps}
        orbits -= len(reps)
        maps -= len(full)
    assert orbits == maps == 0


def test_phi_commutes_with_color_permutations(phi_images4):
    """On every coloring u with n <= 4: phi(u) has the canonical key of
    phi(rep) with its vertex labels permuted by pi, where u = pi(rep), and
    phi_inverse takes that permuted map back to u."""
    image = {}
    for u, t in phi_images4:
        if restricted_growth(u.colors)[0] == u.colors:
            image[(u.gluing, u.colors)] = t
    assert len(image) == 1207
    for u, t in phi_images4:
        rep, pi = restricted_growth(u.colors)
        moved = permuted(image[(u.gluing, rep)], pi)
        assert moved.canonical_key() == t.canonical_key(), u
        assert phi_inverse(moved) == u, u


def test_psi_commutes_with_color_permutations():
    """On every colored map u with n <= 3, all surfaces: psi's fiber over
    u has the canonical keys of the fiber over rep with its vertex labels
    permuted by pi, and psi takes every permuted element back to u."""
    fibers = {}
    checked = 0
    for n in range(1, 4):
        for u in gen_colored_unicellular(n):
            rep, pi = restricted_growth(u.colors)
            if (u.gluing, rep) not in fibers:
                assert rep == u.colors
                fibers[(u.gluing, rep)] = psi_fiber(u)
            moved = [permuted(p, pi) for p in fibers[(u.gluing, rep)]]
            assert {p.canonical_key() for p in moved} == \
                {p.canonical_key() for p in psi_fiber(u)}, u
            assert all(psi(p) == u for p in moved), u
            checked += 1
    assert (len(fibers), checked) == (358, 908)
