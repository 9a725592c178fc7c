"""Brute-force streams of the labelled maps on the two sides of the
bijections, kept as test oracles for :mod:`unimaps.bijections` and for
the spanning-tree count of :mod:`unimaps.enumeration`.

Each stream walks every rooted orientable map with ``n`` edges, every
marked submap or orientation that the public constructor accepts, and
every relabelling of vertices, edges (and submap faces).  The relabelling
loops cost n!·q!·r!, which caps them at n <= 3; the tree-rooted listing
relabels vertices alone and reaches n = 5.
"""

from __future__ import annotations

import itertools

from unimaps.bijections import (
    ExternallyLabelledPlanarRootedMap,
    OrientedTreeRootedMap,
    _slot_system,
)
from unimaps.enumeration import gen_rooted_orientable_maps
from unimaps.maps_core import DisjointSets, RootedMap


def spanning_edge_subsets(m: RootedMap):
    """Edge subsets of ``m`` forming spanning trees, as frozensets of edge
    ids (minimum half-edge per edge), found among all ``C(edges, q - 1)``
    subsets with a union-find."""
    edges = [min(c) for c in m.edges()]
    vid = m.vertex_index()
    q = max(vid) + 1
    out = []
    for subset in itertools.combinations(edges, q - 1):
        ds = DisjointSets(q)
        ok = True
        for eid in subset:
            a, b = vid[eid], vid[m.alpha[eid]]
            if ds.find(a) == ds.find(b):
                ok = False
                break
            ds.union(a, b)
        if ok:
            out.append(frozenset(subset))
    return out


def gen_tree_rooted_maps(n: int, q: int):
    """Stream all (rooted orientable map with ``n`` edges and vertex set
    ``[q]``, marked spanning tree) triples: the listing that
    :func:`unimaps.enumeration.spanning_tree_count` counts.

    Yields tuples ``(map, vertex_labels, tree)`` where ``vertex_labels`` maps
    each vertex id (minimum half-edge of its sigma-orbit) to a label in
    ``1..q`` bijectively, and ``tree`` is a frozenset of edge ids.
    """
    if not 1 <= q <= n + 1:
        raise ValueError("need 1 <= q <= n+1")
    for m in gen_rooted_orientable_maps(n):
        verts = [min(c) for c in m.vertices()]
        if len(verts) != q:
            continue
        trees = spanning_edge_subsets(m)
        for perm in itertools.permutations(range(1, q + 1)):
            labels = dict(zip(verts, perm))
            for tree in trees:
                yield m, labels, tree


def gen_oriented_tree_rooted_maps(n: int, weight: int = None):
    """Stream all oriented tree-rooted maps with ``n`` edges (every vertex
    labelling, edge labelling, spanning tree and compatible balanced
    orientation), optionally restricted to one external weight.  The
    public constructor filters the trees and orientations; relabellings
    of an accepted map are built trusted, with its ``up``, which no
    relabelling changes."""
    for m in gen_rooted_orientable_maps(n):
        q = len(m.vertices())
        trees = spanning_edge_subsets(m)
        orientations = _balanced_orientations(m)
        for tree in trees:
            for orient in orientations:
                try:
                    t = OrientedTreeRootedMap(
                        m, tuple(range(1, q + 1)), tuple(range(1, n + 1)),
                        tree, orient)
                except ValueError:
                    continue
                if weight is not None and t.external_weight != weight:
                    continue
                for vperm in itertools.permutations(range(1, q + 1)):
                    for eperm in itertools.permutations(range(1, n + 1)):
                        yield OrientedTreeRootedMap._trusted(
                            m, vperm, eperm, t.tree, t.orientation, up=t.up)


def _balanced_orientations(m: RootedMap):
    """All balanced partial orientations of ``m`` as tail half-edge sets."""
    vid = m.vertex_index()
    q = max(vid) + 1
    eids = [min(c) for c in m.edges()]
    out = []
    for subset in _subsets(eids):
        for tails in itertools.product(*[(h, m.alpha[h]) for h in subset]):
            flow = [0] * q
            for h in tails:
                flow[vid[h]] += 1
                flow[vid[m.alpha[h]]] -= 1
            if not any(flow):
                out.append(frozenset(tails))
    return sorted(set(out), key=sorted)


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def gen_externally_labelled_maps(n: int):
    """Stream every externally-labelled planar-rooted map with n edges.
    The public constructor filters the submaps; relabellings of an
    accepted map are built trusted, with its slot system, which no
    relabelling changes."""
    for m in gen_rooted_orientable_maps(n):
        q = len(m.vertices())
        eids = [min(c) for c in m.edges()]
        for sub in _subsets(eids):
            r = len(_slot_system(m, sub)[4])
            try:
                p = ExternallyLabelledPlanarRootedMap(
                    m, tuple(range(1, q + 1)), tuple(range(1, n + 1)),
                    frozenset(sub), tuple(range(1, r + 1)))
            except ValueError:
                continue
            for vperm in itertools.permutations(range(1, q + 1)):
                for eperm in itertools.permutations(range(1, n + 1)):
                    for fperm in itertools.permutations(range(1, r + 1)):
                        yield ExternallyLabelledPlanarRootedMap._trusted(
                            m, vperm, eperm, p.submap, fperm,
                            slot_system=p.slot_system)
