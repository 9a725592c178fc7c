"""Core data model: rooted maps on orientable surfaces and polygon gluings.

A rooted map on an orientable surface is encoded as a pair of permutations on
half-edge indices ``0 .. 2m-1``: a rotation ``sigma`` (counterclockwise order
of half-edges around each vertex) and a fixed-point-free involution ``alpha``
(the edge pairing), together with a distinguished root half-edge.  Vertices
are the orbits of ``sigma``, edges the orbits of ``alpha`` and faces the
orbits of ``h -> sigma[alpha[h]]``.

Unicellular maps on *general* (locally orientable) surfaces are encoded
instead as gluings of a rooted ``2n``-gon: a perfect matching of the polygon
sides together with a twist flag per matched pair.  An untwisted pair glues
the two sides into a cylinder, a twisted pair into a Moebius band.

Corner identification rule (:func:`glue_sides`): the polygon boundary
is oriented into a directed cycle starting at the root side, side ``k``
running from corner ``k`` to corner ``k+1`` (mod ``2n``).  Gluing sides
``i, j`` untwisted identifies corner ``i`` with corner ``j+1`` and corner
``i+1`` with corner ``j``; twisted identifies corner ``i`` with corner ``j``
and corner ``i+1`` with corner ``j+1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter


class DisjointSets:
    """Array-backed union-find on ``0 .. n-1``."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx

    def classes(self) -> list[list[int]]:
        """Equivalence classes as sorted lists, ordered by minimum element
        (each root is its class minimum, so first appearance is that
        order)."""
        groups: dict[int, list[int]] = {}
        find = self.find
        for x in range(len(self.parent)):
            groups.setdefault(find(x), []).append(x)
        return list(groups.values())


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, neither normalized nor validated; fields left out keep their
    class defaults.  Every trusted constructor builds on this."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_permutation(perm, n, name):
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"{name} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class RootedMap:
    """A rooted map on an orientable surface as a rotation system.

    ``sigma`` and ``alpha`` are stored as tuples mapping a half-edge index to
    its image.  ``alpha`` must be a fixed-point-free involution and the group
    generated by ``sigma`` and ``alpha`` must act transitively on half-edges.
    The orbits of ``sigma``, ``alpha`` and ``sigma∘alpha`` (vertices, edges
    and faces) and their indexes are computed at most once, on first use,
    and take no part in equality or hashing.
    """

    sigma: tuple
    alpha: tuple
    root: int = 0
    _vertex_data: tuple = field(default=None, init=False, repr=False,
                                compare=False)
    _edge_data: tuple = field(default=None, init=False, repr=False,
                              compare=False)
    _face_data: tuple = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "alpha", tuple(self.alpha))
        self.validate()

    @classmethod
    def _trusted(cls, sigma: tuple, alpha: tuple, root: int) -> "RootedMap":
        """A map on tuples known to form a connected rotation system;
        nothing is checked."""
        return _unchecked(cls, sigma=sigma, alpha=alpha, root=root)

    def validate(self) -> None:
        """Raise ValueError unless the fields form a connected map.  The
        constructor runs this; so does every check on the maps a
        bijection claims to produce."""
        sigma, alpha = self.sigma, self.alpha
        n = len(sigma)
        if n == 0 or n % 2:
            raise ValueError("half-edge count must be even and positive")
        _check_permutation(sigma, n, "sigma")
        _check_permutation(alpha, n, "alpha")
        for h, a in enumerate(alpha):
            if a == h or alpha[a] != h:
                raise ValueError("alpha is not a fixed-point-free involution")
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        # connectivity
        seen = [False] * n
        stack = [self.root]
        seen[self.root] = True
        count = 1
        while stack:
            h = stack.pop()
            nb = alpha[h]
            if not seen[nb]:
                seen[nb] = True
                count += 1
                stack.append(nb)
            nb = sigma[h]
            if not seen[nb]:
                seen[nb] = True
                count += 1
                stack.append(nb)
        if count != n:
            raise ValueError("map is not connected")

    @property
    def half_edge_count(self) -> int:
        return len(self.sigma)

    def _orbit_data(self, name: str, perm_of) -> tuple:
        """``(orbits, index)`` of the permutation ``perm_of(self)``, cached
        in the field ``name``."""
        data = getattr(self, name)
        if data is None:
            data = _orbits(perm_of(self))
            object.__setattr__(self, name, data)
        return data

    def vertices(self) -> list[tuple]:
        """Orbits of sigma, each cycle starting at its minimum, sorted."""
        return list(self._orbit_data("_vertex_data", _sigma_of)[0])

    def edges(self) -> list[tuple]:
        return list(self._orbit_data("_edge_data", _alpha_of)[0])

    def edge_of(self, h: int) -> int:
        """Edge identifier of half-edge ``h`` (the smaller half-edge index)."""
        return min(h, self.alpha[h])

    def vertex_index(self) -> tuple:
        """``vertex_index()[h]`` is the position of half-edge ``h``'s vertex
        in :meth:`vertices`."""
        return self._orbit_data("_vertex_data", _sigma_of)[1]

    def edge_index(self) -> tuple:
        """``edge_index()[h]`` is the position of half-edge ``h``'s edge in
        :meth:`edges`."""
        return self._orbit_data("_edge_data", _alpha_of)[1]

    def faces(self) -> list[tuple]:
        """Orbits of sigma∘alpha (``h -> sigma[alpha[h]]``), each cycle
        starting at its minimum, sorted."""
        return list(self._orbit_data("_face_data", face_permutation)[0])

    def face_index(self) -> tuple:
        """``face_index()[h]`` is the position of half-edge ``h``'s face
        in :meth:`faces`."""
        return self._orbit_data("_face_data", face_permutation)[1]

    def relabelled(self, perm) -> "RootedMap":
        """Conjugate by the half-edge relabelling ``h -> perm[h]``."""
        n = len(self.sigma)
        sigma = [0] * n
        alpha = [0] * n
        for h in range(n):
            sigma[perm[h]] = perm[self.sigma[h]]
            alpha[perm[h]] = perm[self.alpha[h]]
        return RootedMap._trusted(tuple(sigma), tuple(alpha), perm[self.root])


def _orbits(perm) -> tuple:
    """``(orbits, index)``: the cycles of ``perm``, each from its minimum,
    in order of minimum, and the position in ``orbits`` of every
    element's cycle."""
    index = [-1] * len(perm)
    out = []
    for start in range(len(perm)):
        if index[start] >= 0:
            continue
        k = len(out)
        index[start] = k
        cyc = [start]
        x = perm[start]
        while x != start:
            index[x] = k
            cyc.append(x)
            x = perm[x]
        out.append(tuple(cyc))
    return tuple(out), tuple(index)


_sigma_of = attrgetter("sigma")
_alpha_of = attrgetter("alpha")


def face_permutation(m: RootedMap) -> tuple:
    """The permutation ``h -> sigma[alpha[h]]`` whose orbits are the faces."""
    sigma = m.sigma
    return tuple(sigma[a] for a in m.alpha)


def euler_data(m: RootedMap) -> tuple:
    """Return ``(V, E, F, genus)`` with ``V - E + F = 2 - 2 genus``."""
    v = len(m.vertices())
    e = m.half_edge_count // 2
    f = len(m.faces())
    chi = v - e + f
    assert chi % 2 == 0, "odd Euler characteristic on an orientable map"
    genus = (2 - chi) // 2
    assert genus >= 0
    return v, e, f, genus


def canonical_relabelling(m: RootedMap) -> list[int]:
    """First-visit relabelling: traverse from the root, examining
    ``alpha[h]`` then ``sigma[h]`` for each visited half-edge in visit order.
    """
    n = m.half_edge_count
    new = [-1] * n
    order = [m.root]
    new[m.root] = 0
    i = 0
    while i < len(order):
        h = order[i]
        for nb in (m.alpha[h], m.sigma[h]):
            if new[nb] < 0:
                new[nb] = len(order)
                order.append(nb)
        i += 1
    return new


# ---------------------------------------------------------------------------
# Polygon gluings (general surfaces)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolygonGluing:
    """A perfect matching of the ``2n`` sides of a rooted ``2n``-gon with a
    twist flag per pair.  Side 0 is the root side."""

    n: int
    pairs: tuple  # ((a, b), ...) with a < b, sorted by a
    twists: tuple  # bool per pair

    def __post_init__(self):
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "twists", tuple(bool(t) for t in self.twists))
        self.validate()

    @classmethod
    def _trusted(cls, n: int, pairs: tuple, twists: tuple) -> "PolygonGluing":
        """A gluing from ``pairs``, each ``(a, b)`` with ``a < b`` and
        sorted by ``a``, known to match the ``2n`` sides, and a tuple of
        bools ``twists``; nothing is checked."""
        return _unchecked(cls, n=n, pairs=pairs, twists=twists)

    def validate(self) -> None:
        """Raise ValueError unless the pairs match the sides perfectly."""
        if self.n < 1:
            raise ValueError("need at least one edge")
        pairs = self.pairs
        if len(pairs) != self.n or len(self.twists) != self.n:
            raise ValueError("need exactly n pairs and n twist flags")
        seen = set()
        for a, b in pairs:
            seen.update((a, b))
        if seen != set(range(2 * self.n)) or any(a == b for a, b in pairs):
            raise ValueError("pairs do not form a perfect matching of the sides")

    @property
    def orientable(self) -> bool:
        return not any(self.twists)


@dataclass(frozen=True)
class GluedSkeleton:
    """Vertex classes of a glued polygon: a partition of the 2n corners."""

    vertex_classes: tuple  # tuple of sorted corner tuples, ordered by min
    orientable: bool

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_classes)


def glue_sides(ds: DisjointSets, a: int, a_end: int, b: int, b_end: int,
               twisted: bool) -> None:
    """Identify the corners of two glued sides running from corner ``a`` to
    ``a_end`` and from ``b`` to ``b_end``: untwisted ``a ~ b_end`` and
    ``a_end ~ b``, twisted ``a ~ b`` and ``a_end ~ b_end``.

    This is the one encoding of the corner rule; ``ds`` may hold corners or
    any labelling of them.
    """
    if twisted:
        ds.union(a, b)
        ds.union(a_end, b_end)
    else:
        ds.union(a, b_end)
        ds.union(a_end, b)


def glue_polygon(g: PolygonGluing) -> GluedSkeleton:
    """Identify the polygon corners according to the gluing."""
    nn = 2 * g.n
    ds = DisjointSets(nn)
    for (a, b), twist in zip(g.pairs, g.twists):
        glue_sides(ds, a, (a + 1) % nn, b, (b + 1) % nn, twist)
    classes = tuple(tuple(c) for c in ds.classes())
    return GluedSkeleton(classes, g.orientable)


def _corner_colors(skel: GluedSkeleton, colors: tuple, n: int) -> tuple:
    """The color of each of the ``2n`` corners."""
    corner_colors = [0] * (2 * n)
    for cls, color in zip(skel.vertex_classes, colors):
        for c in cls:
            corner_colors[c] = color
    return tuple(corner_colors)


@dataclass(frozen=True)
class ColoredUnicellularMap:
    """A polygon gluing with vertex classes colored using every color in
    ``1..q`` and (internally) edge labels ``1..n`` on the glued pairs.

    ``colors[k]`` is the color of the k-th vertex class of the skeleton (in
    the canonical by-minimum-corner order); ``edge_labels[k]`` labels the k-th
    pair of the gluing.  The default edge labelling is ``1..n`` in pair order.
    The polygon is glued once, on construction: ``skeleton`` and
    ``corner_colors`` (the color of every corner) are stored and take no
    part in equality or hashing.
    """

    gluing: PolygonGluing
    colors: tuple
    q: int
    edge_labels: tuple = None
    skeleton: GluedSkeleton = field(init=False, repr=False, compare=False)
    corner_colors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.gluing.n
        labels = self.edge_labels
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "edge_labels", tuple(range(1, n + 1))
                           if labels is None else tuple(labels))
        object.__setattr__(self, "skeleton", glue_polygon(self.gluing))
        self.validate()
        object.__setattr__(self, "corner_colors",
                           _corner_colors(self.skeleton, self.colors, n))

    @classmethod
    def _trusted(cls, gluing, skeleton, colors, q, edge_labels,
                 corner_colors=None) -> "ColoredUnicellularMap":
        """A map from fields known to be valid: ``skeleton`` is
        ``glue_polygon(gluing)``, ``colors`` and ``edge_labels`` are
        tuples; ``corner_colors`` is derived unless the caller holds it.
        Nothing is checked."""
        if corner_colors is None:
            corner_colors = _corner_colors(skeleton, colors, gluing.n)
        return _unchecked(cls, gluing=gluing, colors=colors, q=q,
                          edge_labels=edge_labels, skeleton=skeleton,
                          corner_colors=corner_colors)

    def validate(self) -> None:
        """Raise ValueError unless the colors and edge labels fit the
        glued skeleton."""
        if len(self.colors) != self.skeleton.vertex_count:
            raise ValueError("need one color per vertex class")
        if set(self.colors) != set(range(1, self.q + 1)):
            raise ValueError("coloring must use every color in 1..q")
        if sorted(self.edge_labels) != list(range(1, self.gluing.n + 1)):
            raise ValueError("edge labels must be a permutation of 1..n")

    def corner_color(self, corner: int) -> int:
        if not 0 <= corner < len(self.corner_colors):
            raise ValueError("corner out of range")
        return self.corner_colors[corner]
