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

from functools import lru_cache
from operator import attrgetter


class DisjointSets:
    """Array-backed union-find on ``0 .. n-1``.

    A union hangs the larger root under the smaller, and path halving
    only moves a parent up its own path, so every parent is at most its
    child and every root is its class minimum."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            # path halving: x skips to its grandparent
            p[x] = x = p[p[x]]
        return x

    def union(self, x: int, y: int) -> None:
        p = self.parent
        while p[x] != x:
            p[x] = x = p[p[x]]
        while p[y] != y:
            p[y] = y = p[p[y]]
        if x < y:
            p[y] = x
        elif y < x:
            p[x] = y

    def classes(self) -> list[list[int]]:
        """Equivalence classes as sorted lists, ordered by minimum element.
        Parents are smaller than their children, so one ascending pass
        meets every parent's root before the child."""
        root = self.parent[:]
        groups: dict[int, list[int]] = {}
        for x in range(len(root)):
            r = root[x] = root[root[x]]
            if r == x:
                groups[x] = [x]
            else:
                groups[r].append(x)
        return list(groups.values())


def record(cls):
    """Make ``cls`` an immutable value record whose fields are the names
    annotated in its body, in order; a class attribute of the same name is
    the field's default.

    The record gets an ``__init__`` that binds its arguments to the fields
    like a function signature and then runs the class's ``__post_init__``,
    if any; ``__eq__`` and ``__hash__`` over the field values (equal only
    to a record of the same class); a ``__repr__`` that names the fields;
    and ``__setattr__`` and ``__delattr__`` that raise AttributeError.  A
    ``__post_init__`` normalizes fields with ``object.__setattr__``.
    Unannotated class attributes are not fields: an instance may keep
    derived data under such a name, which takes no part in equality,
    hashing or ``repr``.  ``cls._fields`` is the tuple of field names.
    The methods are closures, so defining a record compiles no source.

    The record also gets the trusted path: the classmethod
    ``cls._trusted(*fields, **kept)`` takes field values in ``_fields``
    order and kept derived data by its attribute name, and stores them as
    given, neither normalized nor validated, so they must already be in
    the form the public constructor stores; fields and kept data left out
    keep their class defaults.  The bijections build their images this
    way, from data valid by construction, and the checks validate every
    image they claim.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = frozenset(n for n in names if n in cls.__dict__)
    count, required = len(names), len(names) - len(defaults)
    if defaults.intersection(names[:required]):
        raise TypeError(f"{cls.__name__}: a field without a default "
                        "follows one with a default")
    post_init = getattr(cls, "__post_init__", None)
    key = attrgetter(*names)

    def bind(args, kwargs) -> dict:
        """The fields given by ``args`` and ``kwargs``, or TypeError."""
        if len(args) > count:
            raise TypeError(f"{cls.__name__}() takes at most {count} "
                            f"arguments ({len(args)} given)")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected "
                                f"keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values "
                                f"for argument {name!r}")
            values[name] = value
        missing = [n for n in names if n not in values and n not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required "
                            f"arguments: {', '.join(missing)}")
        return values

    def __init__(self, *args, **kwargs):
        # Fields left out keep their class defaults.  Updating from a
        # whole dict, not from pairs, gives the instance a combined dict,
        # whose attributes read about three times faster on CPython 3.11.
        if kwargs or not required <= len(args) <= count:
            self.__dict__.update(bind(args, kwargs))
        else:
            self.__dict__.update(dict(zip(names, args)))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names))

    def _trusted(klass, *fields, **kept):
        # one loop adds the fields to the fresh keyword dict, cheaper than
        # a second dict; the instance takes it whole, as in __init__
        for name, value in zip(names, fields):
            kept[name] = value
        obj = object.__new__(klass)
        obj.__dict__.update(kept)
        return obj

    cls._fields = names
    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
    cls.__repr__, cls._trusted = __repr__, classmethod(_trusted)
    cls.__setattr__, cls.__delattr__ = _immutable, _immutable
    return cls


def _immutable(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete {name!r} of "
                         f"{self.__class__.__name__}")


def replace(obj, **changes):
    """A copy of the record ``obj`` with the fields in ``changes``
    replaced, built through its public constructor, which normalizes and
    validates every field."""
    fields = {name: getattr(obj, name) for name in obj._fields}
    fields.update(changes)
    return obj.__class__(**fields)


# The last ``alpha`` tuple that passed RootedMap.validate, held so that
# ``is`` can tell it again: the maps of one bijection share one pairing
# tuple, and a tuple of ints cannot change.  Equal but distinct tuples
# are checked in full.
_checked_alpha = None


def _check_permutation(perm, identity, name):
    """Raise ValueError unless ``perm`` sorts to the list ``identity``,
    which is ``list(range(n))``."""
    if sorted(perm) != identity:
        raise ValueError(f"{name} is not a permutation of "
                         f"0..{len(identity) - 1}")


@record
class RootedMap:
    """A rooted map on an orientable surface as a rotation system.

    ``sigma`` and ``alpha`` are stored as tuples mapping a half-edge index to
    its image.  ``alpha`` must be a fixed-point-free involution and the group
    generated by ``sigma`` and ``alpha`` must act transitively on half-edges.

    Derived data is computed at most once, on first use, kept on the map
    and takes no part in equality or hashing: the orbits of ``sigma``,
    ``alpha`` and ``sigma∘alpha`` (vertices, edges and faces) with their
    indexes, and the :func:`canonical_relabelling`, which validation
    computes to test connectivity.  A trusted map may be
    handed the vertex or edge orbits of another map on the same ``sigma``
    or ``alpha`` tuple, which are exactly its own.
    """

    sigma: tuple
    alpha: tuple
    root: int = 0
    _vertex_data = None
    _edge_data = None
    _face_data = None
    _relabelling = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "alpha", tuple(self.alpha))
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless the fields form a connected map.  The
        constructor runs this; so does every check on the maps a
        bijection claims to produce.  The ``alpha`` checks are not
        repeated on the very tuple that last passed them (see
        ``_checked_alpha``); every other field is checked every time."""
        sigma, alpha = self.sigma, self.alpha
        n = len(sigma)
        if n == 0 or n % 2:
            raise ValueError("half-edge count must be even and positive")
        identity = list(range(n))
        _check_permutation(sigma, identity, "sigma")
        global _checked_alpha
        if alpha is not _checked_alpha or len(alpha) != n:
            _check_permutation(alpha, identity, "alpha")
            for h, a in enumerate(alpha):
                if a == h or alpha[a] != h:
                    raise ValueError(
                        "alpha is not a fixed-point-free involution")
            if type(alpha) is tuple:
                _checked_alpha = alpha
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        # the first-visit search from the root labels every half-edge it
        # reaches, and is kept for the canonical forms
        if -1 in canonical_relabelling(self):
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


def _orbits(perm) -> tuple:
    """``(orbits, index)``: the cycles of ``perm``, each from its minimum,
    in order of minimum, and the position in ``orbits`` of every
    element's cycle."""
    index = [-1] * len(perm)
    out = []
    for start, x in enumerate(perm):
        if index[start] >= 0:
            continue
        k = len(out)
        index[start] = k
        cyc = [start]
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
    if chi % 2:
        raise ValueError("odd Euler characteristic on an orientable map")
    genus = (2 - chi) // 2
    if genus < 0:
        raise ValueError("negative genus: the map is not connected")
    return v, e, f, genus


def canonical_relabelling(m: RootedMap) -> tuple:
    """First-visit relabelling: traverse from the root, examining
    ``alpha[h]`` then ``sigma[h]`` for each visited half-edge in visit order.
    Computed once per map and kept on it."""
    if m._relabelling is not None:
        return m._relabelling
    sigma, alpha = m.sigma, m.alpha
    new = [-1] * len(sigma)
    new[m.root] = 0
    # the visit order grows while it is walked
    order = [m.root]
    for h in order:
        for nb in (alpha[h], sigma[h]):
            if new[nb] < 0:
                new[nb] = len(order)
                order.append(nb)
    new = tuple(new)
    object.__setattr__(m, "_relabelling", new)
    return new


def canonical_rotation(m: RootedMap) -> tuple:
    """``(perm, sigma, alpha)``: the :func:`canonical_relabelling` of
    ``m`` and the rotation and pairing it carries ``m`` to, whose root is
    always 0.  No relabelled map is built or traced."""
    perm = canonical_relabelling(m)
    sigma, alpha = m.sigma, m.alpha
    # order[i] is the half-edge that gets the new label i
    order = [0] * len(perm)
    for h, i in enumerate(perm):
        order[i] = h
    return (perm, tuple([perm[sigma[h]] for h in order]),
            tuple([perm[alpha[h]] for h in order]))


# ---------------------------------------------------------------------------
# Polygon gluings (general surfaces)
# ---------------------------------------------------------------------------


@record
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


def glue_polygon(g: PolygonGluing) -> tuple:
    """Identify the polygon corners according to the gluing: the vertex
    classes, a partition of the ``2n`` corners into sorted tuples ordered
    by their minimum.

    The classes of the last gluing are kept, one entry only: exhaustive
    checks meet the colorings of one gluing one after another, and a
    round trip rebuilds the gluing it started from, so nearly every call
    there repeats the one before."""
    return _glue_polygon(g.n, g.pairs, g.twists)


@lru_cache(maxsize=1)
def _glue_polygon(n: int, pairs: tuple, twists: tuple) -> tuple:
    nn = 2 * n
    ds = DisjointSets(nn)
    for (a, b), twist in zip(pairs, twists):
        glue_sides(ds, a, (a + 1) % nn, b, (b + 1) % nn, twist)
    return tuple(map(tuple, ds.classes()))


def _corner_colors(vertex_classes: tuple, colors: tuple, n: int) -> tuple:
    """The color of each of the ``2n`` corners."""
    corner_colors = [0] * (2 * n)
    for cls, color in zip(vertex_classes, colors):
        for c in cls:
            corner_colors[c] = color
    return tuple(corner_colors)


@record
class ColoredUnicellularMap:
    """A polygon gluing with vertex classes colored using every color in
    ``1..q`` and (internally) edge labels ``1..n`` on the glued pairs.

    ``colors[k]`` is the color of the k-th vertex class of the glued polygon
    (in the canonical by-minimum-corner order); ``edge_labels[k]`` labels the
    k-th pair of the gluing.  The default edge labelling is ``1..n`` in pair
    order.  The polygon is glued once, on construction: ``vertex_classes``
    and ``corner_colors`` (the color of every corner) are stored and take
    no part in equality or hashing.
    """

    gluing: PolygonGluing
    colors: tuple
    q: int
    edge_labels: tuple = None
    vertex_classes = None
    corner_colors = None

    def __post_init__(self):
        n = self.gluing.n
        labels = self.edge_labels
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "edge_labels", tuple(range(1, n + 1))
                           if labels is None else tuple(labels))
        object.__setattr__(self, "vertex_classes", glue_polygon(self.gluing))
        self.validate()
        object.__setattr__(self, "corner_colors", _corner_colors(
            self.vertex_classes, self.colors, n))

    def validate(self) -> None:
        """Raise ValueError unless the colors and edge labels fit the
        glued polygon."""
        if len(self.colors) != len(self.vertex_classes):
            raise ValueError("need one color per vertex class")
        if set(self.colors) != set(range(1, self.q + 1)):
            raise ValueError("coloring must use every color in 1..q")
        if sorted(self.edge_labels) != list(range(1, self.gluing.n + 1)):
            raise ValueError("edge labels must be a permutation of 1..n")
