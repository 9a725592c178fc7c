"""Validation coverage for objects that the generators and bijections
build unchecked.

The producers build their results through trusted constructors that skip
validation.  :func:`revalidated` rebuilds such an object through its
public constructor, which normalizes and validates every field, and
asserts that nothing changed.
"""

from __future__ import annotations

from unimaps.maps_core import replace


def revalidated(obj):
    """Assert that ``obj`` passes its public constructor unchanged, and
    return it.

    ``replace(obj)`` re-runs the constructor's normalization and
    validation; the rebuilt object must equal ``obj``, hash alike, and
    hold fields of the same types.  Kept data that takes no part in
    equality (a tree's ``up``, a submap's slot system, vertex classes:
    whatever the instance holds beyond its fields) must agree wherever
    both objects hold it.  Record fields, such as the rooted map inside a
    tree-rooted map, are revalidated the same way first.
    Raises ValueError when validation fails.
    """
    fields = obj._fields
    for name in fields:
        value = getattr(obj, name)
        if hasattr(value, "_fields"):
            revalidated(value)
    rebuilt = replace(obj)
    assert rebuilt == obj and hash(rebuilt) == hash(obj), obj
    for name in fields:
        assert type(getattr(obj, name)) is type(getattr(rebuilt, name)), \
            (name, obj)
    for name in vars(obj).keys() - set(fields):
        a, b = getattr(obj, name), getattr(rebuilt, name)
        assert a is None or b is None or a == b, (name, obj)
    return obj
