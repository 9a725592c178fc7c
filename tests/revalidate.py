"""Validation coverage for objects that the generators and bijections
build unchecked.

The producers build their results through trusted constructors that skip
validation.  :func:`revalidated` rebuilds such an object through its
public constructor, which normalizes and validates every field, and
asserts that nothing changed.
"""

from __future__ import annotations

import dataclasses
import functools


def revalidated(obj):
    """Assert that ``obj`` passes its public constructor unchanged, and
    return it.

    ``dataclasses.replace(obj)`` re-runs the constructor's normalization
    and validation; the rebuilt object must equal ``obj``, hash alike, and
    hold fields of the same types.  Kept data that takes no part in
    equality (a tree's ``up``, a submap's faces, a skeleton) must agree
    wherever both objects hold it.  Dataclass fields, such as the rooted
    map inside a tree-rooted map or the graph of a tour, are revalidated
    the same way first.  Raises ValueError when validation fails.
    """
    init, kept = _field_names(type(obj))
    for name in init:
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value):
            revalidated(value)
    rebuilt = dataclasses.replace(obj)
    assert rebuilt == obj and hash(rebuilt) == hash(obj), obj
    for name in init:
        assert type(getattr(obj, name)) is type(getattr(rebuilt, name)), \
            (name, obj)
    for name in kept:
        a, b = getattr(obj, name), getattr(rebuilt, name)
        assert a is None or b is None or a == b, (name, obj)
    return obj


@functools.cache
def _field_names(cls) -> tuple:
    """The names of the constructor's fields of ``cls``, and of the
    fields it computes itself."""
    fields = dataclasses.fields(cls)
    return (tuple(f.name for f in fields if f.init),
            tuple(f.name for f in fields if not f.init))
