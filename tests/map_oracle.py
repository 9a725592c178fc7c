"""Half-edge helpers that only the tests use, kept here as oracles."""

from __future__ import annotations

from unimaps.maps_core import ColoredUnicellularMap, RootedMap


def relabelled(m: RootedMap, perm) -> RootedMap:
    """``m`` conjugated by the half-edge relabelling ``h -> perm[h]``."""
    n = len(m.sigma)
    sigma = [0] * n
    alpha = [0] * n
    for h in range(n):
        sigma[perm[h]] = perm[m.sigma[h]]
        alpha[perm[h]] = perm[m.alpha[h]]
    return RootedMap._trusted(tuple(sigma), tuple(alpha), perm[m.root])


def edge_of(m: RootedMap, h: int) -> int:
    """Edge identifier of half-edge ``h`` (the smaller half-edge index)."""
    return min(h, m.alpha[h])


def corner_color(u: ColoredUnicellularMap, corner: int) -> int:
    """The color of polygon corner ``corner`` of ``u``."""
    if not 0 <= corner < len(u.corner_colors):
        raise ValueError("corner out of range")
    return u.corner_colors[corner]
