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


def walk_slot_faces(sigma: dict, mate: dict) -> list:
    """Every face orbit of a slot system given as dicts, walked slot by
    slot: the next slot is ``sigma[mate[x]]`` along an edge and
    ``sigma[x]`` at a bud (``mate[x] == -1``).  Each orbit starts at its
    first slot in ``sigma`` order."""
    seen = set()
    out = []
    for start in sigma:
        if start in seen:
            continue
        orbit = [start]
        m = mate[start]
        x = sigma[m] if m >= 0 else sigma[start]
        while x != start:
            orbit.append(x)
            m = mate[x]
            x = sigma[m] if m >= 0 else sigma[x]
        seen.update(orbit)
        out.append(tuple(orbit))
    return out


def submap_slot_system(m: RootedMap, submap) -> tuple:
    """Rotation and pairing dicts that ``m`` induces on the half-edges of
    a submap given by its edge ids, keyed in increasing half-edge
    order."""
    members = {h for e in submap for h in (e, m.alpha[e])}
    slots = sorted(members)
    sigma = {}
    for h in slots:
        x = m.sigma[h]
        while x not in members:
            x = m.sigma[x]
        sigma[h] = x
    return sigma, {h: m.alpha[h] for h in slots}
