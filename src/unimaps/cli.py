"""Command-line front end: census generation, formula verification,
bijection application, and fiber listings.

All output on standard output is byte-deterministic for a fixed input
and version: JSON is emitted with sorted keys and canonical separators,
counts as decimal strings.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error.  A process started as ``unimaps`` or
``python -m unimaps.cli`` runs :func:`run`, which flushes both standard
streams and ends with ``os._exit``, skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from math import factorial

# Only the check registry is imported here: each command and parser imports
# the layers it runs, so a command pays the start-up of those alone.
from .checks import (
    CHECKS,
    label_degrees,
    map_payload,
    tree_payload,
)

SCHEMA = 1


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at character {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Input literals


def _split_fields(text: str, known: tuple, required: tuple) -> dict:
    """Split ``key=value; key=value`` into a dict, tracking positions.
    Every key must be one of ``known`` and appear at most once, and every
    key of ``required`` must appear."""
    fields = {}
    pos = 0
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if stripped:
            start = pos + chunk.index(stripped[0])
            if "=" not in stripped:
                raise ParseError(f"expected key=value, got {stripped!r}",
                                 start)
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ParseError(f"unknown field {key!r}", start)
            if key in fields:
                raise ParseError(f"repeated field {key!r}", start)
            fields[key] = (value.strip(), pos)
        pos += len(chunk) + 1
    for key in required:
        if key not in fields:
            raise ParseError(f"missing field {key!r}", 0)
    return fields


def _int_field(fields: dict, key: str) -> int:
    """The integer value of the field ``key``, which is present."""
    value, pos = fields[key]
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}", pos)


def _int_tuple(value: str, position: int) -> tuple:
    inner = value.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    try:
        return tuple(int(tok) for tok in inner.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"expected integers, got {value!r}", position)


def parse_gluing(text: str) -> ColoredUnicellularMap:
    """Parse ``n=<int>; pairs=(a b[!], ...)`` with optional ``colors=``
    and ``labels=`` fields; ``!`` marks a twisted pair."""
    from .maps_core import ColoredUnicellularMap, PolygonGluing, \
        glue_polygon, replace
    fields = _split_fields(text, ("n", "pairs", "colors", "labels"),
                           ("n", "pairs"))
    n = _int_field(fields, "n")
    value, pos = fields["pairs"]
    inner = value.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ParseError("pairs must be parenthesized", pos)
    pairs, twists = [], []
    for part in inner[1:-1].split(","):
        part = part.strip()
        if not part:
            continue
        twist = part.endswith("!")
        toks = part[:-1].split() if twist else part.split()
        if len(toks) != 2:
            raise ParseError(f"pair needs two sides, got {part!r}", pos)
        try:
            pairs.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ParseError(f"pair sides must be integers: {part!r}", pos)
        twists.append(twist)
    try:
        gluing = PolygonGluing(n, tuple(pairs), tuple(twists))
    except ValueError as exc:
        raise ParseError(str(exc), pos)
    v = len(glue_polygon(gluing))
    if "colors" in fields:
        colors = _int_tuple(*fields["colors"])
    else:
        colors = tuple(range(1, v + 1))
    labels = _int_tuple(*fields["labels"]) if "labels" in fields else None
    # the colors first, so that each error points at its own field
    try:
        u = ColoredUnicellularMap(gluing, colors, max(colors, default=0))
    except ValueError as exc:
        raise ParseError(str(exc), fields.get("colors", ("", 0))[1])
    if labels is None:
        return u
    try:
        return replace(u, edge_labels=labels)
    except ValueError as exc:
        raise ParseError(str(exc), fields["labels"][1])


def parse_rotation(text: str):
    """Parse ``sigma=(...); alpha=(...); root=k`` with optional
    ``outer=k``; returns a RootedMap or, with ``outer``, a PlaneMap."""
    from .maps_core import RootedMap
    from .planar_closure import PlaneMap
    fields = _split_fields(text, ("sigma", "alpha", "root", "outer"),
                           ("sigma", "alpha"))
    sigma = _int_tuple(*fields["sigma"])
    alpha = _int_tuple(*fields["alpha"])
    root = _int_field(fields, "root") if "root" in fields else 0
    outer = _int_field(fields, "outer") if "outer" in fields else None
    try:
        m = RootedMap(sigma, alpha, root)
        if outer is not None:
            return PlaneMap(m, outer)
        return m
    except ValueError as exc:
        raise ParseError(str(exc), fields["sigma"][1])


def _slot_set(fields: dict, key: str) -> frozenset:
    """The slots of the field ``key``, none when it is absent; a slot
    listed twice is an error."""
    value, pos = fields.get(key, ("", 0))
    slots = _int_tuple(value, pos)
    if len(set(slots)) != len(slots):
        raise ParseError(f"{key} lists a slot twice", pos)
    return frozenset(slots)


def parse_tree(text: str) -> NearEulerianTree:
    """Parse ``sigma=(...); mate=(...); out=(...); tails=(...)`` where
    ``mate`` is -1 on bud slots and ``out`` and ``tails`` list each slot
    at most once."""
    from .planar_closure import NearEulerianTree
    fields = _split_fields(text, ("sigma", "mate", "out", "tails", "root"),
                           ("sigma", "mate"))
    sigma = _int_tuple(*fields["sigma"])
    mate = _int_tuple(*fields["mate"])
    out = _slot_set(fields, "out")
    tails = _slot_set(fields, "tails")
    root = _int_field(fields, "root") if "root" in fields else 0
    try:
        return NearEulerianTree(sigma, mate, out, tails, root)
    except ValueError as exc:
        raise ParseError(str(exc), fields["sigma"][1])


# ---------------------------------------------------------------------------
# JSON emission


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _table_payload(family: str, bounds: dict, table: Counter) -> dict:
    return {
        "schema": SCHEMA,
        "family": family,
        "bounds": bounds,
        "entries": [[list(k), str(v)] for k, v in sorted(table.items()) if v],
        "total": str(table.total()),
    }


def _emit_table(payload: dict, fmt: str) -> None:
    if fmt == "json":
        _emit(payload)
        return
    width = max(len(k) for k, _ in payload["entries"]) if payload["entries"] \
        else 0
    header = ",".join(f"key{i}" for i in range(width)) + ",count"
    sys.stdout.write(header + "\n")
    for key, count in payload["entries"]:
        sys.stdout.write(",".join(str(x) for x in key) + "," + count + "\n")


# ---------------------------------------------------------------------------
# census


def _cached(cache_dir, name, params, build):
    if cache_dir is None:
        return build()
    from .cache import load_census, store_census
    table = load_census(cache_dir, name, params)
    if table is None:
        table = build()
        try:
            store_census(cache_dir, name, params, table)
        except OSError as exc:
            raise SystemExit2(f"cannot write the cache {cache_dir!r}: {exc}")
    return table


def _planar_census(cache_dir, max_edges):
    def build():
        # a cache hit loads no enumerator
        from .enumeration import planar_census
        return planar_census(max_edges)
    return _cached(cache_dir, "planar-pqr", {"max_edges": max_edges}, build)


def cmd_census(args) -> int:
    from .enumeration import (
        gen_rooted_orientable_maps,
        spanning_tree_count,
        vertex_profile,
    )
    family = args.family
    cache_dir = args.cache
    if args.threads < 1:
        raise SystemExit2(f"--threads must be at least 1, got {args.threads}")
    # planar-pqr reads --max-edges, the other families --n, and no other
    option = "--max-edges" if family == "planar-pqr" else "--n"
    given = {"--n": args.n, "--max-edges": args.max_edges}
    for other, value in given.items():
        if value is not None and other != option:
            raise SystemExit2(f"{family} does not take {other}")
    bound = given[option]
    if bound is None:
        raise SystemExit2(f"family requires {option}")
    if bound < 1:
        raise SystemExit2(f"{option} must be at least 1, got {bound}")
    if family in ("unicellular-orientable", "unicellular-general"):
        orientable = family == "unicellular-orientable"

        def build():
            # the census of n edges is the last row of the one-pass table
            return Counter({key: count for key, count in
                            vertex_profile(args.n, orientable).items()
                            if key[0] == args.n})
        table = _cached(cache_dir, family, {"n": args.n}, build)
        bounds = {"n": args.n}
    elif family == "planar-pqr":
        table = _planar_census(cache_dir, args.max_edges)
        bounds = {"max_edges": args.max_edges}
    else:  # tree-rooted; argparse restricts the choices

        def build():
            # q! vertex labellings of each rooted map with q vertices, times
            # its spanning trees
            trees = Counter()
            for m in gen_rooted_orientable_maps(args.n):
                trees[len(m.vertices())] += spanning_tree_count(m)
            return Counter({(args.n, q): factorial(q) * count
                            for q, count in trees.items()})
        table = _cached(cache_dir, family, {"n": args.n}, build)
        bounds = {"n": args.n}
    _emit_table(_table_payload(family, bounds, table), args.format)
    return 0


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    check = CHECKS[args.check]
    bound = args.bound if args.bound is not None else check.default
    start = time.monotonic()
    counterexample, instances, reach = check.run(
        bound, lambda max_edges: _planar_census(args.cache, max_edges))
    elapsed = time.monotonic() - start
    if instances < 1:
        raise SystemExit2(f"{args.check} examined nothing at --bound "
                          f"{bound}")
    report = {
        "schema": SCHEMA,
        "check": args.check,
        "bounds": {check.bound_name: bound},
        "verdict": "pass" if counterexample is None else "fail",
    }
    if counterexample is not None:
        report["counterexample"] = counterexample
    _emit(report)
    # timing and coverage are informational only and go to stderr so that
    # standard output stays byte-deterministic
    print(f"{args.check}: {report['verdict']} in {elapsed:.2f}s, "
          f"{instances} {check.unit} to {check.bound_name} = {reach}",
          file=sys.stderr)
    return 0 if counterexample is None else 1


# ---------------------------------------------------------------------------
# fiber and bijection


def _psi_element_payload(p, corners: Counter) -> dict:
    """A psi fiber element, with property (**): the vertex labelled i
    has as many half-edges as the fiber's map has corners colored i, as
    tallied in ``corners``."""
    degrees = label_degrees(p)
    return {
        "map": map_payload(p.m),
        "vertex_labels": list(p.vertex_labels),
        "edge_labels": list(p.edge_labels),
        "submap": sorted(p.submap),
        "face_labels": list(p.face_labels),
        "w": p.external_weight,
        "degrees_by_label": {str(label): degree
                             for label, degree in degrees.items()},
        "degree_certificate_ok": degrees == corners,
    }


def _upsilon_element_payload(t) -> dict:
    return {
        "map": map_payload(t.m),
        "vertex_labels": list(t.vertex_labels),
        "edge_labels": list(t.edge_labels),
        "tree": sorted(t.tree),
        "orientation": sorted(t.orientation),
        "w": t.external_weight,
    }


def cmd_fiber(args) -> int:
    from .bijections import psi_fiber, upsilon_fiber
    u = parse_gluing(args.map)
    if args.kind == "psi":
        corners = Counter(u.corner_colors)
        elements = [_psi_element_payload(p, corners) for p in psi_fiber(u)]
    else:
        elements = [_upsilon_element_payload(t) for t in upsilon_fiber(u)]
    _emit({
        "schema": SCHEMA,
        "kind": args.kind,
        "input": {"n": u.gluing.n, "pairs": [list(p) for p in u.gluing.pairs],
                  "twists": [int(t) for t in u.gluing.twists],
                  "colors": list(u.colors),
                  "labels": list(u.edge_labels)},
        "size": len(elements),
        "w": elements[0]["w"] if elements else 0,
        "elements": elements,
    })
    return 0


def cmd_bijection(args) -> int:
    if args.name == "phi":
        from .bijections import phi
        u = parse_gluing(args.input)
        if not u.gluing.orientable:
            raise SystemExit2("phi needs an orientable gluing")
        _emit({"schema": SCHEMA, "image": _upsilon_element_payload(phi(u))})
    elif args.name == "gamma":
        from .planar_closure import closure_gamma
        t = parse_tree(args.input)
        p = closure_gamma(t)
        _emit({"schema": SCHEMA,
               "image": dict(map_payload(p.m), outer=p.outer)})
    else:  # delta
        from .planar_closure import PlaneMap, opening_delta
        p = parse_rotation(args.input)
        if not isinstance(p, PlaneMap):
            raise SystemExit2("delta needs an outer= field")
        _emit({"schema": SCHEMA, "image": tree_payload(opening_delta(p))})
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimaps",
        description="Exact counting and bijections for one-face maps")
    # an empty $UNIMAPS_CACHE means no cache, as an unset one does
    parser.add_argument("--cache",
                        default=os.environ.get("UNIMAPS_CACHE") or None,
                        help="directory for persisted census tables "
                        "(default: $UNIMAPS_CACHE)")
    sub = parser.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", help="emit a counting table")
    census.add_argument("family", choices=[
        "unicellular-orientable", "unicellular-general", "planar-pqr",
        "tree-rooted"])
    census.add_argument("--n", type=int, default=None)
    census.add_argument("--max-edges", type=int, default=None)
    census.add_argument("--format", choices=["json", "csv"], default="json")
    census.add_argument("--threads", type=int, default=1,
                        help="has no effect; still accepted so that "
                        "existing command lines parse")
    census.set_defaults(func=cmd_census)

    verify = sub.add_parser("verify", help="run a named identity check")
    verify.add_argument("check", choices=sorted(CHECKS))
    verify.add_argument("--bound", type=int, default=None,
                        help="check-specific size bound (defaults are "
                        "desk scale)")
    verify.set_defaults(func=cmd_verify)

    fiber = sub.add_parser("fiber", help="list the preimages of a map")
    fiber.add_argument("map", help="gluing literal, e.g. "
                       "'n=1; pairs=(0 1!)'")
    fiber.add_argument("--kind", choices=["psi", "upsilon"], default="psi")
    fiber.set_defaults(func=cmd_fiber)

    bijection = sub.add_parser("bijection",
                               help="apply a bijection to one object")
    bijection.add_argument("name", choices=["phi", "gamma", "delta"])
    bijection.add_argument("input")
    bijection.set_defaults(func=cmd_bijection)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def run() -> None:
    """The process entry point: :func:`main`, then ``os._exit`` with its
    status once stdout and stderr are flushed, which skips the
    interpreter's teardown.  That loses nothing: the package registers
    no atexit handler and starts no thread, and :func:`main` reaps its
    forked workers and closes the cache file before it returns.  An
    exception from :func:`main` propagates to the interpreter, and so
    does a flush that fails: ``sys.exit`` leaves its report to the
    interpreter's own last flush (a broken pipe exits 120)."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":  # pragma: no cover
    run()
