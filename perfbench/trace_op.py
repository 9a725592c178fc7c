"""Run one unimaps op in-process with per-layer spans.

    python3 perfbench/trace_op.py OUT.json ARG...

Imports ``unimaps.cli`` (timing the import), wraps the layer functions
listed in ``LAYERS``, runs ``unimaps.cli.main([ARG...])`` with stdout
captured, and writes the exit code, the stdout, the import time and every
span to OUT.json.  Spans stay in memory until the op ends.

A span is ``[name, start, end, busy, parent, amount]``: ``parent`` is the
index of the enclosing span (-1 for none), ``busy`` the time covered,
which is ``end - start`` for a call and the summed ``next()`` time for a
generator (one span per generator and consumer span), and ``amount`` the
work done, as ``AMOUNT`` defines it.  Wrappers replace every
binding of a wrapped function in the package's modules, including names
bound with ``from ... import``.  Pool workers forked by ``--threads`` run
outside the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import os
import sys
import time

# module -> public functions that form the layer's boundary
LAYERS = {
    "maps_core": ["glue_polygon"],
    "enumeration": ["vertex_profile", "gen_unicellular",
                    "gen_rooted_orientable_maps", "planar_census"],
    "tours": ["xi", "xi_inverse"],
    "bijections": ["phi", "phi_inverse", "psi", "psi_fiber",
                   "upsilon_fiber"],
    "planar_closure": ["gen_near_eulerian_trees", "gen_plane_maps",
                       "closure_gamma", "opening_delta", "close_slots",
                       "open_slots"],
    "formulas": ["ledoux_check", "hz_recurrence_check", "u_formula",
                 "u_hat_formula", "t_formula", "jackson_formula"],
    "series": ["p_series", "q_from_p", "check_algebraic_P", "check_q_pde",
               "check_a_combination", "check_rec_hp", "check_qfd"],
    "cache": ["load_census", "store_census"],
    "cli": ["main"],
}


# layer function -> (name, reader) of the amount of work one call does,
# read from its result and kept in the span; generators count their items
AMOUNT = {
    "enumeration.vertex_profile": ("gluings", lambda table: table.total()),
    # every planar map of the census except the single-vertex map at (1, 1)
    "enumeration.planar_census": ("kept", lambda table: table.total() - 1),
    "enumeration.gen_rooted_orientable_maps": ("maps", None),
    "planar_closure.gen_near_eulerian_trees": ("trees", None),
    "bijections.psi_fiber": ("elements", len),
    "series.p_series": ("terms", lambda series: len(series.nonzero_terms())),
    "cache.load_census": ("hits", lambda table: int(table is not None)),
    "cache.store_census": ("bytes", os.path.getsize),
}


class Tracer:
    """Collects spans ``[name, start, end, busy, parent, amount]``."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        amount = AMOUNT.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2], span[3] = start, end, end - start
            if amount is not None:
                span[5] = amount(result)
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TracedGenerator(self, name, fn(*args, **kwargs))
        return wrapper


class _TracedGenerator:
    """Iterator proxy that times each ``next()``; its spans count the
    items yielded."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, inner
        self.span_of_parent = {}

    def __iter__(self):
        return self

    def __next__(self):
        spans, stack = self.tracer.spans, self.tracer.stack
        parent = stack[-1]
        index = self.span_of_parent.get(parent)
        start = time.perf_counter()
        if index is None:
            index = self.span_of_parent[parent] = len(spans)
            spans.append([self.name, start, start, 0.0, parent, 0])
        span = spans[index]
        stack.append(index)
        try:
            item = next(self.inner)
        finally:
            end = time.perf_counter()
            stack.pop()
            span[2] = end
            span[3] += end - start
        span[5] += 1
        return item


def install(tracer: Tracer) -> None:
    """Replace every binding of each layer function in every module."""
    modules = {m: importlib.import_module(f"unimaps.{m}") for m in LAYERS}
    wrapped = {}
    for short, names in LAYERS.items():
        for name in names:
            fn = getattr(modules[short], name)
            wrapped[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])


def main(argv) -> int:
    out_path, op = argv[0], argv[1:]
    start = time.perf_counter()
    import unimaps.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        rc = unimaps.cli.main(op)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout = real_stdout
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "stdout": captured.getvalue(),
                   "import_s": import_s, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
