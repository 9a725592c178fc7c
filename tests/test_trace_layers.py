"""The benchmark's per-layer trace wraps functions by name: every name in
``perfbench/trace_op.py``'s ``LAYERS`` must still be a function of its
module, or ``--trace 1`` silently loses that layer, and every ``AMOUNT``
reader must still read the result its layer returns."""

import importlib
import importlib.util
import inspect
import os
import sys

TRACE_OP = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "trace_op.py")


def load_trace_op(monkeypatch):
    """Import ``trace_op.py`` from its file without writing bytecode next
    to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("trace_op", TRACE_OP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_names_a_function_of_its_module(monkeypatch):
    trace_op = load_trace_op(monkeypatch)
    layers = trace_op.LAYERS
    assert layers
    for key in trace_op.AMOUNT:
        short, name = key.split(".")
        assert name in layers[short], key
    for short, names in layers.items():
        module = importlib.import_module(f"unimaps.{short}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{short}.{name}"
            assert fn.__module__ == module.__name__, f"{short}.{name}"


def test_every_amount_reader_reads_a_real_result(monkeypatch, tmp_path):
    """Each reader in ``AMOUNT`` runs on what its layer really returns, so
    a change of result type cannot silently break ``--trace 1``."""
    from unimaps.bijections import psi_fiber
    from unimaps.cache import load_census, store_census
    from unimaps.enumeration import planar_census, vertex_profile
    from unimaps.maps_core import ColoredUnicellularMap, PolygonGluing
    from unimaps.series import p_series

    trace_op = load_trace_op(monkeypatch)
    readers = {key: reader for key, (_, reader) in trace_op.AMOUNT.items()
               if reader is not None}
    census = planar_census(3)
    path = store_census(str(tmp_path), "planar-pqr", {"max_edges": 3},
                        census)
    u = ColoredUnicellularMap(
        PolygonGluing(2, ((0, 1), (2, 3)), (True, False)), (1, 2), 2)
    # one result of each layer and the amount of work it stands for
    cases = {
        # 2 + 4 * 3 + 8 * 15 gluings with at most three edges
        "enumeration.vertex_profile": (vertex_profile(3), 134),
        # 2 + 9 + 54 planar maps with one to three edges
        "enumeration.planar_census": (census, 65),
        "cache.store_census": (path, os.path.getsize(path)),
        "series.p_series": (p_series(census, 5), 10),
        "bijections.psi_fiber": (psi_fiber(u), 2),
    }
    assert set(cases) | {"cache.load_census"} == set(readers)
    for key, (result, expected) in cases.items():
        assert readers[key](result) == expected, key
    load = readers["cache.load_census"]
    assert load(load_census(str(tmp_path), "planar-pqr",
                            {"max_edges": 3})) == 1
    assert load(load_census(str(tmp_path), "planar-pqr",
                            {"max_edges": 4})) == 0
