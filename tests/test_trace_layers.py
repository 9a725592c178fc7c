"""The benchmark's per-layer trace wraps functions by name: every name in
``perfbench/trace_op.py``'s ``LAYERS`` must still be a function of its
module, or ``--trace 1`` silently loses that layer."""

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
