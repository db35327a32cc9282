"""The benchmark's traced run finds its layers by name (bench/layers.py); a
name the package no longer has silently drops that layer's metrics. This
reads the wrap-point list without installing it."""

import importlib
import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_wrap_points(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # layers.py imports tracer.py beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    had_tracer = "tracer" in sys.modules
    spec = importlib.util.spec_from_file_location("_bench_layers", os.path.join(BENCH, "layers.py"))
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module.WRAP_POINTS


def test_every_bench_wrap_point_resolves(monkeypatch):
    points = load_wrap_points(monkeypatch)
    assert points
    unresolved = []
    for point in points:
        owner = importlib.import_module(point.module)
        for part in point.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(point.name)
    assert unresolved == []
