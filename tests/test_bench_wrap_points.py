"""The benchmark's traced run finds its layers by name (bench/layers.py); a
name the package no longer has silently drops that layer's metrics. This
reads the wrap-point list without installing it.

The package imports no name it does not use, save the `# noqa: F401`
re-imports, and each of those is a wrap point: the name the traced run
wraps in that module."""

import ast
import glob
import importlib
import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SRC = os.path.join(os.path.dirname(BENCH), "src", "b4nls")


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


def imported_names(source: str):
    """(name, re-import) for each name a module's imports bind, __future__
    aside; a re-import is an import statement marked `# noqa: F401`."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], noqa


def test_every_import_is_used_or_a_wrapped_re_import(monkeypatch):
    wrapped = {(point.module, point.attr) for point in load_wrap_points(monkeypatch)}
    unused, unwrapped = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        module = "b4nls." + os.path.basename(path)[:-3]
        with open(path) as fh:
            source = fh.read()
        used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
        for name, noqa in imported_names(source):
            if noqa and (module, name) not in wrapped:
                unwrapped.append(f"{module}.{name}")
            elif not noqa and name not in used:
                unused.append(f"{module}.{name}")
    assert unused == [], "imported but unused: delete the import"
    assert unwrapped == [], "a # noqa: F401 re-import that no bench wrap point names"


def test_a_traced_bench_run_counts_its_layers(monkeypatch, tmp_path):
    # the counters read call arguments by position (HumOperator.__init__'s
    # spec, evolve_damped's T and cfg), so a signature change shows here,
    # not only in a traced bench run: control-linear and stabilize at seed 0
    points = load_wrap_points(monkeypatch)
    spec = importlib.util.spec_from_file_location("_bench_tracer", os.path.join(BENCH, "tracer.py"))
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # for its dataclass
    spec.loader.exec_module(tracer_module)
    from b4nls import cli

    tracer = tracer_module.Tracer(points)
    tracer.install()
    try:
        for kind in ("control-linear", "stabilize"):
            with open(os.path.join(BENCH, "configs", f"{kind}.ini")) as fh:
                (tmp_path / f"{kind}.ini").write_text(fh.read().replace("{seed}", "0"))
            cli.run_config(str(tmp_path / f"{kind}.ini"), str(tmp_path / kind))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counters["hum.assembly_bytes"] == 2 * 16 * 32**4
    # stabilize's 200 steps; the linear certificate sums its march in closed form
    assert tracer.counters["dynamics.steps"] == 200
