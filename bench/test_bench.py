"""Tests of the benchmark itself (not part of tier-1):

    python3 -m pytest -q bench
"""

import copy
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from b4nls import cli  # noqa: E402
from b4nls.hum import ContractionFailure  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, WrapPoint, self_times  # noqa: E402


def test_self_times_subtract_direct_children():
    # root [0,10] holds a [1,4] (which holds a1 [2,3]) and b [5,9]
    starts, ends, parents = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0]
    st = self_times(starts, ends, parents)
    assert st == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(st) == pytest.approx(10.0)


def test_self_times_count_covered_time_once():
    # overlapping children cover [1,6] once; a child running past its
    # parent's end only covers up to that end
    assert self_times([0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])[0] == pytest.approx(5.0)
    assert self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])[0] == pytest.approx(8.0)


def test_tracer_layers_missing_points_and_restore(monkeypatch):
    mod = types.ModuleType("fake_layers")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    original = mod.inner
    tracer = Tracer([
        WrapPoint("fake_layers", "outer", "top"),
        WrapPoint("fake_layers", "inner", "low",
                  count=lambda args, kwargs, result: {"low.items": args[0]}),
        WrapPoint("fake_layers", "gone", "low"),
    ])
    tracer.install()
    root = tracer.open("root", "bench")
    try:
        assert mod.outer(3) == 8
    finally:
        tracer.close(root)
        tracer.uninstall()
    assert mod.inner is original
    assert tracer.missing == ["fake_layers.gone"]
    assert tracer.names == ["root", "fake_layers.outer", "fake_layers.inner"]
    assert tracer.parents == [-1, 0, 1]
    assert tracer.calls["fake_layers.inner"] == 1
    assert tracer.counters["low.items"] == 3
    layers = tracer.layer_self_times()
    assert set(layers) == {"bench", "top", "low"}
    assert sum(layers.values()) == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_corrupted_reference_and_raised_errors_count_as_failures(tmp_path):
    refs = workloads.load_references()
    wl = workloads.Workload("survey", 5, str(tmp_path), refs,
                            kinds=("observability-sweep", "bourgain-probe"))
    clean = wl.run_pass(cli.run_config)
    assert clean.attempted == 2 and clean.failures == []

    bad = copy.deepcopy(refs)
    bad["fixed"]["observability-sweep"]["h=0.25.min_eig"] *= 1.0 + 1e-6
    wl.refs = bad
    corrupted = wl.run_pass(cli.run_config)
    assert len(corrupted.failures) == 1
    assert "min_eig" in corrupted.failures[0]

    def raising(path, output):
        raise ContractionFailure(3.8)

    raised = wl.run_pass(raising)
    assert raised.attempted == 2 and len(raised.failures) == 2
    assert all("ContractionFailure" in f for f in raised.failures)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_config_templates_pass_validate(workload, tmp_path, capsys):
    for kind, path in workloads.render_configs(workload, 7, str(tmp_path)).items():
        assert cli.main(["validate", path]) == 0
        assert f"ok: {kind} (seed 7)" in capsys.readouterr().out
