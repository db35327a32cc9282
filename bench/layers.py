"""Layers of b4nls, the wrap points that trace them, and the per-layer metrics.

Names bound with ``from ... import`` are wrapped where they are looked up:
``cli.evolve_nonlinear`` is the name cli calls, ``hum.evolve_nonlinear`` the
one hum calls. The cli names of layer entry functions are wrapped so that a
layer's own Python time is charged to that layer, not to cli.
"""

from __future__ import annotations

from tracer import Tracer, WrapPoint

SPECTRAL = "numpy.fft"
FFTS = tuple(f"{SPECTRAL}.{f}" for f in ("fftn", "ifftn", "fft", "ifft"))
SHIFTS = tuple(f"{SPECTRAL}.{f}" for f in ("fftshift", "ifftshift"))
EVOLVES = ("b4nls.cli.evolve_nonlinear", "b4nls.cli.evolve_damped", "b4nls.hum.evolve_nonlinear")
LEDGER = ("b4nls.dynamics.energy", "b4nls.dynamics.mass", "b4nls.cli.energy", "b4nls.cli.mass")


def _arg(args, kwargs, pos, name):
    """A call's argument by its position or name in the public signature."""
    return args[pos] if len(args) > pos else kwargs[name]


def _fft_bytes(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return {"spectral.fft_bytes": getattr(a, "nbytes", 0) + result.nbytes}


def _steps(t_pos):
    """Steps of an evolve call, whose T and cfg sit at t_pos and t_pos + 1."""
    def count(args, kwargs, result):
        T = _arg(args, kwargs, t_pos, "T")
        dt = _arg(args, kwargs, t_pos + 1, "cfg").dt
        return {"dynamics.steps": max(1, round(T / dt))}
    return count


def _iters(key, pos):
    return lambda args, kwargs, result: {key: result[pos]}


def _assembly(args, kwargs, result):
    n = _arg(args, kwargs, 1, "spec").n_modes  # args[0] is the instance
    return {"hum.assembly_bytes": 2 * 16 * n * n}  # A and Lambda, complex128


def _fixedpoint(args, kwargs, result):
    return {"hum.fixedpoint_iters": len(result.fixedpoint_diffs)}


def _pairs(args, kwargs, result):
    return {"resonance.table_pairs": _arg(args, kwargs, 0, "K") * _arg(args, kwargs, 1, "L")}


_w = WrapPoint
WRAP_POINTS = [
    *(_w(SPECTRAL, f, "spectral", count=_fft_bytes) for f in ("fftn", "ifftn", "fft", "ifft")),
    *(_w(SPECTRAL, f, "spectral") for f in ("fftshift", "ifftshift")),
    _w("b4nls.cli", "run_config", "cli"),
    _w("b4nls.cli", "validate_config", "cli"),
    _w("b4nls.cli", "save_trace", "cli"),
    _w("b4nls.cli", "_write_csv", "cli"),
    _w("b4nls.cli", "evolve_nonlinear", "dynamics", count=_steps(1)),
    _w("b4nls.cli", "evolve_damped", "dynamics", count=_steps(2)),
    _w("b4nls.cli", "audit_dissipation", "dynamics"),
    _w("b4nls.cli", "fit_decay_rate", "dynamics"),
    _w("b4nls.cli", "energy", "dynamics"),
    _w("b4nls.cli", "mass", "dynamics"),
    _w("b4nls.cli", "solve_linear_control", "hum"),
    _w("b4nls.cli", "solve_nonlinear_control", "hum", count=_fixedpoint),
    _w("b4nls.cli", "gramian_sweep", "observability"),
    _w("b4nls.cli", "torus_gcc_time", "gcc"),
    _w("b4nls.cli", "counting_sweep", "resonance"),
    _w("b4nls.cli", "duhamel_gain_probe", "bourgain"),
    _w("b4nls.cli", "trilinear_constant_probe", "bourgain"),
    _w("b4nls.dynamics", "energy", "dynamics"),
    _w("b4nls.dynamics", "mass", "dynamics"),
    _w("b4nls.dynamics", "cg_hermitian", "linalg", count=_iters("dynamics.inner_cg_iters", 1)),
    _w("b4nls.hum", "HumOperator.__init__", "hum", count=_assembly),
    _w("b4nls.hum", "multiplication_matrix", "hum"),
    _w("b4nls.hum", "time_average_kernel", "hum"),
    _w("b4nls.hum", "HumOperator.control_weight", "hum"),
    _w("b4nls.hum", "cg_hermitian", "linalg", count=_iters("hum.cg_iters", 1)),
    _w("b4nls.hum", "evolve_nonlinear", "dynamics", count=_steps(1)),
    _w("b4nls.observability", "lanczos_extreme", "linalg", count=_iters("linalg.lanczos_iters", 2)),
    _w("b4nls.observability", "BandGramian.apply", "observability"),
    _w("b4nls.gcc", "first_hit_time", "gcc"),
    _w("b4nls.gcc", "contains", "gcc", span=False),
    _w("b4nls.resonance", "build_table", "resonance", count=_pairs),
    _w("b4nls.bourgain", "xsb_norm", "bourgain"),
]
LAYERS = ("bench", "cli", "spectral", "dynamics", "linalg", "hum", "observability",
          "gcc", "resonance", "bourgain")

# name -> (unit, source kind, wrap names the value comes from)
#   calls: calls of the wrap points; time: their inclusive span time;
#   counter: a counter the wrap points add to (the metric name itself).
METRICS = {
    "spectral.fft_calls": ("count", "calls", FFTS),
    "spectral.fft_s": ("s", "time", FFTS),
    "spectral.fft_bytes": ("B", "counter", FFTS),
    "spectral.shift_calls": ("count", "calls", SHIFTS),
    "spectral.shift_s": ("s", "time", SHIFTS),
    "dynamics.evolve_calls": ("count", "calls", EVOLVES),
    "dynamics.steps": ("count", "counter", EVOLVES),
    "dynamics.ledger_calls": ("count", "calls", LEDGER),
    "dynamics.ledger_s": ("s", "time", LEDGER),
    "dynamics.inner_cg_solves": ("count", "calls", ("b4nls.dynamics.cg_hermitian",)),
    "dynamics.inner_cg_iters": ("count", "counter", ("b4nls.dynamics.cg_hermitian",)),
    "dynamics.inner_cg_s": ("s", "time", ("b4nls.dynamics.cg_hermitian",)),
    "linalg.lanczos_calls": ("count", "calls", ("b4nls.observability.lanczos_extreme",)),
    "linalg.lanczos_iters": ("count", "counter", ("b4nls.observability.lanczos_extreme",)),
    "linalg.lanczos_s": ("s", "time", ("b4nls.observability.lanczos_extreme",)),
    "hum.assembly_s": ("s", "time", ("b4nls.hum.HumOperator.__init__",)),
    "hum.assembly_bytes": ("B", "counter", ("b4nls.hum.HumOperator.__init__",)),
    "hum.control_weight_calls": ("count", "calls", ("b4nls.hum.HumOperator.control_weight",)),
    "hum.control_weight_s": ("s", "time", ("b4nls.hum.HumOperator.control_weight",)),
    "hum.cg_solves": ("count", "calls", ("b4nls.hum.cg_hermitian",)),
    "hum.cg_iters": ("count", "counter", ("b4nls.hum.cg_hermitian",)),
    "hum.cg_s": ("s", "time", ("b4nls.hum.cg_hermitian",)),
    "hum.evolve_s": ("s", "time", ("b4nls.hum.evolve_nonlinear",)),
    "hum.fixedpoint_iters": ("count", "counter", ("b4nls.cli.solve_nonlinear_control",)),
    "observability.gramian_apply_calls": ("count", "calls", ("b4nls.observability.BandGramian.apply",)),
    "observability.gramian_apply_s": ("s", "time", ("b4nls.observability.BandGramian.apply",)),
    "gcc.geodesics": ("count", "calls", ("b4nls.gcc.first_hit_time",)),
    "gcc.region_probes": ("count", "calls", ("b4nls.gcc.contains",)),
    "gcc.scan_s": ("s", "time", ("b4nls.cli.torus_gcc_time",)),
    "resonance.table_calls": ("count", "calls", ("b4nls.resonance.build_table",)),
    "resonance.table_pairs": ("count", "counter", ("b4nls.resonance.build_table",)),
    "resonance.table_s": ("s", "time", ("b4nls.resonance.build_table",)),
    "bourgain.xsb_calls": ("count", "calls", ("b4nls.bourgain.xsb_norm",)),
    "cli.validate_s": ("s", "time", ("b4nls.cli.validate_config",)),
    "cli.io_s": ("s", "time", ("b4nls.cli.save_trace", "b4nls.cli._write_csv")),
}


def layer_metrics(tracer: Tracer, n_passes: int) -> tuple[dict, list[str]]:
    """Per-pass layer metrics as {name: (value, unit)}, and the names of
    metrics that cannot be measured because a wrap point is missing."""
    missing = set(tracer.missing)
    durations = tracer.durations()
    out, unmeasured = {}, []
    for name, (unit, kind, sources) in METRICS.items():
        if missing.intersection(sources):
            unmeasured.append(name)
            continue
        if kind == "calls":
            total = sum(tracer.calls[s] for s in sources)
        elif kind == "time":
            total = sum(durations[s] for s in sources)
        else:
            total = tracer.counters[name]
        out[name] = (total / n_passes, unit)
    self_s = tracer.layer_self_times()
    for layer in LAYERS:
        points = [p.name for p in WRAP_POINTS if p.layer == layer and p.span]
        if points and missing.issuperset(points):
            unmeasured.append(f"{layer}.self_s")
            continue
        out[f"{layer}.self_s"] = (self_s[layer] / n_passes, "s")
    return out, unmeasured
