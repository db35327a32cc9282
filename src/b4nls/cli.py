"""Batch experiment runner.

Experiments are described by flat INI-style config files (diff-able,
hand-editable) with one section per concern; `run` executes exactly one
experiment kind and writes CSV artifacts, field snapshots, and a plain-text
manifest into the output directory. All randomness flows from the single
seed in the config, so a fixed config produces byte-identical CSV output.

    b4nls run <config> [--output DIR]
    b4nls validate <config>
    b4nls describe <experiment>

Exit status is 0 on success, 2 for a bad config or input, and 1 when a
solver fails (blow-up, an unobservable control problem, failed
contraction). `validate` is `run` without the solve, so bad input fails
before an output directory exists.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .regions import Ball, FullRegion, RegionUnion, Strip
from .spectral import (
    SpectralField,
    band_mode_mask,
    basis_field,
    make_damping_profile,
    make_torus,
    normalize_sobolev,
    random_field,
    zero_field,
)
from .dynamics import (
    BlowUpError,
    EvolutionTrace,
    SolverConfig,
    audit_dissipation,
    check_horizon,
    damping_layout,
    energy,
    evolve_damped,
    evolve_nonlinear,
    fit_decay_rate,
    mass,
    save_trace,
)
from .hum import (
    ContractionFailure,
    ControlProblem,
    ControlStagnationError,
    solve_linear_control,
    solve_nonlinear_control,
)
from .observability import check_gramian_sweep, gramian_sweep
from .gcc import check_torus_scan, closing_length, torus_gcc_time
from .resonance import check_sweep, counting_sweep
from .bourgain import check_gain_exponents, check_probe_inputs
from .bourgain import duhamel_gain_probe, trilinear_constant_probe


class ConfigError(ValueError):
    pass


def _get(cfg, section, key, cast, default=None, required=False):
    """The value of [section] key cast by cast; a float must be finite.
    Call it only where the value is used: the call marks the key as read."""
    cfg.read_keys.add((section, cfg.optionxform(key)))
    try:
        raw = cfg.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    except configparser.Error as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    if raw.strip() == "":
        return default
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"bad value for [{section}] {key}: {raw.strip()!r} is not finite")
    return value


def _load_config(path):
    cfg = configparser.ConfigParser()
    cfg.read_keys = set()  # the (section, key) pairs _get reads; validate_config refuses the rest
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config {path}")
    return cfg


def _build_spec(cfg):
    d = _get(cfg, "manifold", "d", int, 1)
    N = _get(cfg, "manifold", "N", int, 64)
    beta = _get(cfg, "manifold", "beta", float, 1.0)
    return make_torus(d, N, beta)


def _build_region(cfg, d):
    kind = _get(cfg, "region", "type", str, "strip")
    if kind == "full":
        return FullRegion()
    if kind == "strip":
        lo = _get(cfg, "region", "lo", float, math.pi / 2)
        hi = _get(cfg, "region", "hi", float, 3 * math.pi / 2)
        axis = _get(cfg, "region", "axis", int, 0)
        return Strip(lo, hi, axis)
    if kind == "ball":
        r = _get(cfg, "region", "radius", float, required=True)
        center = tuple(_get(cfg, "region", f"center_{a}", float, math.pi) for a in "xyz"[:d])
        return Ball(center, r)
    if kind == "two-strips":
        lo = _get(cfg, "region", "lo", float, 0.0)
        hi = _get(cfg, "region", "hi", float, 1.0)
        return RegionUnion((Strip(lo, hi, 0), Strip(lo, hi, 1)))
    raise ConfigError(f"unknown region type {kind!r}")


def _build_profile(cfg, spec):
    region = _build_region(cfg, spec.d)
    return make_damping_profile(spec, region, _get(cfg, "region", "smoothing_width", float, None))


def _build_datum(cfg, spec, rng) -> SpectralField:
    kind = _get(cfg, "run", "datum", str, "random")
    if kind == "zero":
        return zero_field(spec)
    if kind == "plane-wave":
        mode = _get(cfg, "run", "datum_mode", int, 1)
        amp = _get(cfg, "run", "datum_amplitude", float, 1.0)
        return basis_field(spec, (mode,) * spec.d, amp)
    if kind == "random":
        decay = _get(cfg, "run", "datum_decay", float, 4.0)
        band = _get(cfg, "run", "datum_band", int, None)
        u = random_field(spec, rng, decay=decay, band=band)
        norm = _get(cfg, "run", "datum_norm", float, 1.0)
        try:
            return normalize_sobolev(u, 2.0, norm)
        except ValueError as exc:
            raise ConfigError(f"cannot scale the datum to [run] datum_norm = {norm}: {exc}") from exc
    raise ConfigError(f"unknown datum kind {kind!r}")


def _build_solver(cfg) -> SolverConfig:
    return SolverConfig(
        dt=_get(cfg, "solver", "dt", float, 1e-3),
        k_nl=_get(cfg, "solver", "k_nl", int, 1),
        record_stride=_get(cfg, "solver", "record_stride", int, 1),
    )


def _flow(cfg, rng, T_default):
    """The datum, solver, horizon and snapshot stride of a flow run."""
    spec = _build_spec(cfg)
    solver = _build_solver(cfg)
    u0 = _build_datum(cfg, spec, rng)
    T = _get(cfg, "run", "T", float, T_default)
    check_horizon(T)
    stride = _get(cfg, "run", "snapshot_stride", int, None)  # None: a tenth of the records
    if stride is not None and stride < 1:
        raise ConfigError(f"[run] snapshot_stride must be >= 1, got {stride}")
    return u0, solver, T, stride


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


# ---------------------------------------------------------------------------
# experiment builders: each parses and checks its whole config, draws the
# datum, and returns run(outdir), which does the rest and returns the names
# of the artifacts it wrote. The solvers are looked up as module globals at
# run time.
# ---------------------------------------------------------------------------

def _simulate(cfg, rng):
    u0, solver, T, stride = _flow(cfg, rng, 1.0)

    def run(outdir):
        trace = evolve_nonlinear(u0, T, solver)
        save_trace(trace, outdir, snapshot_stride=stride or max(1, trace.n_records // 10))
        dm = abs(trace.masses[-1] - trace.masses[0]) / max(trace.masses[0], 1e-300)
        de = abs(trace.energies[-1] - trace.energies[0]) / max(abs(trace.energies[0]), 1e-300)
        _write_csv(
            os.path.join(outdir, "summary.csv"),
            ["T", "mass_drift", "energy_drift"],
            [[float(T), float(dm), float(de)]],
        )
        return ["ledger.csv", "summary.csv"]

    return run


def _stabilize(cfg, rng):
    u0, solver, T, stride = _flow(cfg, rng, 20.0)
    if not np.any(u0.coeffs[u0.spec.dealias_mask]):
        raise ConfigError(
            "[run] the datum has no mode in the dealiasing ball (every |k_i| <= "
            f"{u0.spec.N // 3}), so the damped flow stays zero and has no decay to fit"
        )
    profile = _build_profile(cfg, u0.spec)
    damping_layout(profile)  # refuses blocks above the cap

    def run(outdir):
        trace = evolve_damped(u0, profile, T, solver)
        save_trace(trace, outdir, snapshot_stride=stride or max(1, trace.n_records // 10))
        aud = audit_dissipation(trace)
        fit = fit_decay_rate(trace.times, trace.energies)
        _write_csv(
            os.path.join(outdir, "decay_summary.csv"),
            ["gamma", "r_squared", "E0", "ET", "audit_lhs", "audit_rhs", "audit_mismatch"],
            [[fit.gamma, fit.r_squared, float(trace.energies[0]), float(trace.energies[-1]),
              aud.lhs, aud.rhs, aud.mismatch]],
        )
        return ["ledger.csv", "decay_summary.csv"]

    return run


def _control_problem(cfg, rng, nonlinear) -> ControlProblem:
    """The datum and the problem it poses. ControlProblem checks its own
    inputs, the datum against the control band included, so this builder
    only reads keys. The fixed-point keys are read for the nonlinear
    problem only; the linear synthesis never uses them."""
    spec = _build_spec(cfg)
    return ControlProblem(
        spec=spec,
        u0=_build_datum(cfg, spec, rng),
        T=_get(cfg, "run", "T", float, 1.0),
        phi=_build_profile(cfg, spec),
        k_nl=_get(cfg, "solver", "k_nl", int, 1),
        cg_tol=_get(cfg, "control", "cg_tol", float, 1e-9),
        fixedpoint_tol=(_get(cfg, "control", "fixedpoint_tol", float, 1e-8) if nonlinear
                        else ControlProblem.fixedpoint_tol),
        control_band=_get(cfg, "control", "control_band", int, None),
        verify_dt=_get(cfg, "control", "verify_dt", float, 1e-4),
        solve_dt=(_get(cfg, "control", "solve_dt", float, 1e-3) if nonlinear
                  else ControlProblem.solve_dt),
    )


def _save_control(outdir, prob, cert, certificate_rows, summary_header, summary_row):
    """certificate.csv, summary.csv and the control samples as a trace."""
    spec, samples = prob.spec, np.asarray(cert.control_samples)
    _write_csv(
        os.path.join(outdir, "certificate.csv"),
        ["iteration", "residual", "contraction_ratio"],
        certificate_rows,
    )
    ctrace = EvolutionTrace(
        spec=spec, times=np.asarray(cert.control_times), states=samples,
        masses=mass(spec, samples),
        energies=energy(spec, samples, prob.k_nl, include_potential=False),
        fluxes=np.zeros(len(samples)), damped=False,
    )
    save_trace(ctrace, os.path.join(outdir, "control"), snapshot_stride=25)
    _write_csv(os.path.join(outdir, "summary.csv"), summary_header, [summary_row])
    return ["certificate.csv", "summary.csv", "control/ledger.csv"]


def _control_linear(cfg, rng):
    prob = _control_problem(cfg, rng, nonlinear=False)

    def run(outdir):
        cert = solve_linear_control(prob)
        return _save_control(
            outdir, prob, cert,
            [[0, cert.terminal_residual, 0.0]],
            ["terminal_residual", "relative_residual", "integrator_residual", "lambda_min",
             "condition"],
            [cert.terminal_residual, cert.relative_residual, float(cert.integrator_residual),
             cert.lambda_min, cert.condition],
        )

    return run


def _control_nonlinear(cfg, rng):
    prob = _control_problem(cfg, rng, nonlinear=True)

    def run(outdir):
        cert = solve_nonlinear_control(prob)
        rows = [
            [i, float(diff), float(cert.contraction_ratios[i - 1]) if i >= 1 else 0.0]
            for i, diff in enumerate(cert.fixedpoint_diffs)
        ]
        return _save_control(
            outdir, prob, cert, rows,
            ["terminal_residual", "relative_residual", "iterations"],
            [cert.terminal_residual, cert.relative_residual, len(cert.fixedpoint_diffs)],
        )

    return run


def _observability(cfg, rng):
    spec = _build_spec(cfg)
    profile = _build_profile(cfg, spec)
    T = _get(cfg, "run", "T", float, 1.0)
    j_values = _get(cfg, "sweep", "j_values", lambda raw: [int(x) for x in raw.split(",")])
    if j_values is None:  # every scale from h = 1/4 down that the lattice resolves
        j_values = list(itertools.takewhile(
            lambda j: band_mode_mask(spec, 2.0 ** (-j)).any(), itertools.count(2)
        ))
    quad_dt = _get(cfg, "sweep", "quad_dt", float, 1e-3)
    check_gramian_sweep(spec, T, [2.0 ** (-j) for j in j_values], quad_dt)

    def run(outdir):
        reports = gramian_sweep(profile, T, j_values, quad_dt)
        _write_csv(
            os.path.join(outdir, "gramian.csv"),
            ["h", "band_dim", "T", "min_eig", "max_eig"],
            [[r.h, r.band_dim, r.T, r.min_eig, r.max_eig] for r in reports],
        )
        return ["gramian.csv"]

    return run


def _gcc_check(cfg, rng):
    d = _get(cfg, "manifold", "d", int, 2)
    region = _build_region(cfg, d)
    t_max = _get(cfg, "gcc", "t_max", float, 50.0)
    starts = _get(cfg, "gcc", "starts_per_dim", int, 8)
    farey = _get(cfg, "gcc", "farey_max_den", int, 6)
    n_angles = _get(cfg, "gcc", "n_angles", int, 32)
    check_torus_scan(region, d, t_max, starts, n_angles)

    def run(outdir):
        scan = torus_gcc_time(region, d, t_max, starts, farey, n_angles)
        rows = [
            [" ".join(repr(float(x)) for x in rec.start),
             " ".join(repr(float(x)) for x in rec.direction),
             repr(float(rec.hit_time)) if rec.hit_time is not None else "miss"]
            for rec in scan.records
        ]
        _write_csv(os.path.join(outdir, "geodesics.csv"), ["x0", "theta", "hit_time"], rows)
        with open(os.path.join(outdir, "summary.txt"), "w") as fh:
            if scan.holds_on_sample:
                fh.write(
                    "gcc holds on the sampled family\n"
                    f"T0 = {scan.t0!r}\n"
                    "T0 is the largest exact hit time over the sampled family:"
                    " a lower bound on the control time\n"
                )
            else:
                w = scan.witness
                period = closing_length(w.direction, farey)
                fh.write(
                    "gcc fails: witness geodesic\n"
                    f"start = {tuple(float(x) for x in w.start)!r}\n"
                    f"direction = {tuple(float(x) for x in w.direction)!r}\n"
                    f"t_max = {w.t_max!r}\n"
                    + (f"the witness closes after length {period!r} <= t_max, so it misses"
                       " the region for all time\n" if period is not None and period <= w.t_max
                       else "the witness misses the region up to t_max\n")
                )
        return ["geodesics.csv", "summary.txt"]

    return run


def _resonance(cfg, rng):
    K_max = _get(cfg, "sweep", "K_max", int, 1024)
    p = _get(cfg, "sweep", "beta_p", int, 0)
    q = _get(cfg, "sweep", "beta_q", int, 1)
    check_sweep(K_max, p, q)

    def run(outdir):
        sweep = counting_sweep(K_max, p, q)
        _write_csv(
            os.path.join(outdir, "resonance.csv"),
            ["K", "tau_numerator", "tau_denominator", "count"],
            [list(row) for row in sweep.rows],
        )
        with open(os.path.join(outdir, "summary.txt"), "w") as fh:
            fh.write(f"beta = {p}/{q}\n")
            fh.write(f"dyadic_K = {list(sweep.dyadic_K)!r}\n")
            fh.write(f"max_counts = {list(sweep.max_counts)!r}\n")
            fh.write(f"growth_exponent = {sweep.growth_exponent!r}\n")
        return ["resonance.csv", "summary.txt"]

    return run


def _bourgain(cfg, rng):
    spec = _build_spec(cfg)
    b = _get(cfg, "sweep", "b", float, 0.55)
    bp = _get(cfg, "sweep", "b_prime", float, 0.45)
    samples = _get(cfg, "sweep", "samples", int, 20)
    s = _get(cfg, "sweep", "s", float, 2.0)
    M_t = _get(cfg, "sweep", "M_t", int, 128)
    space_band = _get(cfg, "sweep", "space_band", int, None)
    time_band = _get(cfg, "sweep", "time_band", int, 8)
    check_gain_exponents(b, bp)
    check_probe_inputs(samples, M_t, space_band, time_band)

    def run(outdir):
        gain = duhamel_gain_probe(b, bp, n_samples=samples, rng=rng)
        tri_max_ratio = trilinear_constant_probe(
            spec, s, min(bp, 0.49), max(4, samples // 4), rng,
            M_t=M_t, space_band=space_band, time_band=time_band,
        )
        rows = [["gain_T_" + repr(float(T)), r] for T, r in zip(gain.T_values, gain.max_ratios)]
        rows.append(["gain_fitted_exponent", gain.fitted_exponent])
        rows.append(["gain_target_exponent", 1.0 - b - bp])
        rows.append(["trilinear_max_ratio", tri_max_ratio])
        _write_csv(os.path.join(outdir, "probe.csv"), ["name", "value"], rows)
        return ["probe.csv"]

    return run


_BUILDERS = {
    "simulate": _simulate,
    "stabilize": _stabilize,
    "control-linear": _control_linear,
    "control-nonlinear": _control_nonlinear,
    "observability-sweep": _observability,
    "gcc-check": _gcc_check,
    "resonance-sweep": _resonance,
    "bourgain-probe": _bourgain,
}
EXPERIMENTS = tuple(_BUILDERS)

_DESCRIPTIONS = {
    "simulate": "free/nonlinear evolution; ledger.csv + snapshots + summary.csv",
    "stabilize": "damped evolution; ledger.csv + decay_summary.csv (fit + dissipation audit)",
    "control-linear": "HUM synthesis for the linear flow; certificate.csv + control trace",
    "control-nonlinear": "local nonlinear control fixed point; certificate.csv + control trace",
    "observability-sweep": "band Gramian minimum eigenvalues over h = 2^-j; gramian.csv",
    "gcc-check": "exact geodesic first-entry times on a sampled family; geodesics.csv + summary.txt",
    "resonance-sweep": "dyadic resonance counting; resonance.csv + summary.txt",
    "bourgain-probe": "time-integration gain and cubic bound probes; probe.csv",
}

_DATUM = "datum,datum_norm,datum_decay,datum_band,datum_mode,datum_amplitude"
_REGION = {"region": "type,lo,hi,axis,radius,center_x,center_y,center_z,smoothing_width"}
_FLOW = {"manifold": "d,N,beta", "solver": "dt,k_nl,record_stride",
         "run": f"T,snapshot_stride,{_DATUM}"}
_CONTROL = {"manifold": "d,N,beta", **_REGION, "solver": "k_nl", "run": f"T,{_DATUM}",
            "control": "control_band,cg_tol,verify_dt"}
# kind -> section -> the keys its builder may read
_KEYS = {
    "simulate": _FLOW,
    "stabilize": {**_FLOW, **_REGION},
    "control-linear": _CONTROL,
    "control-nonlinear": {**_CONTROL, "control": _CONTROL["control"] + ",fixedpoint_tol,solve_dt"},
    "observability-sweep": {"manifold": "d,N,beta", **_REGION, "run": "T",
                            "sweep": "j_values,quad_dt"},
    "gcc-check": {"manifold": "d", "region": "type,lo,hi,axis,radius,center_x,center_y",
                  "gcc": "t_max,starts_per_dim,farey_max_den,n_angles"},
    "resonance-sweep": {"sweep": "K_max,beta_p,beta_q"},
    "bourgain-probe": {"manifold": "d,N,beta",
                       "sweep": "b,b_prime,s,samples,M_t,space_band,time_band"},
}


def validate_config(path) -> dict:
    """Parse and check the whole config and draw its datum: everything of a
    run but the solve. A key that the run does not read is refused, so a
    misspelt or misplaced key cannot fall back to its default unnoticed.
    Returns the kind, the seed, the [experiment] output directory (None when
    unset) and run(outdir), the rest of the run; run draws what remains of
    the seeded stream, so it is called once."""
    cfg = _load_config(path)
    kind = _get(cfg, "experiment", "kind", str, required=True)
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}; choose from {EXPERIMENTS}")
    seed = _get(cfg, "experiment", "seed", int, 0)
    try:
        run = _BUILDERS[kind](cfg, np.random.default_rng(seed))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output = _get(cfg, "experiment", "output", str, None)
    shared = set(cfg.defaults())
    unread = [
        f"[{section}] {key} is not a key of {kind}"
        for section in cfg.sections()
        for key in cfg.options(section)
        if key not in shared and (section, key) not in cfg.read_keys
    ]
    if unread:
        raise ConfigError("; ".join(unread))
    return {"kind": kind, "seed": seed, "output": output, "run": run}


def run_config(path, output=None) -> str:
    """Validate, run, and write artifacts; returns the output directory."""
    t0 = time.time()
    info = validate_config(path)
    outdir = output or info["output"]
    if outdir is None:
        raise ConfigError("no output directory (set [experiment] output or --output)")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {outdir}: {exc}") from exc
    if not os.access(outdir, os.W_OK):
        raise ConfigError(f"output directory {outdir} is not writable")
    try:
        artifacts = info["run"](outdir)
    except Exception as exc:
        _write_manifest(path, outdir, info, t0, [], f"{type(exc).__name__}: {exc}")
        raise
    _write_manifest(path, outdir, info, t0, artifacts)
    return outdir


def _write_manifest(path, outdir, info, t0, artifacts, error=None):
    """manifest.txt: what ran, on what, how long, and how it ended."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write(f"experiment: {info['kind']}\n")
        fh.write(f"config: {os.path.abspath(path)}\n")
        fh.write(f"config_sha256: {digest}\n")
        fh.write(f"seed: {info['seed']}\n")
        fh.write(f"b4nls_version: {__version__}\n")
        fh.write(f"numpy_version: {np.__version__}\n")
        fh.write(f"wall_time_s: {time.time() - t0:.3f}\n")
        if error is None:
            fh.write("status: ok\n")
        else:
            fh.write(f"status: failed\nerror: {error}\n")
        fh.write("artifacts:\n")
        for a in artifacts:
            fh.write(f"  - {a}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="b4nls", description="fourth-order NLS spectral laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None)
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_desc = sub.add_parser("describe", help="describe an experiment kind")
    p_desc.add_argument("experiment", choices=EXPERIMENTS)
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            info = validate_config(args.config)
            print(f"ok: {info['kind']} (seed {info['seed']})")
            return 0
        if args.command == "describe":
            print(f"{args.experiment}: {_DESCRIPTIONS[args.experiment]}")
            print("keys:")
            for section, keys in {"experiment": "kind,seed,output", **_KEYS[args.experiment]}.items():
                print(f"  [{section}] {keys}")
            return 0
        outdir = run_config(args.config, args.output)
        print(f"wrote {outdir}")
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, ControlStagnationError, ContractionFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
