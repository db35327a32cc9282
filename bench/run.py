#!/usr/bin/env python3
"""The b4nls benchmark: one closed-loop client driving ``b4nls.cli.run_config``.

    python3 bench/run.py --workload flows --seed 1 --seconds 25 --trace 0

Run from the repository root. The benchmark renders the workload's configs
for the seed, runs one untimed warm-up pass, then runs passes back to back
for ``--seconds`` and checks every output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics. The last line of standard output is
the result as JSON; the lines before it give every metric with its unit,
the accuracy figures, failures and run metadata. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
MIN_PASSES = 3
BLAS_THREADS = 1
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from b4nls import cli\n"
    "for p in sys.argv[2:]: cli.validate_config(p)"
)


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must happen before numpy is imported. On a
    shared 2-core machine a second BLAS thread made the control workload's
    pass time swing by a fifth from run to run."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def run_metadata(workload: str, seed: int, variant: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "b4nls", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "data_variant": variant,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "blas": blas_info(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(config_paths, calib) -> tuple[list[float], list[float], list[str]]:
    """Wall times of fresh interpreters that import b4nls.cli and validate
    the workload's configs, and the same scaled by the calibration; one
    untimed run first fills the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, *config_paths]
    times, samples, failures = [], [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            failures.append(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif i > 0:
            times.append(elapsed)
        samples.append(calib.sample())
    scaled = calib.scale(times, samples) if len(samples) == len(times) + 1 else []
    return times, scaled, failures


class Calibration:
    """A fixed mix of numpy FFTs, a Python loop and BLAS matvecs, independent
    of b4nls. The machine's speed drifts by tens of percent over minutes;
    times divided by this kernel's time, measured right before and after
    each timed interval, drift far less."""

    # median sample on the shared 2-core x86-64 VM the benchmark was tuned
    # on, so that scaled times read as seconds at that speed
    NOMINAL_S = 0.022

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.fft = np.fft
        self.grid = rng.standard_normal((32, 32)) + 0j
        self.matrix = rng.standard_normal((1024, 1024))  # 8 MB: memory-bound
        self.vector = rng.standard_normal(1024)

    def _once(self) -> float:
        fft = self.fft
        t0 = time.perf_counter()
        for _ in range(100):
            fft.ifftn(fft.ifftshift(fft.fftshift(fft.fftn(self.grid))))
        acc = 0
        for i in range(90000):
            acc += i * i
        for _ in range(16):
            self.matrix @ self.vector
        return time.perf_counter() - t0

    def sample(self) -> float:
        return statistics.median(self._once() for _ in range(3))

    def scale(self, walls, samples) -> list[float]:
        """Scale walls[i] by the mean of samples[i] and samples[i + 1], the
        calibrations taken just before and after it."""
        return [
            w * self.NOMINAL_S / (0.5 * (samples[i] + samples[i + 1]))
            for i, w in enumerate(walls)
        ]


def write_spans(tracer, path: str) -> None:
    t0 = tracer.starts[0] if tracer.starts else 0.0
    with gzip.open(path, "wt") as fh:
        fh.write("id\tparent\tlayer\tname\tstart_s\tend_s\n")
        for i, (p, layer, name, s, e) in enumerate(zip(
                tracer.parents, tracer.layers, tracer.names, tracer.starts, tracer.ends)):
            fh.write(f"{i}\t{p}\t{layer}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\n")


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failures: list[str]  # failed runs
    problems: list[str] = field(default_factory=list)  # failed checks of the trace
    lines: list[str] = field(default_factory=list)  # printed before the result
    meta: dict = field(default_factory=dict)


def _merged_results(runs) -> dict:
    results = {}
    for r in runs:
        results.update(r.results)
    return results


def end_to_end(wl, run_config, seconds: float) -> Outcome:
    """Untraced run: set-up interpreters, a warm-up pass, then timed passes
    with a calibration sample before the first kind and after each kind."""
    calib = Calibration()
    setup, setup_scaled, failures = measure_setup(wl.configs.values(), calib)
    runs = [wl.run_pass(run_config)]  # warm-up; its outputs are the baseline
    timed, samples = [], [calib.sample()]
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(timed) < MIN_PASSES:
        timed.append(wl.run_pass(run_config, after_kind=lambda: samples.append(calib.sample())))
    runs += timed
    failures += [f for r in runs for f in r.failures]
    attempted = SETUP_REPEATS + 1 + sum(r.attempted for r in runs)

    k = len(wl.kinds)
    scaled = calib.scale([s for r in timed for s in r.kind_s], samples)
    pass_scaled = [sum(scaled[i:i + k]) for i in range(0, len(scaled), k)]
    results = _merged_results(runs)
    err = wl.err_ratio(results)
    out = Outcome(
        metrics={
            "setup_s": (statistics.median(setup_scaled) if setup_scaled else None, "s"),
            "pass_s": (statistics.median(pass_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "err_ratio": (err if err == err else None, "ratio"),
        },
        attempted=attempted,
        failures=failures,
        meta={"samples": {"setup_s": len(setup_scaled), "pass_s": len(timed),
                          "peak_rss_mb": 1, "err_ratio": 1}},
    )
    if setup:
        out.lines.append(f"setup_wall_s {statistics.median(setup)!r} s (unscaled)")
    out.lines.append(f"pass_wall_s {statistics.median(r.wall_s for r in timed)!r} s (unscaled)")
    out.lines.append(f"calibration_s {statistics.median(samples)!r} s")
    out.lines.append(f"failed_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted} runs)")
    out.lines += [f"{name} {value!r} 1" for name, value in wl.accuracy(results).items()]
    return out


def per_layer(wl, run_config, seconds: float, spans_path: str) -> Outcome:
    """Traced run: a warm-up pass, then untraced and traced passes in turn."""
    from layers import WRAP_POINTS, layer_metrics
    from tracer import Tracer, self_times

    runs = [wl.run_pass(run_config)]
    tracer = Tracer(WRAP_POINTS)
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(traced) < MIN_PASSES:
        plain.append(wl.run_pass(run_config))
        tracer.install()
        try:
            traced.append(wl.run_pass(run_config, tracer))
        finally:
            tracer.uninstall()
    runs += plain + traced

    n = len(traced)
    metrics, unmeasured = layer_metrics(tracer, n)
    roots = [i for i, name in enumerate(tracer.names) if name == "bench.pass"]
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    problems, root_s = [], []
    for k, r in enumerate(roots):
        stop = roots[k + 1] if k + 1 < len(roots) else len(selfs)
        root_s.append(tracer.ends[r] - tracer.starts[r])
        if abs(sum(selfs[r:stop]) - root_s[-1]) > 1e-6:
            problems.append(f"trace: self times of pass {k} sum to {sum(selfs[r:stop])!r}, "
                            f"its span to {root_s[-1]!r}")
    traced_s = sum(root_s) / n
    plain_s = sum(p.wall_s for p in plain) / len(plain)
    metrics["cli.artifact_bytes"] = (sum(p.artifact_bytes for p in traced) / n, "B")
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    write_spans(tracer, spans_path)
    return Outcome(
        metrics=metrics,
        attempted=sum(r.attempted for r in runs),
        failures=[f for r in runs for f in r.failures],
        problems=problems,
        lines=[f"missing wrap point {name}" for name in tracer.missing],
        meta={
            "samples": {"traced_passes": n, "untraced_passes": len(plain)},
            "spans_per_pass": len(tracer.starts) / n,
            "missing_wrap_points": tracer.missing,
            "unmeasured_metrics": unmeasured,
            "spans_file": os.path.relpath(spans_path, ROOT),
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flows", "control", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "b4nls", "cli.py")):
        print(f"error: no b4nls sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    from b4nls import cli
    from workloads import Workload, config_seed, load_references

    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    wl = Workload(args.workload, args.seed, workdir, load_references())
    try:
        if args.trace == 0:
            out = end_to_end(wl, cli.run_config, args.seconds)
        else:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
            out = per_layer(wl, cli.run_config, args.seconds, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = run_metadata(args.workload, args.seed, config_seed(args.seed))
    meta.update(out.meta)

    for name, (value, unit) in out.metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in out.lines + [f"FAILED {f}" for f in out.failures + out.problems]:
        print(line)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not out.failures and not out.problems,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
