"""Workloads of the b4nls benchmark: config rendering, passes and output checks.

A workload is a fixed list of CLI experiment kinds. One pass runs each of them
once through ``b4nls.cli.run_config``, back to back, in one process. The
workload seed picks one of ``N_VARIANTS`` data variants (the ``[experiment]
seed`` of every rendered config), so that each variant has reference outputs
recorded in ``references.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(BENCH_DIR, "configs")
REFERENCE_PATH = os.path.join(BENCH_DIR, "references.json")

WORKLOADS = {
    "flows": ("simulate", "stabilize"),
    "control": ("control-linear", "control-nonlinear"),
    "survey": ("observability-sweep", "gcc-check", "resonance-sweep", "bourgain-probe"),
}

N_VARIANTS = 16

# Files each kind must leave in its output directory.
ARTIFACTS = {
    "simulate": ("ledger.csv", "summary.csv", "manifest.txt"),
    "stabilize": ("ledger.csv", "decay_summary.csv", "manifest.txt"),
    "control-linear": ("certificate.csv", "summary.csv", "control/ledger.csv", "manifest.txt"),
    "control-nonlinear": ("certificate.csv", "summary.csv", "control/ledger.csv", "manifest.txt"),
    "observability-sweep": ("gramian.csv", "manifest.txt"),
    "gcc-check": ("geodesics.csv", "summary.txt", "manifest.txt"),
    "resonance-sweep": ("resonance.csv", "summary.txt", "manifest.txt"),
    "bourgain-probe": ("probe.csv", "manifest.txt"),
}

# How a float result must match its reference; ints, bools and strings match
# exactly. Flow and control results carry integrator and inner-solve error far
# above roundoff, so 1e-6 relative admits reordered arithmetic and nothing
# else. Gramian eigenvalues match to the Lanczos tolerance, GCC times to the
# bisection tolerance eps_t.
FLOAT_TOLERANCE = {
    "simulate": ("rel", 1e-6),
    "stabilize": ("rel", 1e-6),
    "control-linear": ("rel", 1e-6),
    "control-nonlinear": ("rel", 1e-6),
    "observability-sweep": ("abs", 1e-8),
    "gcc-check": ("abs", 1e-4),
    "resonance-sweep": ("rel", 1e-12),
    "bourgain-probe": ("rel", 1e-8),
}

# Accuracy figures: reported and compared with their reference values as a
# ratio, but not pinned, so that a more accurate integrator or audit shows as
# a gain instead of a failure. Maps kind -> {result name: reported name}.
ACCURACY = {
    "simulate": {"energy_drift": "energy_drift"},
    "stabilize": {"audit_mismatch": "audit_mismatch"},
    "control-linear": {"relative_residual": "linear_rel_residual"},
    "control-nonlinear": {"relative_residual": "nonlinear_rel_residual"},
    "bourgain-probe": {"gain_exponent_gap": "gain_exponent_gap"},
}


def config_seed(seed: int) -> int:
    return seed % N_VARIANTS


def render_configs(workload: str, seed: int, workdir: str) -> dict[str, str]:
    """Write the workload's configs for one seed; returns kind -> path."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for kind in WORKLOADS[workload]:
        with open(os.path.join(CONFIG_DIR, f"{kind}.ini")) as fh:
            text = fh.read().replace("{seed}", str(config_seed(seed)))
        path = os.path.join(workdir, f"{kind}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        paths[kind] = path
    return paths


# ---------------------------------------------------------------------------
# reading results back from the artifacts
# ---------------------------------------------------------------------------

def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _text_fields(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def read_results(kind: str, outdir: str) -> dict:
    """Flat name -> value view of the results one experiment wrote."""
    if kind == "simulate":
        row = _csv_rows(os.path.join(outdir, "summary.csv"))[0]
        ledger = _csv_rows(os.path.join(outdir, "ledger.csv"))
        return {"energy_drift": float(row["energy_drift"]), "records": len(ledger)}
    if kind == "stabilize":
        row = _csv_rows(os.path.join(outdir, "decay_summary.csv"))[0]
        keys = ("gamma", "E0", "ET", "audit_mismatch")
        return {k: float(row[k]) for k in keys}
    if kind in ("control-linear", "control-nonlinear"):
        row = _csv_rows(os.path.join(outdir, "summary.csv"))[0]
        out = {"relative_residual": float(row["relative_residual"])}
        if kind == "control-linear":
            out["integrator_residual"] = float(row["integrator_residual"])
        return out
    if kind == "observability-sweep":
        out = {}
        for row in _csv_rows(os.path.join(outdir, "gramian.csv")):
            h = row["h"]
            out[f"h={h}.band_dim"] = int(row["band_dim"])
            out[f"h={h}.min_eig"] = float(row["min_eig"])
            out[f"h={h}.max_eig"] = float(row["max_eig"])
        return out
    if kind == "gcc-check":
        fields = _text_fields(os.path.join(outdir, "summary.txt"))
        hits = [r["hit_time"] for r in _csv_rows(os.path.join(outdir, "geodesics.csv"))]
        found = [float(h) for h in hits if h != "miss"]
        out = {
            "holds": "T0" in fields,
            "geodesics": len(hits),
            "misses": len(hits) - len(found),
            "mean_hit_time": sum(found) / max(len(found), 1),
        }
        if "T0" in fields:
            out["T0"] = float(fields["T0"])
        return out
    if kind == "resonance-sweep":
        out = {}
        for row in _csv_rows(os.path.join(outdir, "resonance.csv")):
            out[f"K={row['K']}"] = "{tau_numerator}/{tau_denominator}:{count}".format(**row)
        fields = _text_fields(os.path.join(outdir, "summary.txt"))
        out["max_counts"] = fields["max_counts"]
        out["growth_exponent"] = float(fields["growth_exponent"])
        return out
    if kind == "bourgain-probe":
        out = {r["name"]: float(r["value"]) for r in _csv_rows(os.path.join(outdir, "probe.csv"))}
        # the target 1 - b - b' is config arithmetic and sits at roundoff
        # for the default (b, b'); only the gap to it is a result
        target = out.pop("gain_target_exponent")
        out["gain_exponent_gap"] = abs(out["gain_fitted_exponent"] - target)
        return out
    raise KeyError(kind)


def compare(kind: str, results: dict, reference: dict) -> list[str]:
    """Mismatches of pinned results against the reference; [] when all hold."""
    mode, tol = FLOAT_TOLERANCE[kind]
    skip = ACCURACY.get(kind, {})
    problems = []
    for name, ref in reference.items():
        if name in skip:
            continue
        if name not in results:
            problems.append(f"{kind}: result {name} missing")
            continue
        got = results[name]
        if isinstance(ref, float):
            err = abs(got - ref)
            limit = tol * abs(ref) if mode == "rel" else tol
            ok = math.isfinite(got) and err <= limit
        else:
            ok = got == ref
        if not ok:
            problems.append(f"{kind}: {name} = {got!r}, reference {ref!r}")
    return problems


def load_references(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_for(refs: dict, kind: str, seed: int) -> dict:
    """Seed-independent results live under "fixed", the rest per variant."""
    if kind in refs["fixed"]:
        return refs["fixed"][kind]
    return refs["variants"][str(config_seed(seed))][kind]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _output_digest(outdir: str) -> str:
    """Digest of every CSV and summary file, which must not change between
    passes of one config."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(outdir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".csv") or name == "summary.txt":
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, outdir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _tree_bytes(outdir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(outdir) for f in files
    )


@dataclass
class PassResult:
    kind_s: list[float]  # wall time of each kind's run_config call
    attempted: int
    failures: list[str]
    results: dict = field(default_factory=dict)  # kind -> read_results()
    artifact_bytes: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.kind_s)


class Workload:
    """One workload at one seed: its configs, references and first outputs."""

    def __init__(self, name: str, seed: int, workdir: str, refs: dict,
                 kinds: tuple[str, ...] | None = None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.refs = refs
        self.kinds = kinds or WORKLOADS[name]
        self.configs = render_configs(name, seed, workdir)
        self.first_digest: dict[str, str] = {}

    def run_pass(self, run_config, tracer=None, after_kind=None) -> PassResult:
        """Run every kind once; a raised exception is a failure, not an abort.

        Only the run_config calls are timed (and traced); after_kind() runs
        between them, untimed. Clearing the output directories and checking
        the artifacts also happen outside the timed calls.
        """
        outdirs = {k: os.path.join(self.workdir, "out", k) for k in self.kinds}
        for d in outdirs.values():
            shutil.rmtree(d, ignore_errors=True)
        errors = {}
        kind_s = []
        root = tracer.open("bench.pass", "bench") if tracer else None
        for kind in self.kinds:
            t0 = time.perf_counter()
            try:
                run_config(self.configs[kind], outdirs[kind])
            except Exception as exc:  # any error of the program is a failed run
                errors[kind] = f"{kind}: {type(exc).__name__}: {exc}"
            kind_s.append(time.perf_counter() - t0)
            if after_kind:
                after_kind()
        if tracer:
            tracer.close(root)
        res = PassResult(kind_s=kind_s, attempted=len(self.kinds), failures=[])
        for kind in self.kinds:
            problems = [errors[kind]] if kind in errors else self._check(kind, outdirs[kind], res)
            if problems:
                res.failures.append("; ".join(problems))
            res.artifact_bytes += _tree_bytes(outdirs[kind])
        return res

    def _check(self, kind: str, outdir: str, res: PassResult) -> list[str]:
        missing = [a for a in ARTIFACTS[kind] if not os.path.isfile(os.path.join(outdir, a))]
        if missing:
            return [f"{kind}: missing artifacts {missing}"]
        digest = _output_digest(outdir)
        first = self.first_digest.setdefault(kind, digest)
        problems = []
        if digest != first:
            problems.append(f"{kind}: outputs differ from the first pass")
        try:
            results = read_results(kind, outdir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return problems + [f"{kind}: unreadable results: {exc!r}"]
        res.results[kind] = results
        return problems + compare(kind, results, reference_for(self.refs, kind, self.seed))

    def accuracy(self, results: dict) -> dict[str, float]:
        """Accuracy figures of one pass under their reported names."""
        return {
            name: results[kind][fig]
            for kind in self.kinds if kind in results
            for fig, name in ACCURACY.get(kind, {}).items()
        }

    def err_ratio(self, results: dict) -> float:
        """Worst ratio of an accuracy figure to its recorded reference value."""
        ratios = [
            results[kind][fig] / reference_for(self.refs, kind, self.seed)[fig]
            for kind in self.kinds if kind in results
            for fig in ACCURACY.get(kind, {})
        ]
        return max(ratios) if ratios else float("nan")
