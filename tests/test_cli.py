import ast
import configparser
import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import b4nls
from b4nls import cli
from b4nls.cli import EXPERIMENTS, main
from b4nls.observability import MAX_BAND_ENTRIES
from b4nls.resonance import MAX_SWEEP_KEYS
from b4nls.spectral import band_mode_mask


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_validate_rejects_non_etdrk4_scheme(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "[experiment]\nkind = simulate\n[manifold]\nd = 1\nN = 32\n"
        "[solver]\nscheme = strang\n",
    )
    assert main(["validate", path]) == 2
    assert "scheme" in capsys.readouterr().err


def test_solver_failure_exits_1_without_traceback(tmp_path, capsys):
    # datum far outside the contraction basin: the fixed point diverges
    path = write_config(
        tmp_path,
        "[experiment]\nkind = control-nonlinear\nseed = 0\n"
        "[manifold]\nd = 1\nN = 32\n"
        "[region]\ntype = strip\nlo = 1.0\nhi = 3.0\n"
        "[run]\ndatum_norm = 0.09\ndatum_band = 3\n"
        "[control]\ncontrol_band = 3\nverify_dt = 1e-3\n",
    )
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: contraction ratio")
    assert "Traceback" not in err
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "status: failed" in manifest
    assert any(line.startswith("error: ContractionFailure: contraction ratio")
               for line in manifest)


CONTROL_LINEAR = (
    "[experiment]\nkind = control-linear\nseed = 0\n"
    "[manifold]\nd = 1\nN = 32\n"
    "[region]\ntype = strip\nlo = 1.0\nhi = 3.0\n"
    "[control]\nverify_dt = 1e-3\n"
)


@pytest.mark.parametrize(
    "control_band,run",
    [
        (-1, "datum_band = 3"),
        (0, "datum_band = 3"),
        (2, "datum_band = 3"),
        (3, ""),  # an unbanded random datum
        (3, "datum = plane-wave\ndatum_mode = 4"),
    ],
)
def test_validate_rejects_a_datum_outside_the_control_band(
    tmp_path, capsys, control_band, run
):
    text = CONTROL_LINEAR + f"control_band = {control_band}\n[run]\n{run}\n"
    assert main(["validate", write_config(tmp_path, text)]) == 2
    assert "control_band" in capsys.readouterr().err


def test_banded_control_runs_and_manifest_says_ok(tmp_path):
    text = CONTROL_LINEAR + "control_band = 3\n[run]\ndatum_band = 3\n"
    path = write_config(tmp_path, text)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "status: ok" in manifest


@pytest.mark.parametrize(
    "text",
    [
        CONTROL_LINEAR + "[run]\nT = 0\n",
        "[experiment]\nkind = stabilize\n[manifold]\nd = 1\nN = 32\n[run]\nT = 0\n",
    ],
    ids=["control-linear", "stabilize"],
)
def test_a_nonpositive_horizon_fails_validation_before_the_run(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    assert main(["validate", path]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_sympy_unloaded():
    src = os.path.dirname(b4nls.__path__[0])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import b4nls.cli; "
        "assert 'sympy' not in sys.modules, 'sympy imported eagerly'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


GCC_CHECK = "[experiment]\nkind = gcc-check\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (GCC_CHECK + "[manifold]\nd = 3\n", "d = 1 or 2"),
        # the hits are exact, so no run reads a bisection tolerance
        (GCC_CHECK + "[gcc]\neps_t = 1e-4\n", "[gcc] eps_t is not a key of gcc-check"),
        (GCC_CHECK + "[gcc]\nt_max = -1\n", "t_max must be positive"),
        (GCC_CHECK + "[gcc]\nstarts_per_dim = 0\n", "starts_per_dim"),
        (GCC_CHECK + "[manifold]\nd = 1\n[region]\ntype = two-strips\n",
         "strip axis 1 out of range"),
        ("[experiment]\nkind = resonance-sweep\n[sweep]\nK_max = 8\n"
         "beta_p = 2\nbeta_q = 4\n", "lowest terms"),
    ],
    ids=["gcc-d3", "gcc-eps_t", "gcc-t_max", "gcc-starts", "gcc-region", "resonance-beta"],
)
def test_validate_catches_what_the_survey_run_rejects(tmp_path, capsys, text, message):
    path = write_config(tmp_path, text)
    assert main(["validate", path]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# every kind through main(["run", ...]) on a tiny config
# ---------------------------------------------------------------------------

# kind -> (config body, the artifacts its manifest lists, in order)
TINY = {
    "simulate": ("[manifold]\nd = 1\nN = 16\n[run]\nT = 0.01\n",
                 ["ledger.csv", "summary.csv"]),
    "stabilize": ("[manifold]\nd = 1\nN = 32\n[solver]\nrecord_stride = 5\n[run]\nT = 0.02\n",
                  ["ledger.csv", "decay_summary.csv"]),
    "control-linear": (
        "[manifold]\nd = 1\nN = 32\n[region]\nlo = 1.0\nhi = 3.0\n"
        "[run]\nT = 0.5\ndatum_band = 2\n[control]\ncontrol_band = 2\nverify_dt = 1e-3\n",
        ["certificate.csv", "summary.csv", "control/ledger.csv"]),
    "control-nonlinear": (
        "[manifold]\nd = 1\nN = 32\n[run]\nT = 0.5\ndatum_norm = 0.005\ndatum_band = 3\n"
        "[control]\ncg_tol = 1e-10\nverify_dt = 1e-3\n",
        ["certificate.csv", "summary.csv", "control/ledger.csv"]),
    "observability-sweep": ("[manifold]\nd = 1\nN = 32\n[run]\nT = 0.5\n[sweep]\nj_values = 2,3\n",
                            ["gramian.csv"]),
    "gcc-check": ("[manifold]\nd = 2\n[region]\ntype = two-strips\n"
                  "[gcc]\nstarts_per_dim = 2\nfarey_max_den = 2\nn_angles = 4\nt_max = 20\n",
                  ["geodesics.csv", "summary.txt"]),
    "resonance-sweep": ("[sweep]\nK_max = 8\n", ["resonance.csv", "summary.txt"]),
    "bourgain-probe": ("[manifold]\nd = 1\nN = 16\n[sweep]\nsamples = 6\nM_t = 32\ntime_band = 4\n",
                       ["probe.csv"]),
}


def _tree(root):
    """Relative path (with /) -> bytes of every file under root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_kind_runs_and_reruns_byte_identically(tmp_path, kind):
    body, artifacts = TINY[kind]
    path = write_config(tmp_path, f"[experiment]\nkind = {kind}\nseed = 3\n{body}")
    assert main(["validate", path]) == 0
    trees = []
    for out in ("a", "b"):
        assert main(["run", path, "--output", str(tmp_path / out)]) == 0
        trees.append(_tree(tmp_path / out))
    snapshots = {name for name in trees[0] if name.rsplit("/", 1)[-1].startswith("state_")}
    assert set(trees[0]) - snapshots == set(artifacts) | {"manifest.txt"}
    assert bool(snapshots) == (kind not in ("observability-sweep", "gcc-check",
                                            "resonance-sweep", "bourgain-probe"))
    manifest = trees[0]["manifest.txt"].decode().splitlines()
    assert "status: ok" in manifest
    assert [line[4:] for line in manifest if line.startswith("  - ")] == artifacts
    del trees[0]["manifest.txt"], trees[1]["manifest.txt"]
    assert trees[0] == trees[1]


def test_a_zero_horizon_sweep_writes_unsigned_zero_floors(tmp_path):
    # G is the zero matrix at T = 0, and its eigenvalues are written as 0.0
    path = write_config(
        tmp_path,
        "[experiment]\nkind = observability-sweep\n[manifold]\nd = 2\nN = 32\n[run]\nT = 0\n",
    )
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "gramian.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["h"] for r in rows] == ["0.25", "0.125", "0.0625"]
    assert all(r["min_eig"] == r["max_eig"] == "0.0" for r in rows)


# ---------------------------------------------------------------------------
# configs that used to pass validate and then fail (or hang) at run
# ---------------------------------------------------------------------------

SIMULATE = "[experiment]\nkind = simulate\n[manifold]\nd = 1\nN = 16\n"
STABILIZE = "[experiment]\nkind = stabilize\n[manifold]\nd = 1\nN = 32\n[run]\nT = 0.02\n"
SWEEP = ("[experiment]\nkind = observability-sweep\n[manifold]\nd = 1\nN = 32\n"
         "[sweep]\nj_values = 2\n")
BANDED = ("[experiment]\nkind = control-linear\n[manifold]\nd = 1\nN = 32\n"
          "[region]\nlo = 1.0\nhi = 3.0\n[run]\ndatum_band = 3\n[control]\ncontrol_band = 3\n")
# the fixed-point keys are keys of control-nonlinear only
NONLINEAR = BANDED.replace("control-linear", "control-nonlinear")


@pytest.mark.parametrize(
    "text,message",
    [
        ("[experiment]\nkind = observability-sweep\n[manifold]\nd = 1\nN = 32\n"
         "[sweep]\nj_values = 2\nquad_dt = 0\n", "quad_dt must be positive"),
        ("[experiment]\nkind = observability-sweep\n[manifold]\nd = 1\nN = 32\n"
         "[run]\nT = -1\n[sweep]\nj_values = 2\n", "T must be >= 0"),
        ("[experiment]\nkind = bourgain-probe\n[manifold]\nd = 1\nN = 16\n[sweep]\nb = 0.3\n",
         "b' < 1/2 < b"),
        ("[experiment]\nkind = simulate\n[manifold]\nd = 1\nN = 16\n"
         "[run]\nT = 0.01\nsnapshot_stride = 0\n", "snapshot_stride must be >= 1"),
        (GCC_CHECK + "[gcc]\nn_angles = -1\n", "n_angles must be >= 0"),
        # an infinite horizon was an OverflowError traceback at run
        (SIMULATE + "[run]\nT = inf\n", "[run] T: 'inf' is not finite"),
        (SWEEP + "[run]\nT = inf\n", "[run] T: 'inf' is not finite"),
        # NaN steps failed at run after the output directory existed
        (SIMULATE + "[run]\nT = 0.01\n[solver]\ndt = nan\n", "[solver] dt: 'nan' is not finite"),
        (BANDED + "verify_dt = nan\n", "[control] verify_dt: 'nan' is not finite"),
        (BANDED + "verify_dt = -1\n", "verify_dt and solve_dt must be positive"),
        (NONLINEAR + "solve_dt = 0\n", "verify_dt and solve_dt must be positive"),
        # a negative tolerance ran 600 CG iterations and exited 1
        (BANDED + "cg_tol = -1\n", "cg_tol must lie in (0, 1)"),
        # a nonpositive fixed-point tolerance was reported as a too-large datum
        (NONLINEAR + "fixedpoint_tol = -1\n", "fixedpoint_tol must be positive"),
        # NaN region data gave an all-zero damping profile and exit 0
        (STABILIZE + "[region]\nsmoothing_width = nan\n",
         "[region] smoothing_width: 'nan' is not finite"),
        (STABILIZE + "[region]\nlo = nan\n", "[region] lo: 'nan' is not finite"),
        # configparser errors were tracebacks at validate
        (SIMULATE + "[run]\nT = 1\nT = 2\n", "already exists"),
        (SIMULATE + "[run]\nT = 5%\n", "'%' must be followed by"),
        # a datum with no mode in the dealiasing ball wrote a ledger and
        # snapshots, then failed the decay fit on zero energies
        (STABILIZE + "datum = zero\n", "no mode in the dealiasing ball"),
        (STABILIZE + "datum = plane-wave\ndatum_mode = 11\n", "no mode in the dealiasing ball"),
        # keys the run does not read were ignored: a misspelt band ran unbanded
        (BANDED.replace("control_band", "contol_band"),
         "[control] contol_band is not a key of control-linear"),
        (BANDED + "[solver]\ndt = 1e-3\n", "[solver] dt is not a key of control-linear"),
        # the control kinds read [solver] k_nl alone; ControlProblem checks it
        (BANDED + "[solver]\nk_nl = 0\n", "k_nl must be >= 1"),
        (SIMULATE + "[run]\nT = 0.01\ndatum = plane-wave\ndatum_norm = 2\n",
         "[run] datum_norm is not a key of simulate"),
        # a negative band gave empty fields and wrote trilinear_max_ratio 0.0
        ("[experiment]\nkind = bourgain-probe\n[manifold]\nd = 1\nN = 16\n"
         "[sweep]\nspace_band = -1\n", "space_band must be >= 0"),
        # the taper's edges need more than 8 samples: M_t = 8 failed at run
        ("[experiment]\nkind = bourgain-probe\n[manifold]\nd = 1\nN = 16\n"
         "[sweep]\nM_t = 8\ntime_band = 2\n", "M_t must be even and > 8"),
    ],
    ids=["sweep-quad_dt", "sweep-T", "bourgain-b", "simulate-stride", "gcc-n_angles",
         "simulate-T-inf", "sweep-T-inf", "solver-dt-nan", "verify_dt-nan",
         "verify_dt-negative", "solve_dt-zero", "cg_tol-negative",
         "fixedpoint_tol-negative", "smoothing_width-nan", "lo-nan", "duplicate-key",
         "bad-interpolation", "stabilize-zero-datum", "stabilize-datum-outside-ball",
         "misspelt-key", "control-solver-dt", "control-k_nl-zero", "plane-wave-datum_norm",
         "bourgain-space_band-negative", "bourgain-M_t-8"],
)
def test_validate_catches_what_used_to_fail_at_run(tmp_path, capsys, text, message):
    path = write_config(tmp_path, text)
    assert main(["validate", path]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["simulate", "stabilize", "control-linear", "control-nonlinear"])
def test_a_negative_datum_norm_fails_validation(tmp_path, capsys, kind):
    # a negative norm ran and wrote the datum scaled to norm +1, sign flipped
    cfg = configparser.ConfigParser()
    cfg.read_string(f"[experiment]\nkind = {kind}\nseed = 3\n{TINY[kind][0]}")
    cfg.set("run", "datum_norm", "-1")
    path = tmp_path / "run.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    assert main(["validate", str(path)]) == 2
    assert "[run] datum_norm = -1.0: a norm must be >= 0" in capsys.readouterr().err
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_a_config_of_defaults_validates(tmp_path, kind):
    assert main(["validate", write_config(tmp_path, f"[experiment]\nkind = {kind}\n")]) == 0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_describe_lists_every_key_the_builder_reads(tmp_path, capsys, monkeypatch, kind):
    loaded, original = [], cli._load_config

    def load(path):
        loaded.append(original(path))
        return loaded[-1]

    path = write_config(tmp_path, f"[experiment]\nkind = {kind}\nseed = 3\n{TINY[kind][0]}")
    with monkeypatch.context() as m:
        m.setattr(cli, "_load_config", load)
        assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["describe", kind]) == 0
    described = {
        (section, key.lower())
        for section, keys in re.findall(r"^\s*\[(\w+)\] (\S+)$", capsys.readouterr().out, re.M)
        for key in keys.split(",")
    }
    assert sorted(loaded[0].read_keys - described) == []


def test_gcc_witness_is_written_as_plain_floats(tmp_path):
    path = write_config(tmp_path, GCC_CHECK + "[gcc]\nt_max = 20\n")
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert lines[0] == "gcc fails: witness geodesic"
    assert lines[1] == "start = (0.0, 0.0)"
    name, value = lines[2].split(" = ")
    direction = ast.literal_eval(value)
    assert name == "direction"
    assert all(type(x) is float for x in direction) and direction[1] == 1.0
    # the witness runs along axis 1, n = (0, 1): it closes after 2 pi <= 20,
    # so its miss holds for all time
    assert lines[3] == "t_max = 20.0"
    assert lines[4] == (
        f"the witness closes after length {2 * math.pi!r} <= t_max, so it misses"
        " the region for all time"
    )
    # at t_max = 5 the last direction to miss from (0, 0) is the sampled
    # angle 19 pi / 32, which closes on no small integer vector
    path = write_config(tmp_path, GCC_CHECK + "[gcc]\nt_max = 5\n")
    assert main(["run", path, "--output", str(tmp_path / "short")]) == 0
    lines = (tmp_path / "short" / "summary.txt").read_text().splitlines()
    assert lines[0] == "gcc fails: witness geodesic"
    assert ast.literal_eval(lines[2].split(" = ")[1])[0] == pytest.approx(math.cos(19 * math.pi / 32))
    assert lines[4] == "the witness misses the region up to t_max"
    assert len(lines) == 5


def test_gcc_summary_states_t0_as_a_sampled_lower_bound(tmp_path):
    # the T0 line stays "T0 = <repr>" for readers that split on " = "; the
    # line after it says what T0 is and has no " = " of its own
    body, _ = TINY["gcc-check"]
    path = write_config(tmp_path, GCC_CHECK + body)
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert lines[0] == "gcc holds on the sampled family"
    name, value = lines[1].split(" = ")
    assert name == "T0" and float(value) > 0.0
    assert " = " not in lines[2] and "lower bound" in lines[2]


@pytest.mark.parametrize("d, N, code", [(3, 18, 2), (2, 64, 0)])
def test_validate_refuses_damping_blocks_above_the_cap(tmp_path, capsys, d, N, code):
    # a ball varies on every axis: one block of m^d modes, m = 2 floor(N/3) + 1,
    # so m^(2d) entries, 13^6 at d3N18 and 43^4 at d2N64 against the 2^22 cap
    path = write_config(
        tmp_path,
        f"[experiment]\nkind = stabilize\n[manifold]\nd = {d}\nN = {N}\n"
        "[region]\ntype = ball\nradius = 2.5\n",
    )
    assert main(["validate", path]) == code
    err = capsys.readouterr().err
    if code:
        assert f"blocks need {13 ** 6} entries" in err
        assert "use a profile constant along more axes, or a smaller N" in err
    else:
        assert err == ""


def test_validate_refuses_a_hum_operator_above_the_cap(tmp_path, capsys):
    # unbanded at d2N64: A and Lambda would be 4096 x 4096 complex each
    path = write_config(
        tmp_path,
        "[experiment]\nkind = control-linear\n[manifold]\nd = 2\nN = 64\n"
        "[region]\nlo = 1.0\nhi = 3.0\n",
    )
    assert main(["validate", path]) == 2
    assert f"{2 * 16 * 4096 * 4096} bytes" in capsys.readouterr().err


def test_run_onto_a_file_exits_2_before_the_solve(tmp_path, capsys, monkeypatch):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    path = write_config(tmp_path, f"[experiment]\nkind = simulate\n{TINY['simulate'][0]}")
    monkeypatch.setattr(cli, "evolve_nonlinear", lambda *a: pytest.fail("the solve ran"))
    assert main(["run", path, "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot make output directory")
    assert "Traceback" not in err
    assert target.read_text() == "not a directory\n"


def _band_dim(d, N, j):
    return int(band_mode_mask(b4nls.make_torus(d, N, 1.0), 2.0 ** (-j)).sum())


def test_validate_caps_the_band_gramian(tmp_path, capsys):
    # the default j = 2..5 at d3N32 reaches bands of 7,634 and 26,596 modes;
    # d2N64 up to j = 5 (2,487 modes) is the largest sweep on record
    assert _band_dim(3, 32, 3) ** 2 > MAX_BAND_ENTRIES >= _band_dim(2, 64, 5) ** 2
    sweep = "[experiment]\nkind = observability-sweep\n[manifold]\nd = {}\nN = {}\n"
    path = write_config(tmp_path, sweep.format(3, 32))
    assert main(["validate", path]) == 2
    assert f"the h = 0.125 band has {_band_dim(3, 32, 3)} modes" in capsys.readouterr().err
    path = write_config(tmp_path, sweep.format(2, 64) + "[sweep]\nj_values = 2,3,4,5\n")
    assert main(["validate", path]) == 0


@pytest.mark.parametrize("K_max,code", [(512, 0), (2048, 0), (4096, 2), (65536, 2)])
def test_validate_caps_the_resonance_sweep(tmp_path, capsys, K_max, code):
    # the last block holds K_max^2 keys; the bench runs K_max = 512
    assert (K_max**2 <= MAX_SWEEP_KEYS) == (code == 0)
    path = write_config(tmp_path, f"[experiment]\nkind = resonance-sweep\n[sweep]\nK_max = {K_max}\n")
    assert main(["validate", path]) == code
    if code:
        assert f"K_max = {K_max}: the last block has {K_max**2} phase-sum keys" in (
            capsys.readouterr().err
        )


# ---------------------------------------------------------------------------
# T^3 through the CLI
# ---------------------------------------------------------------------------

D3 = "[manifold]\nd = 3\nN = 16\n"
D3_STRIP = "[region]\nlo = 0.5\nhi = 3.5\nsmoothing_width = 0.8\n"


@pytest.mark.parametrize(
    "kind,body",
    [
        ("simulate", D3 + "[run]\nT = 0.01\n"),
        ("stabilize", D3 + D3_STRIP + "[solver]\nrecord_stride = 5\n[run]\nT = 0.02\n"),
        ("control-linear", D3 + D3_STRIP + "[run]\nT = 0.2\ndatum_band = 2\n"
         "[control]\ncontrol_band = 2\nverify_dt = 1e-3\n"),
    ],
    ids=["simulate", "stabilize", "control-linear"],
)
def test_d3_runs_through_the_cli(tmp_path, kind, body):
    path = write_config(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n{body}")
    assert main(["run", path, "--output", str(tmp_path / "out")]) == 0
    assert "status: ok" in (tmp_path / "out" / "manifest.txt").read_text().splitlines()


# ---------------------------------------------------------------------------
# fuzzed configs
# ---------------------------------------------------------------------------

# kind -> the float keys its TINY config reads (resonance-sweep reads none,
# so its integer keys stand in); N and d are never drawn, since a large
# lattice is allocated at validate
FUZZ_KEYS = {
    "simulate": ["manifold.beta", "solver.dt", "run.T", "run.datum_norm", "run.datum_decay"],
    "stabilize": ["manifold.beta", "solver.dt", "run.T", "run.datum_norm", "run.datum_decay",
                  "region.lo", "region.hi", "region.smoothing_width"],
    "control-linear": ["manifold.beta", "run.T", "run.datum_norm", "run.datum_decay",
                       "region.lo", "region.hi", "region.smoothing_width", "control.cg_tol",
                       "control.verify_dt"],
    "observability-sweep": ["manifold.beta", "run.T", "region.lo", "region.hi",
                            "region.smoothing_width", "sweep.quad_dt"],
    "gcc-check": ["region.lo", "region.hi", "gcc.t_max"],
    "resonance-sweep": ["sweep.K_max", "sweep.beta_p", "sweep.beta_q"],
    "bourgain-probe": ["manifold.beta", "sweep.b", "sweep.b_prime", "sweep.s"],
}
FUZZ_KEYS["control-nonlinear"] = FUZZ_KEYS["control-linear"] + ["control.fixedpoint_tol",
                                                                 "control.solve_dt"]
NON_FINITE = ("nan", "inf", "-inf")
# the datum draws of the flow and control kinds; a datum kind replaces the
# random datum's keys of the TINY config
DATUM_DRAWS = [("run.datum", "zero"), ("run.datum", "plane-wave"),
               ("run.datum_norm", "0.3"), ("run.datum_norm", "1e6")]
RANDOM_DATUM_KEYS = ("datum_norm", "datum_decay", "datum_band")


@st.composite
def _fuzzed_configs(draw):
    kind = draw(st.sampled_from(sorted(TINY)))
    if kind in ("simulate", "stabilize", "control-linear", "control-nonlinear") and draw(
        st.booleans()
    ):
        key, value = draw(st.sampled_from(DATUM_DRAWS))
        return kind, key, value
    key = draw(st.sampled_from(FUZZ_KEYS[kind]))
    value = draw(st.sampled_from(NON_FINITE + ("-1", "0", "x", "")))
    return kind, key, value


# each draw validates, and a draw that validates also runs: no input that
# validate admits is refused at run (exit 2) or ends in a traceback
@settings(max_examples=200, deadline=None)
@given(_fuzzed_configs())
# pinned draws: a zero linear datum leaves CG nothing to do, a nonlinear
# datum of H^2 norm 0.3 lies inside the measured basin, and a datum of 1e6
# overflows to NaN in the first step, which the blow-up guard must catch
@example(("control-linear", "run.datum", "zero"))
@example(("control-nonlinear", "run.datum_norm", "0.3"))
@example(("simulate", "run.datum_norm", "1e6"))
def test_validate_of_a_fuzzed_config_exits_0_or_2(case):
    kind, key, value = case
    cfg = configparser.ConfigParser()
    cfg.read_string(f"[experiment]\nkind = {kind}\nseed = 3\n{TINY[kind][0]}")
    section, option = key.split(".")
    if not cfg.has_section(section):
        cfg.add_section(section)
    if option == "datum":
        for other in RANDOM_DATUM_KEYS:
            cfg.remove_option(section, other)
    cfg.set(section, option, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            cfg.write(fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", path])
            assert code in (0, 2)
            if value in NON_FINITE:
                assert code == 2
                assert f"[{section}] {option}" in err.getvalue()
            # an empty [run] T gives stabilize its default horizon T = 20,
            # 20,000 steps: validated, but too long to run here
            if code == 0 and case != ("stabilize", "run.T", ""):
                with np.errstate(all="ignore"):
                    code = main(["run", path, "--output", os.path.join(tmp, "out")])
                assert code in (0, 1), err.getvalue()
