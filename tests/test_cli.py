import os
import subprocess
import sys

import pytest

import b4nls
from b4nls.cli import main


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
        (GCC_CHECK + "[gcc]\neps_t = 0\n", "eps_t must be positive"),
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
