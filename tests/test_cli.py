import os
import subprocess
import sys

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


def test_cli_import_leaves_sympy_unloaded():
    src = os.path.dirname(b4nls.__path__[0])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import b4nls.cli; "
        "assert 'sympy' not in sys.modules, 'sympy imported eagerly'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
