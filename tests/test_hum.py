import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import b4nls as b
from b4nls import cli, dynamics, hum
from b4nls.hum import (
    HumOperator,
    backward_forced_initial,
    control_forcing,
    multiplication_matrix,
    time_average_kernel,
)
from b4nls.linalg import cg_hermitian
from b4nls.spectral import (
    MAX_BLOCK_ENTRIES, box_mask, free_phase, hs_norm, nonlinear_term, profile_product,
    sandwich, sobolev_weights,
)
from oracles import operator_layout, propagate_free, verify_certificate

PI = math.pi


def strip_phi(spec, width=None):
    return b.make_damping_profile(spec, b.Strip(PI / 2, 3 * PI / 2), width)


def rand_field(spec, seed, **kw):
    return b.random_field(spec, np.random.default_rng(seed), **kw)


def dense_of(phi, band, blocks):
    """The n x n matrix that holds an operator's block stack on its
    (rows x layout) entries and 0.0 elsewhere: the oracle layout's, each
    group's rows in lattice order, as the operator keeps them."""
    layout, rows = operator_layout(phi, band)
    n = phi.spec.n_modes
    out = np.zeros((n, n), dtype=complex)
    out[np.sort(rows, axis=1)[:, :, None], layout[:, None, :]] = blocks
    return out


# ---------------------------------------------------------------------------
# the duality operator
# ---------------------------------------------------------------------------

def test_time_average_kernel_matches_node_sum():
    X = np.array([0.0, 2.0, 17.0, 1.05e6])
    T, dt = 1.0, 1e-3
    E = time_average_kernel(X, T, dt)
    n = round(T / dt)
    ts = np.linspace(0.0, T, n + 1)
    wts = np.full(n + 1, dt)
    wts[0] = wts[-1] = dt / 2
    for a in range(len(X)):
        for c in range(len(X)):
            brute = np.sum(wts * np.exp(1j * ts * (X[c] - X[a])))
            assert abs(brute - E[a, c]) <= 1e-9


def test_time_average_kernel_exact_limit():
    X = np.array([0.0, 5.0, 123.0])
    T = 0.7
    exact = time_average_kernel(X, T, None)
    fine = time_average_kernel(X, T, 1e-6)
    assert np.abs(exact - fine).max() <= 1e-8
    assert np.allclose(np.diag(exact), T)


@pytest.mark.parametrize("T", [0.7, 1.0, 2.3])
def test_exact_time_kernel_is_the_sinc_form(T):
    # frequencies w = X_k - X_l of both signs, up to 1.05e6
    X = np.array([0.0, 2.0, 17.0, 123.0, 5.5e3, 7.0e4, 1.05e6])
    w = X[None, :] - X[:, None]
    sinc_form = T * np.exp(0.5j * w * T) * np.sinc(w * T / (2.0 * PI))
    assert np.abs(time_average_kernel(X, T, None) - sinc_form).max() <= 1e-15 * T


@pytest.mark.parametrize("quadrature", [None, 1e-3], ids=["exact", "trapezoid"])
def test_time_average_kernel_is_zero_at_zero_horizon(quadrature):
    # the trapezoid rule's step T / n is 0 at T = 0; it divided by it
    E = time_average_kernel(np.arange(3.0), 0.0, quadrature)
    assert E.shape == (3, 3) and not E.any()


@pytest.mark.parametrize("quadrature", [None, 1e-3], ids=["exact", "trapezoid"])
def test_time_kernel_holds_one_complex_array(quadrature):
    # b = 1,000 frequencies: the call's traced peak stays below three times
    # its result, so the temporaries beside it are real
    X = b.make_torus(1, 1000, 1.0).dispersion
    tracemalloc.start()
    try:
        E = time_average_kernel(X, 1.0, quadrature)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert E.shape == (1000, 1000)
    assert peak <= 3.0 * E.nbytes


def test_the_dual_support_has_one_owner():
    # the problem's operator cap and datum check and the operator's blocks
    # all read the support from spectral.KernelBlocks: hum.py calls no
    # box_mask, and the operator's groups are the oracle layout's
    spec = b.make_torus(2, 16, 1.0)
    phi = strip_phi(spec, 0.6)
    for band, S in ((None, np.arange(spec.n_modes)), (3, np.flatnonzero(box_mask(spec, 3)))):
        layout, rows = operator_layout(phi, band)
        assert np.array_equal(np.sort(layout.ravel()), S)
        # rows[j]: layout[j] first, then every other mode with its k_1
        assert np.array_equal(rows[:, :layout.shape[1]], layout)
        assert rows.shape == (len(layout), 16) and len(np.unique(rows)) == rows.size
        k1 = np.unravel_index(rows, spec.shape)[1]
        assert np.all(k1 == np.unravel_index(layout[:, :1], spec.shape)[1])
        op = HumOperator(spec, phi, 0.5, band=band)
        modes = np.arange(spec.n_modes).reshape(spec.shape)
        assert np.array_equal(op.blocks.gather(modes), layout)
        assert np.array_equal(op.blocks.gather(modes, rows=True), np.sort(rows, axis=1))
    for region in (b.Strip(PI / 2, 3 * PI / 2, 1), b.Ball((PI, PI), 2.5)):
        layout, rows = operator_layout(b.make_damping_profile(spec, region, 0.6), 3)
        assert np.array_equal(rows[:, :layout.shape[1]], layout)
    source = Path(hum.__file__).read_text()
    assert source.count("box_mask(") == 0


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_banded_operator_is_the_full_operators_support_columns(d, N):
    spec = b.make_torus(d, N, 1.0)
    phi = strip_phi(spec, 0.6)
    full = HumOperator(spec, phi, 0.8)
    # the block assembly of A against the dense oracle M S^2 M
    M = multiplication_matrix(spec, phi.values)
    dense = (M * sobolev_weights(spec, -2).ravel()[None, :]) @ M
    assert np.abs(dense_of(phi, None, full.A) - dense).max() <= 1e-13 * np.abs(dense).max()
    assert full.matrix.shape == full.block.shape == (N ** (d - 1), N, N)
    banded = HumOperator(spec, phi, 0.8, band=3)
    S = np.flatnonzero(box_mask(spec, 3))
    assert banded.A.shape == banded.matrix.shape == (7 ** (d - 1), N, 7)
    modes = np.arange(spec.n_modes).reshape(spec.shape)
    assert np.array_equal(np.sort(banded.blocks.gather(modes).ravel()), S)
    for part in ("A", "matrix"):
        ref = dense_of(phi, None, getattr(full, part))
        ref[:, np.delete(np.arange(spec.n_modes), S)] = 0.0
        got = dense_of(phi, 3, getattr(banded, part))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.shares_memory(banded.block, banded.matrix)
    assert np.array_equal(banded.block, banded.matrix[:, N // 2 - 3:N // 2 + 4])


def test_multiplication_matrix_matches_grid_product():
    spec = b.make_torus(1, 32, 1.0)
    phi = strip_phi(spec)
    M = multiplication_matrix(spec, phi.values)
    u = rand_field(spec, 0)
    via_grid = profile_product(spec, phi.values, u.coeffs)
    via_matrix = (M @ u.coeffs.ravel()).reshape(spec.shape)
    assert np.abs(via_grid - via_matrix).max() <= 1e-12


def test_lambda_full_weight_closed_form():
    # phi == 1 commutes with the flow: Lambda = T (1 - Lap)^{-2}
    spec = b.make_torus(1, 64, 1.0)
    phi1 = b.DampingProfile(spec, np.full(spec.shape, 1.0))
    T = 1.3
    op = HumOperator(spec, phi1, T)
    e1 = op.apply(b.basis_field(spec, 1).coeffs)
    assert e1[33] == pytest.approx(T / 4.0, abs=1e-12)
    v = rand_field(spec, 1)
    lv = op.apply(v.coeffs)
    expect = T * sobolev_weights(spec, -2) * v.coeffs
    assert np.abs(lv - expect).max() <= 1e-10


def test_lambda_zero_input():
    spec = b.make_torus(1, 32, 1.0)
    out = HumOperator(spec, strip_phi(spec), 1.0).apply(b.zero_field(spec).coeffs)
    assert np.linalg.norm(out) == 0.0


def test_lambda_self_adjoint_nonnegative():
    spec = b.make_torus(1, 64, 1.0)
    phi = strip_phi(spec)
    op = HumOperator(spec, phi, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lv, lw = op.apply(v), op.apply(w)
        sym = abs(np.vdot(w, lv) - np.vdot(lw, v))
        assert sym <= 1e-10 * np.linalg.norm(lv) * np.linalg.norm(w)
        assert np.real(np.vdot(v, lv)) >= -1e-12


def test_duality_identity_random_forcing():
    # -i <u(0), v0> = int <h, v> dt for the backward solve against any
    # free dual trajectory, on a shared quadrature grid
    spec = b.make_torus(1, 32, 1.0)
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 501)
    h = rng.standard_normal((len(times),) + spec.shape) + 1j * rng.standard_normal(
        (len(times),) + spec.shape
    )
    u0 = backward_forced_initial(free_phase(-times, spec.dispersion), times, h)
    v0 = rand_field(spec, 4).coeffs
    phases = np.exp(1j * times[:, None] * spec.dispersion.ravel()[None, :])
    vt = phases * v0.ravel()[None, :]
    pairing = np.sum(h.reshape(len(times), -1) * np.conj(vt), axis=1)
    rhs = np.trapezoid(pairing, times)
    lhs = -1j * np.vdot(v0, u0)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_control_cost_reciprocity():
    # (Lambda v0, v0) = int || (1-Lap)^{-1} (phi v) ||^2 dt along the free
    # trajectory, checked against a direct trajectory computation
    spec = b.make_torus(1, 32, 1.0)
    phi = strip_phi(spec)
    T, dt = 1.0, 1e-3
    op = HumOperator(spec, phi, T)
    X = spec.dispersion.ravel()
    v0 = rand_field(spec, 5).coeffs
    lam = dense_of(phi, None, op.A) * time_average_kernel(X, T, dt)  # the trapezoid rule on the same grid
    lhs = float(np.real(np.vdot(v0.ravel(), lam @ v0.ravel())))
    n = round(T / dt)
    ts = np.linspace(0.0, T, n + 1)
    wts = np.full(n + 1, dt)
    wts[0] = wts[-1] = dt / 2
    s1 = sobolev_weights(spec, -1)
    total = 0.0
    for t, w in zip(ts, wts):
        vt = propagate_free(b.SpectralField(spec, v0), float(t))
        sv = s1 * profile_product(spec, phi.values, vt.coeffs)
        total += w * float(np.sum(np.abs(sv) ** 2))
    assert lhs == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------------------
# linear control
# ---------------------------------------------------------------------------

def test_linear_control_zero_problem():
    spec = b.make_torus(1, 32, 1.0)
    prob = b.ControlProblem(
        u0=b.zero_field(spec), T=1.0, phi=strip_phi(spec)
    )
    cert = b.solve_linear_control(prob)
    assert cert.terminal_residual == 0.0
    assert cert.integrator_residual == 0.0
    assert cert.cg_residuals == (0.0,) and cert.lambda_min > 0.0


def test_linear_control_full_weight_closed_form_datum():
    # with phi == 1 the dual datum is the transported (1-Lap)^2 u0 / T
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 6, decay=3.0, band=5), 2.0, 1.0)
    T = 1.0
    prob = b.ControlProblem(
        u0=u0, T=T, phi=b.DampingProfile(spec, np.full(spec.shape, 1.0)), cg_tol=1e-12
    )
    cert = b.solve_linear_control(prob)
    expect = (-1j / T) * (1.0 + spec.k_sq) ** 2 * u0.coeffs
    scale = np.abs(expect).max()
    assert np.abs(cert.dual_datum - expect).max() <= 1e-8 * scale
    assert cert.terminal_residual <= 1e-9


def test_linear_control_strip_small():
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 7, decay=2.0, band=5), 2.0, 1.0)
    prob = b.ControlProblem(
        u0=u0, T=1.0, phi=strip_phi(spec), cg_tol=1e-10
    )
    cert = b.solve_linear_control(prob)
    assert cert.relative_residual <= 1e-7
    assert cert.integrator_residual <= 1e-3  # finite-step cross-check


def test_linear_control_nonzero_target():
    # steering u0 to u1 is steering the transported difference u0 - e^{-iTL} u1
    # to rest: the control synthesized for it brings u0 itself to u1
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 8, decay=2.0, band=4), 2.0, 1.0)
    u1 = b.normalize_sobolev(rand_field(spec, 9, decay=2.0, band=4), 2.0, 0.5)
    datum = b.SpectralField(spec, u0.coeffs - free_phase(-1.0, spec.dispersion) * u1.coeffs)
    prob = b.ControlProblem(u0=datum, T=1.0, phi=strip_phi(spec), cg_tol=1e-10)
    cert = b.solve_linear_control(prob)
    assert cert.terminal_residual <= 1e-7
    lam_v0 = HumOperator(spec, prob.phi, 1.0).apply(cert.dual_datum)
    uT = free_phase(1.0, spec.dispersion) * (u0.coeffs - 1j * lam_v0)
    assert hs_norm(spec, uT - u1.coeffs, 2.0) <= 1e-7


def test_linear_control_band_restriction():
    spec = b.make_torus(1, 64, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 10, decay=2.0, band=8), 2.0, 1.0)
    prob = b.ControlProblem(
        u0=u0, T=1.0, phi=strip_phi(spec), control_band=16, cg_tol=1e-10
    )
    cert = b.solve_linear_control(prob)
    keep = np.abs(spec.k1d) <= 16
    assert np.all(cert.dual_datum[~keep] == 0.0)
    # the out-of-band control leak now enters the certified residual
    assert 1e-9 <= cert.relative_residual <= 1e-3


@pytest.mark.parametrize(
    "d, N, region, width, band, target, verify_dt, T",
    [
        (1, 32, b.Strip(PI / 2, 3 * PI / 2), None, None, True, 3e-3, 1.0),  # 333 steps
        (1, 64, b.Strip(PI / 2, 3 * PI / 2), None, 8, False, 1e-3, 1.0),
        (2, 32, b.Strip(1.0, 3.0), None, 3, False, 2e-2, 1.0),  # max X dt about 1400
        (2, 32, b.Strip(1.0, 3.0), None, 3, True, 1e-3, 1.0),
        (2, 16, b.Strip(1.0, 3.0), 0.4, None, False, 7e-3, 0.5),  # 71 steps
        (2, 16, b.Ball((PI, PI), 2.0), None, None, False, 1e-3, 0.5),
        (2, 16, b.Ball((PI, PI), 2.0), None, 3, True, 3e-3, 1.0),
        (3, 8, b.Strip(1.0, 3.0), 0.4, 2, False, 1e-3, 0.5),
        (3, 8, b.Ball((PI, PI, PI), 2.0), 0.4, 2, True, 2e-2, 1.0),
    ],
)
def test_linear_integrator_residual_is_the_forced_linear_march(
    monkeypatch, d, N, region, width, band, target, verify_dt, T
):
    # the certificate sums the linear ETDRK4 march in closed form; the
    # oracle steps the scheme's tableau with no nonlinear term and no mask,
    # each stage term subtracting the synthesized control h, sampled on the
    # lattice at the stage times; no src path runs that march
    spec = b.make_torus(d, N, 1.0)
    phi = b.make_damping_profile(spec, region, width)
    rng = np.random.default_rng(30 + d)
    datum_band = min(3, band or 3)
    u0 = b.normalize_sobolev(b.random_field(spec, rng, decay=2.0, band=datum_band), 2.0, 1.0)
    u1 = b.normalize_sobolev(b.random_field(spec, rng, decay=2.0, band=datum_band), 2.0, 0.5)
    if target:  # steering to u1: the transported difference is the datum
        u0 = b.SpectralField(spec, u0.coeffs - free_phase(-T, spec.dispersion) * u1.coeffs)
    prob = b.ControlProblem(u0=u0, T=T, phi=phi, control_band=band, verify_dt=verify_dt)
    monkeypatch.setattr(hum, "evolve_nonlinear", None)
    cert = b.solve_linear_control(prob)
    assert verify_certificate(prob, cert) == cert.terminal_residual
    monkeypatch.undo()
    n, dt = dynamics.step_grid(T, verify_dt)
    t = np.arange(n + 1) * dt
    op = HumOperator(spec, phi, T, band)
    X, v = op.blocks.gather(spec.dispersion), op.blocks.gather(cert.dual_datum)
    h = op.control_weight(free_phase(np.concatenate([t, 0.5 * (t[:-1] + t[1:])]), X) * v)
    ends, mids = h[:n + 1], h[n + 1:]
    step = dynamics.Etdrk4Tableau(1j * spec.dispersion, dt).stepper(np.zeros_like)
    uT = u0.coeffs.astype(complex)
    for samples in zip(ends[:-1], mids, mids, ends[1:]):
        uT = step(uT, None, samples)
    miss = hs_norm(spec, uT, 2.0)
    assert cert.integrator_residual == pytest.approx(miss, rel=1e-12, abs=0.0)


def _one_point_profile(spec):
    values = np.zeros(spec.shape)
    values[(0,) * spec.d] = 1.0
    return b.DampingProfile(spec, values)


@pytest.mark.parametrize(
    "profile", [lambda spec: b.DampingProfile(spec, np.full(spec.shape, 0.0)), _one_point_profile],
    ids=["zero-profile", "one-point-profile"],
)
def test_singular_gramian_exits_1_as_unobservable(tmp_path, capsys, monkeypatch, profile):
    # a zero profile gives Lambda = 0; a profile on one grid point gives a
    # rank-one A, and Lambda's rows at k and -k, which share a frequency,
    # are parallel. The solve's true residual refuses both, with no warning.
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 11, decay=2.0), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=profile(spec))
    monkeypatch.setattr(cli, "_build_profile", lambda cfg, spec: profile(spec))
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nkind = control-linear\n[manifold]\nd = 1\nN = 32\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(b.ControlStagnationError, match="observable"):
            b.solve_linear_control(prob)
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "observable" in err and "Traceback" not in err


def test_certificate_residual_is_the_true_residual():
    # the gate and the certificate read ||b - Lambda[S, S] x|| / ||b||,
    # computed afresh on the whole of Lambda[S, S]'s blocks; lambda_min and
    # condition are the extreme eigenvalues of Lambda[S, S]
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 11, decay=2.0), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec), cg_tol=1e-12)
    cert = b.solve_linear_control(prob)
    op = HumOperator(spec, prob.phi, prob.T)
    layout = operator_layout(prob.phi, None)[0]
    S = layout.ravel()
    bs = -1j * prob.u0.coeffs.ravel()[S]
    x = cert.dual_datum.ravel()[layout][..., None]
    true = np.linalg.norm(bs - (op.block @ x).ravel())
    assert cert.cg_residuals[0] == pytest.approx(true / np.linalg.norm(bs), rel=1e-12)
    assert cert.cg_residuals[0] <= prob.cg_tol
    ev = np.linalg.eigvalsh(dense_of(prob.phi, None, op.matrix)[np.ix_(S, S)])
    assert cert.lambda_min == pytest.approx(ev[0], rel=1e-8)
    assert cert.condition == pytest.approx(ev[-1] / ev[0], rel=1e-8)


@pytest.mark.parametrize("d,N,width", [(2, 16, 0.6), (3, 8, 0.6)])
@pytest.mark.parametrize("band", [None, 2])
def test_strip_gramian_is_block_diagonal(d, N, width, band):
    # a strip across axis 0 is constant along the others: the control
    # weight maps each basis vector of a group into the group's rows and is
    # exactly 0.0 elsewhere, so A and Lambda = E o A live on the
    # (rows x layout) entries, where the blocks equal the dense oracle
    spec = b.make_torus(d, N, 1.0)
    phi = strip_phi(spec, width)
    op = HumOperator(spec, phi, 0.8, band=band)
    m = N if band is None else 2 * band + 1
    layout, rows_of = operator_layout(phi, band)
    rows_of = np.sort(rows_of, axis=1)  # the operator keeps each group's rows in lattice order
    assert layout.shape == (m ** (d - 1), m) and rows_of.shape == (m ** (d - 1), N)
    s2 = sobolev_weights(spec, -2)
    for group, rows in zip(layout, rows_of):
        e = np.zeros((len(group), spec.n_modes), dtype=complex)
        e[np.arange(len(group)), group] = 1.0
        cols = sandwich(spec, phi.compact, e.reshape((-1,) + spec.shape))
        assert not np.delete(cols.reshape(len(group), -1), rows, axis=1).any()
    M = multiplication_matrix(spec, phi.values)
    A = (M * s2.ravel()) @ M
    lam = A * time_average_kernel(spec.dispersion.ravel(), 0.8, None)
    for part, dense in (("A", A), ("matrix", lam)):
        ref = np.stack([dense[np.ix_(r, g)] for r, g in zip(rows_of, layout)])
        assert np.abs(getattr(op, part) - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.all(np.abs(np.diagonal(op.block, axis1=1, axis2=2)) > 0.0)


@pytest.mark.parametrize("d,N,band", [(1, 32, None), (2, 16, 3), (2, 16, None)])
def test_block_solve_matches_a_dense_solve(d, N, band):
    spec = b.make_torus(d, N, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 17, decay=2.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec, 0.6), control_band=band)
    op = HumOperator(spec, prob.phi, prob.T, band=band)
    rhs = -1j * prob.u0.coeffs
    v0, _ = hum._solve_hum_system(prob, op, rhs)
    S = operator_layout(prob.phi, band)[0].ravel()
    dense = np.linalg.solve(dense_of(prob.phi, band, op.matrix)[np.ix_(S, S)], rhs.ravel()[S])
    x = v0.ravel()[S]
    assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)


def test_block_solve_matches_the_cg_oracle():
    # a well-conditioned d1N32 problem (band 3, cond about 66): CG to 1e-13
    # lands on the factored solve
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 18, decay=2.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec), control_band=3)
    op = HumOperator(spec, prob.phi, prob.T, band=3)
    rhs = -1j * prob.u0.coeffs
    S = operator_layout(prob.phi, 3)[0].ravel()
    lam = dense_of(prob.phi, 3, op.matrix)[np.ix_(S, S)]
    x_cg, _, _ = cg_hermitian(lambda z: lam @ z, rhs.ravel()[S], tol=1e-13, max_iter=200)
    x = hum._solve_hum_system(prob, op, rhs)[0].ravel()[S]
    assert np.linalg.norm(x - x_cg) <= 1e-11 * np.linalg.norm(x_cg)


def test_the_factors_are_built_once_per_operator(monkeypatch):
    # the fixed point reuses one factorization; re-verifying factors nothing
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 16, decay=2.0, band=5), 2.0, 1e-2)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec), verify_dt=1e-3)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    cert = b.solve_nonlinear_control(prob)
    assert len(cert.cg_residuals) >= 3 and len(calls) == 1
    verify_certificate(prob, cert)
    assert len(calls) == 1


def test_control_outputs_reproduce_under_a_roundoff_scaling(monkeypatch):
    # the bench's control-linear setup (d2N32, strip (1,3), band 3); scaling
    # the blocks of A and Lambda by 1 + 2^-52 (Lambda[S, S]'s blocks are a
    # view of Lambda's) leaves the residuals of the factored solve in place
    # to 1e-13
    spec = b.make_torus(2, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 3, decay=2.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0,
                            phi=b.make_damping_profile(spec, b.Strip(1.0, 3.0)),
                            control_band=3, verify_dt=1e-3)
    ref = b.solve_linear_control(prob)
    init = HumOperator.__init__

    def scaled(self, *args, **kw):
        init(self, *args, **kw)
        for part in ("A", "matrix"):
            getattr(self, part)[...] *= 1.0 + 2.0**-52

    monkeypatch.setattr(HumOperator, "__init__", scaled)
    cert = b.solve_linear_control(prob)
    for field in ("terminal_residual", "relative_residual", "integrator_residual"):
        assert getattr(cert, field) == pytest.approx(getattr(ref, field), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("field", ["T", "verify_dt", "solve_dt"])
def test_control_problem_refuses_an_infinite_horizon_or_step(field):
    # all three constructed and failed only in the verifying march
    spec = b.make_torus(1, 32, 1.0)
    kw = {"T": 1.0, field: math.inf}
    with pytest.raises(ValueError, match="finite"):
        b.ControlProblem(u0=rand_field(spec, 19, band=3), phi=strip_phi(spec), **kw)


def test_grid_refinement_stability():
    # band-limited datum: doubling N barely moves the terminal miss in the
    # L^2 pivot of the HUM system (the H^2 report just reweights the same
    # residual)
    datum_band = 5
    cg_tol = 1e-10
    rng = np.random.default_rng(12)
    raw = rng.standard_normal(2 * datum_band + 1) + 1j * rng.standard_normal(
        2 * datum_band + 1
    )
    misses = []
    for N in (32, 64):
        spec = b.make_torus(1, N, 1.0)
        c = np.zeros(spec.shape, dtype=complex)
        for i, k in enumerate(range(-datum_band, datum_band + 1)):
            c[N // 2 + k] = raw[i]
        u0 = b.normalize_sobolev(b.SpectralField(spec, c), 2.0, 1.0)
        phi = strip_phi(spec, 0.5)
        prob = b.ControlProblem(u0=u0, T=1.0, phi=phi, cg_tol=cg_tol)
        cert = b.solve_linear_control(prob)
        op = HumOperator(spec, phi, 1.0)
        uT = u0.coeffs - 1j * op.apply(cert.dual_datum)
        misses.append(float(np.linalg.norm(uT)))
    assert abs(misses[0] - misses[1]) <= 10.0 * cg_tol


def test_certificate_reverify():
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 13, decay=2.0, band=5), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec))
    cert = b.solve_linear_control(prob)
    again = verify_certificate(prob, cert)
    assert abs(again - cert.terminal_residual) <= 1e-10


# ---------------------------------------------------------------------------
# nonlinear control
# ---------------------------------------------------------------------------

def test_nonlinear_control_zero_datum():
    spec = b.make_torus(1, 32, 1.0)
    prob = b.ControlProblem(
        u0=b.zero_field(spec), T=1.0, phi=strip_phi(spec)
    )
    cert = b.solve_nonlinear_control(prob)
    assert len(cert.fixedpoint_diffs) == 1  # fixed point at the origin
    assert np.all(cert.dual_datum == 0.0)


def test_nonlinear_control_converges_at_h2_norm_one_on_the_default_strip():
    # H^2 norm 1 on the default strip lies inside the measured basin: the
    # contraction ratios stay well below 1
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 14, decay=2.0), 2.0, 1.0)
    prob = b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec))
    cert = b.solve_nonlinear_control(prob)
    assert cert.fixedpoint_diffs[-1] <= prob.fixedpoint_tol
    assert cert.contraction_ratios and all(r < 1.0 for r in cert.contraction_ratios)
    assert cert.relative_residual < 1e-2


def test_nonlinear_control_tiny_datum_matches_linear():
    # at datum size eps the cubic correction is O(eps^3): the nonlinear
    # fixed point lands on the linear dual datum up to solver tolerances
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 15, decay=2.0, band=5), 2.0, 1e-6)
    phi = strip_phi(spec)
    prob = b.ControlProblem(
        u0=u0, T=1.0, phi=phi, cg_tol=1e-12, fixedpoint_tol=1e-14,
        verify_dt=1e-4,
    )
    nl = b.solve_nonlinear_control(prob)
    lin = b.solve_linear_control(prob)
    diff = np.abs(nl.dual_datum - lin.dual_datum).max()
    assert diff <= 1e-10 * max(np.abs(lin.dual_datum).max(), 1e-300)


def test_nonlinear_control_converges_small_datum():
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 16, decay=2.0, band=5), 2.0, 1e-2)
    prob = b.ControlProblem(
        u0=u0, T=1.0, phi=strip_phi(spec), cg_tol=1e-10,
        verify_dt=2e-5, fixedpoint_tol=1e-8,
    )
    cert = b.solve_nonlinear_control(prob)
    assert len(cert.fixedpoint_diffs) <= 10
    assert all(r < 0.5 for r in cert.contraction_ratios)
    assert cert.terminal_residual <= 1e-7


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_trapezoid_time_kernel_near_aliasing(m):
    # w = 2 pi m / dt + delta, where sin(wT/2) and tan(w dt/2) are both
    # small; the oracle is the node sum in long double
    T = 2.3
    n = round(T / 7e-4)
    dt = T / n
    t = np.arange(n + 1, dtype=np.longdouble) * (np.longdouble(T) / n)
    wts = np.full(n + 1, np.longdouble(T) / n)
    wts[[0, -1]] /= 2
    for delta in (1e-9, 1e-7, 1e-5, 1e-3, 0.1, 3.0):
        w = 2.0 * PI * m / dt + delta
        E = time_average_kernel(np.array([0.0, w]), T, 7e-4)[0, 1]
        phase = np.longdouble(w) * t
        oracle = complex(np.sum(wts * np.cos(phase)), np.sum(wts * np.sin(phase)))
        assert abs(E - oracle) <= 1e-10 * T


def test_backward_conjugate_trick_linear_oracle():
    # backward free flow via the conjugation trick equals the direct
    # backward propagator
    spec = b.make_torus(1, 32, 1.0)
    vT = rand_field(spec, 17).coeffs
    T = 0.7
    w0 = np.conj(vT)
    wT = np.exp(1j * T * spec.dispersion) * w0
    v0 = np.conj(wT)
    direct = np.exp(-1j * T * spec.dispersion) * vT
    assert np.abs(v0 - direct).max() <= 1e-12 * np.abs(vT).max()


def test_control_forcing_is_weight_of_free_flow():
    # the wave's weight at e^{itX} v is A e^{itL} v0 on the box, for every
    # mode, a band inside the box and one past it (N/3 < band < N/2), on a
    # profile that varies along one axis, along every axis, or along none
    ts = np.array([0.0, 0.37, 0.81])
    for d, N, region in [(1, 32, "strip"), (2, 16, "strip"), (2, 16, "ball"),
                         (2, 8, "constant"), (3, 8, "strip")]:
        spec = b.make_torus(d, N, 1.0)
        shape = {"strip": b.Strip(PI / 2, 3 * PI / 2), "ball": b.Ball((PI,) * d, 2.0)}
        phi = (b.DampingProfile(spec, np.full(spec.shape, 0.7)) if region == "constant"
               else b.make_damping_profile(spec, shape[region], 0.4))
        for band in (None, N // 3 - 1, N // 2 - 1):
            op = HumOperator(spec, phi, 1.0, band=band)
            v0 = rand_field(spec, 18, band=band).coeffs
            wave = control_forcing(op, v0)
            h = wave.weight(free_phase(ts, wave.X) * wave.v)
            assert h.shape == (len(ts),) + (2 * (N // 3) + 1,) * d
            for t, ht in zip(ts, h):
                vt = propagate_free(b.SpectralField(spec, v0), t)
                expect = sobolev_weights(spec, -2) * profile_product(spec, phi.values, vt.coeffs)
                expect = profile_product(spec, phi.values, expect)[spec.box]
                assert np.abs(ht - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1e-300)


def test_a_forced_march_takes_no_complex_exponential_per_step(monkeypatch):
    # the wave advances by fixed factors on the grid route and on the box
    # route, and so does the correction's backward phase: a forced march,
    # forced_term_blocks and the correction make as many complex np.exp
    # calls over 200 steps as over 2,000 (d1N32, band 5)
    spec = b.make_torus(1, 32, 1.0)
    op = HumOperator(spec, strip_phi(spec), 1.0, band=5)
    u0 = rand_field(spec, 19, band=5)
    h = control_forcing(op, u0.coeffs)
    exp, calls = np.exp, []
    monkeypatch.setattr(np, "exp", lambda x, *args, **kw: (
        calls.append(1) if np.iscomplexobj(x) else None) or exp(x, *args, **kw))
    counts = {}
    for grid in (True, False):
        monkeypatch.setattr(dynamics, "grid_step_route", lambda spec, grid=grid: grid)
        for n in (200, 2000):
            cfg = b.SolverConfig(dt=0.2 / n, record_stride=10)
            prob, op2, phi0 = _correction_case(1, 32, n)
            runs = {"march": lambda: b.evolve_nonlinear(u0, 0.2, cfg, forcing=h),
                    "terms": lambda: list(dynamics.forced_term_blocks(u0, 0.2, cfg, h)),
                    "correction": lambda: hum._nonlinear_correction(prob, op2, phi0)}
            for name, run in runs.items():
                calls.clear()
                run()
                counts.setdefault((grid, name), []).append(len(calls))
    for key, (few, many) in counts.items():
        assert few == many <= 16, key


def test_forced_march_does_not_depend_on_the_forcing_block(monkeypatch):
    # d2N32, band 3, 50 steps on the box route, which samples the wave's
    # weight once per block at its 2B + 1 stage times: blocks of 7 steps,
    # which do not divide the run, and one block for the whole run against
    # the default blocks
    spec = b.make_torus(2, 32, 1.0)
    op = HumOperator(spec, b.make_damping_profile(spec, b.Strip(1.0, 3.0)), 0.05, band=3)
    u0 = b.normalize_sobolev(rand_field(spec, 21, decay=4.0, band=3), 2.0, 1.0)
    h = control_forcing(op, rand_field(spec, 22, band=3).coeffs)
    cfg = b.SolverConfig(dt=1e-3)
    default = b.evolve_nonlinear(u0, 0.05, cfg, forcing=h).states[-1]
    box = np.count_nonzero(spec.dealias_mask)  # blocks count box entries
    for steps, n_calls in ((7, 8), (50, 1)):
        monkeypatch.setattr(dynamics, "_FORCING_BLOCK_ENTRIES", (2 * steps + 1) * box)
        calls = []
        wave = dynamics.FreeWave(h.X, h.v, lambda w: calls.append(len(w)) or h.weight(w))
        trace = b.evolve_nonlinear(u0, 0.05, cfg, forcing=wave)
        assert len(calls) == n_calls
        assert sum(calls) == 2 * 50 + n_calls
        err = np.linalg.norm(trace.states[-1] - default)
        assert err <= 1e-13 * np.linalg.norm(default)


def _correction_case(d, N, n_steps):
    """A control problem over n_steps steps of 1e-3 on a d-torus strip with
    band 2, its operator and a dual datum of L^2 norm 1 in the band."""
    spec = b.make_torus(d, N, 1.0)
    phi = b.make_damping_profile(spec, b.Strip(1.0, 3.0), 0.4)
    u0 = b.normalize_sobolev(rand_field(spec, 40 + d, decay=2.0, band=2), 2.0, 0.1)
    prob = b.ControlProblem(u0=u0, T=n_steps * 1e-3, phi=phi, control_band=2)
    phi0 = b.normalize_sobolev(rand_field(spec, 50 + d, band=2), 0.0, 1.0).coeffs
    return prob, HumOperator(spec, phi, prob.T, band=2), phi0


def _batched_correction(prob, op, phi0):
    """K Phi0 by the batched route: the march recorded at every step, the
    masked cubic term of all its records in one call, which the FFT route
    of the dealiased term kernel matches bit for bit, and one sampled
    duality integral over them."""
    spec, box = prob.spec, prob.spec.box
    chi0 = free_phase(-prob.T, spec.dispersion) * np.conj(phi0)
    cfg = b.SolverConfig(dt=prob.solve_dt, k_nl=prob.k_nl)
    trace = b.evolve_nonlinear(b.zero_field(spec), prob.T, cfg, forcing=control_forcing(op, chi0))
    terms = nonlinear_term(spec, trace.states, prob.k_nl)[box]
    out = np.zeros(spec.shape, dtype=complex)
    X = spec.dispersion[box]
    i_j_w = backward_forced_initial(free_phase(-trace.times, X), trace.times, terms)
    out[box] = np.conj(free_phase(prob.T, X) * i_j_w)
    return out


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 16)])
@pytest.mark.parametrize("steps", ["one", "block_plus_one", "off_block"])
def test_the_streamed_correction_is_the_batched_one(d, N, steps):
    # blocks of 779, 134 and 11 steps (box entries 21, 121 and 1,331): one
    # step, one block and a step, and a run that ends inside its third block
    block = max(1, (dynamics._FORCING_BLOCK_ENTRIES // (2 * (N // 3) + 1) ** d - 1) // 2)
    n = {"one": 1, "block_plus_one": block + 1, "off_block": 2 * block + block // 2 + 1}[steps]
    assert n == 1 or n % block != 0
    prob, op, phi0 = _correction_case(d, N, n)
    expect = _batched_correction(prob, op, phi0)
    got = hum._nonlinear_correction(prob, op, phi0)
    assert np.linalg.norm(expect) > 0.0
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def test_the_correction_holds_no_record_of_its_march():
    # 500 and 1000 steps at d2N16 (blocks of 134): one block of terms at a
    # time, so the traced peak does not grow with the run
    peaks = []
    for T in (0.5, 1.0):
        prob, op, phi0 = _correction_case(2, 16, round(T / 1e-3))
        hum._nonlinear_correction(prob, op, phi0)  # builds the kernel caches
        tracemalloc.start()
        try:
            hum._nonlinear_correction(prob, op, phi0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_a_forcing_block_at_d3n24_is_counted_in_box_entries(monkeypatch):
    # 17^3 = 4,913 box entries make blocks of 2 steps, where 24^3 lattice
    # entries made blocks of 1; a block's first time is the block before's
    # last, whose phase e^{-itL} on the box is reused and multiplied by the
    # first block's phases e^{-i j dt L}: 3, 3 and 2 phase rows, within
    # 1e-13 of free_phase. The regrouped trapezoid sums agree to roundoff with the
    # one-step blocking
    prob, op, phi0 = _correction_case(3, 24, 5)
    spec = prob.spec
    chi0 = free_phase(-prob.T, spec.dispersion) * np.conj(phi0)
    cfg = b.SolverConfig(dt=prob.solve_dt, k_nl=prob.k_nl)
    blocks = dynamics.forced_term_blocks(b.zero_field(spec), prob.T, cfg,
                                         control_forcing(op, chi0))
    assert [len(times) - 1 for times, _ in blocks] == [2, 2, 1]
    rows = []
    monkeypatch.setattr(hum, "backward_forced_initial", lambda phases, times, terms: (
        rows.append(phases.copy()) or backward_forced_initial(phases, times, terms)))
    got = hum._nonlinear_correction(prob, op, phi0)
    assert [len(r) for r in rows] == [3, 3, 2]
    assert all(np.array_equal(after[0], before[-1]) for before, after in zip(rows, rows[1:]))
    expect = free_phase(-np.arange(6) * 1e-3, spec.dispersion[spec.box])
    assert np.abs(np.concatenate([rows[0], rows[1][1:], rows[2][1:]]) - expect).max() <= 1e-13
    monkeypatch.setattr(dynamics, "_FORCING_BLOCK_ENTRIES", 1)
    one_step = hum._nonlinear_correction(prob, op, phi0)
    assert np.linalg.norm(one_step) > 0.0
    assert np.linalg.norm(got - one_step) <= 1e-13 * np.linalg.norm(one_step)


def test_the_correction_guards_every_step(monkeypatch):
    # w starts at 0, so the guard's scale is 1: a factor between w's H^2
    # norms after steps 4 and 5 trips at step 5, not at the end
    prob, op, phi0 = _correction_case(1, 32, 50)
    spec = prob.spec
    chi0 = free_phase(-prob.T, spec.dispersion) * np.conj(phi0)
    trace = b.evolve_nonlinear(b.zero_field(spec), prob.T, b.SolverConfig(dt=prob.solve_dt),
                               forcing=control_forcing(op, chi0))
    norms = np.sqrt(np.sum(sobolev_weights(spec, 2.0) * np.abs(trace.states) ** 2, axis=1))
    assert norms[4] < norms[5]
    monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.5 * (norms[4] + norms[5]))
    with pytest.raises(b.BlowUpError, match="t = 0.005$"):
        hum._nonlinear_correction(prob, op, phi0)


def test_banded_control_certifies_at_d2n64():
    # the operator keeps 7 blocks of 64 x 7 entries: two n x n matrices
    # would take 268 MB each at this size
    spec = b.make_torus(2, 64, 1.0)
    phi = b.make_damping_profile(spec, b.Strip(1.0, 3.0))
    assert HumOperator(spec, phi, 1.0, band=3).matrix.shape == (7, 64, 7)
    u0 = b.normalize_sobolev(rand_field(spec, 20, decay=4.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(
        u0=u0, T=1.0, phi=phi, control_band=3, verify_dt=1e-3
    )
    cert = b.solve_linear_control(prob)
    assert cert.cg_residuals[0] <= prob.cg_tol
    assert np.count_nonzero(cert.dual_datum) == 49
    # the ETDRK4 run reproduces the closed-form terminal miss
    assert cert.integrator_residual == pytest.approx(cert.terminal_residual, rel=1e-3)


def test_control_band_must_hold_the_datum():
    spec = b.make_torus(1, 32, 1.0)
    u0 = rand_field(spec, 21, band=5)
    with pytest.raises(ValueError, match="control band"):
        b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec), control_band=-1)
    with pytest.raises(ValueError, match="outside the control band"):
        b.ControlProblem(u0=u0, T=1.0, phi=strip_phi(spec), control_band=3)


def test_control_band_must_hold_the_transported_target():
    # steering to a target passes the transported difference as the datum,
    # so a target outside the band is refused like a datum outside it
    spec = b.make_torus(1, 32, 1.0)
    kw = dict(T=1.0, phi=strip_phi(spec), control_band=3)

    def to(band):
        u1 = rand_field(spec, 22, band=band)
        return b.SpectralField(spec, -free_phase(-1.0, spec.dispersion) * u1.coeffs)

    b.ControlProblem(u0=to(3), **kw)
    with pytest.raises(ValueError, match="outside the control band"):
        b.ControlProblem(u0=to(4), **kw)


@pytest.mark.parametrize(
    "d,N,band,admitted",
    [
        (2, 32, None, True),  # 2^20 entries, the largest unbanded test config
        (2, 64, 3, True),  # 49 x 4096
        (3, 16, 2, True),  # 125 x 4096
        (2, 64, None, False),  # 4096 x 4096: 268 MB for each stack
        (3, 16, None, False),
    ],
)
def test_control_problem_refuses_an_operator_above_the_cap(d, N, band, admitted):
    # a ball varies on every axis: one block of |S| x n entries; nothing is
    # assembled either way
    spec = b.make_torus(d, N, 1.0)
    phi = b.make_damping_profile(spec, b.Ball((PI,) * d, 2.0), 0.5)
    kw = dict(u0=b.zero_field(spec), T=1.0, phi=phi, control_band=band)
    if admitted:
        b.ControlProblem(**kw)
        return
    n = spec.n_modes
    with pytest.raises(ValueError, match=f"{2 * 16 * n * n} bytes"):
        b.ControlProblem(**kw)
    assert n * n > MAX_BLOCK_ENTRIES
