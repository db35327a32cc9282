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
from b4nls.spectral import box_mask, smoothing_multiplier

PI = math.pi


def strip_phi(spec, width=None):
    return b.make_damping_profile(spec, b.Strip(PI / 2, 3 * PI / 2), width)


def rand_field(spec, seed, **kw):
    return b.random_field(spec, np.random.default_rng(seed), **kw)


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
    # the problem's operator cap and datum check and the operator's columns
    # all read hum.dual_support: box_mask is called once in hum.py
    spec = b.make_torus(2, 16, 1.0)
    assert np.array_equal(hum.dual_support(spec, None), np.arange(spec.n_modes))
    assert np.array_equal(hum.dual_support(spec, 3), np.flatnonzero(box_mask(spec, 3)))
    phi = strip_phi(spec, 0.6)
    for band in (None, 3):
        op = HumOperator(spec, phi, 0.5, band=band)
        assert np.array_equal(op.support, hum.dual_support(spec, band))
    source = Path(hum.__file__).read_text()
    assert source.count("box_mask(") == 1


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_banded_operator_is_the_full_operators_support_columns(d, N):
    spec = b.make_torus(d, N, 1.0)
    phi = strip_phi(spec, 0.6)
    full = HumOperator(spec, phi, 0.8)
    # the batched grid assembly of A against the dense oracle M S^2 M
    M = multiplication_matrix(spec, phi.values)
    dense = (M * smoothing_multiplier(spec, 2).ravel()[None, :]) @ M
    assert np.abs(full.A - dense).max() <= 1e-13 * np.abs(dense).max()
    assert full.matrix.shape == full.block.shape == (spec.n_modes, spec.n_modes)
    banded = HumOperator(spec, phi, 0.8, band=3)
    S = banded.support
    assert len(S) == 7**d
    assert np.array_equal(S, np.flatnonzero(box_mask(spec, 3)))
    for part in ("A", "matrix"):
        ref = getattr(full, part)[:, S]
        assert np.abs(getattr(banded, part) - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(banded.block, banded.matrix[S])


def test_multiplication_matrix_matches_grid_product():
    spec = b.make_torus(1, 32, 1.0)
    phi = strip_phi(spec)
    M = multiplication_matrix(spec, phi.values)
    u = rand_field(spec, 0)
    via_grid = b.multiply_profile(u, phi).coeffs
    via_matrix = (M @ u.coeffs.ravel()).reshape(spec.shape)
    assert np.abs(via_grid - via_matrix).max() <= 1e-12


def test_lambda_full_weight_closed_form():
    # phi == 1 commutes with the flow: Lambda = T (1 - Lap)^{-2}
    spec = b.make_torus(1, 64, 1.0)
    phi1 = b.constant_profile(spec, 1.0)
    T = 1.3
    op = HumOperator(spec, phi1, T)
    e1 = op.apply(b.basis_field(spec, 1).coeffs)
    assert e1[33] == pytest.approx(T / 4.0, abs=1e-12)
    v = rand_field(spec, 1)
    lv = op.apply(v.coeffs)
    expect = T * smoothing_multiplier(spec, 2) * v.coeffs
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
        lv, lw = op.matrix @ v, op.matrix @ w
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
    u0 = backward_forced_initial(spec, times, h)
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
    lam = op.A * time_average_kernel(X, T, dt)  # the trapezoid rule on the same grid
    lhs = float(np.real(np.vdot(v0.ravel(), lam @ v0.ravel())))
    n = round(T / dt)
    ts = np.linspace(0.0, T, n + 1)
    wts = np.full(n + 1, dt)
    wts[0] = wts[-1] = dt / 2
    s1 = smoothing_multiplier(spec, 1)
    total = 0.0
    for t, w in zip(ts, wts):
        vt = b.propagate_free(b.SpectralField(spec, v0), float(t))
        sv = s1 * b.multiply_profile(vt, phi).coeffs
        total += w * float(np.sum(np.abs(sv) ** 2))
    assert lhs == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------------------
# linear control
# ---------------------------------------------------------------------------

def test_linear_control_zero_problem():
    spec = b.make_torus(1, 32, 1.0)
    prob = b.ControlProblem(
        spec=spec, u0=b.zero_field(spec), T=1.0, phi=strip_phi(spec)
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
        spec=spec, u0=u0, T=T, phi=b.constant_profile(spec, 1.0), cg_tol=1e-12
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
        spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), cg_tol=1e-10
    )
    cert = b.solve_linear_control(prob)
    assert cert.relative_residual <= 1e-7
    assert cert.integrator_residual <= 1e-3  # finite-step cross-check


def test_linear_control_nonzero_target():
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 8, decay=2.0, band=4), 2.0, 1.0)
    u1 = b.normalize_sobolev(rand_field(spec, 9, decay=2.0, band=4), 2.0, 0.5)
    prob = b.ControlProblem(
        spec=spec, u0=u0, u_target=u1, T=1.0, phi=strip_phi(spec), cg_tol=1e-10
    )
    cert = b.solve_linear_control(prob)
    assert cert.terminal_residual <= 1e-7


def test_linear_control_band_restriction():
    spec = b.make_torus(1, 64, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 10, decay=2.0, band=8), 2.0, 1.0)
    prob = b.ControlProblem(
        spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), control_band=16, cg_tol=1e-10
    )
    cert = b.solve_linear_control(prob)
    keep = np.abs(spec.k1d) <= 16
    assert np.all(cert.dual_datum[~keep] == 0.0)
    # the out-of-band control leak now enters the certified residual
    assert 1e-9 <= cert.relative_residual <= 1e-3


def _one_point_profile(spec):
    values = np.zeros(spec.shape)
    values[(0,) * spec.d] = 1.0
    return b.DampingProfile(spec, values)


@pytest.mark.parametrize(
    "profile", [lambda spec: b.constant_profile(spec, 0.0), _one_point_profile],
    ids=["zero-profile", "one-point-profile"],
)
def test_singular_gramian_exits_1_as_unobservable(tmp_path, capsys, monkeypatch, profile):
    # a zero profile gives Lambda = 0; a profile on one grid point gives a
    # rank-one A, and Lambda's rows at k and -k, which share a frequency,
    # are parallel. The solve's true residual refuses both, with no warning.
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 11, decay=2.0), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=profile(spec))
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
    # computed afresh on the whole block; lambda_min and condition are the
    # extreme eigenvalues of that block
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 11, decay=2.0), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), cg_tol=1e-12)
    cert = b.solve_linear_control(prob)
    op = HumOperator(spec, prob.phi, prob.T)
    bs = hum._transported_rhs(prob).ravel()[op.support]
    true = np.linalg.norm(bs - op.block @ cert.dual_datum.ravel()[op.support])
    assert cert.cg_residuals[0] == pytest.approx(true / np.linalg.norm(bs), rel=1e-12)
    assert cert.cg_residuals[0] <= prob.cg_tol
    ev = np.linalg.eigvalsh(op.block)
    assert cert.lambda_min == pytest.approx(ev[0], rel=1e-8)
    assert cert.condition == pytest.approx(ev[-1] / ev[0], rel=1e-8)


@pytest.mark.parametrize("d,N,width", [(2, 16, 0.6), (3, 8, 0.6)])
@pytest.mark.parametrize("band", [None, 2])
def test_strip_gramian_is_block_diagonal(d, N, width, band):
    # a strip across axis 0 is constant along the others: Lambda[S, S] maps
    # no block of the layout into another, exactly
    spec = b.make_torus(d, N, 1.0)
    op = HumOperator(spec, strip_phi(spec, width), 0.8, band=band)
    m = N if band is None else 2 * band + 1
    p = np.searchsorted(op.support, op.layout)
    assert p.shape == (m ** (d - 1), m)
    assert np.array_equal(np.sort(p.ravel()), np.arange(len(op.support)))
    on = np.zeros(op.block.shape, dtype=bool)
    on[p[:, :, None], p[:, None, :]] = True
    assert np.all(op.block[~on] == 0.0)
    assert np.all(np.abs(np.diagonal(op.block)) > 0.0)


@pytest.mark.parametrize("d,N,band", [(1, 32, None), (2, 16, 3), (2, 16, None)])
def test_block_solve_matches_a_dense_solve(d, N, band):
    spec = b.make_torus(d, N, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 17, decay=2.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec, 0.6),
                            control_band=band)
    op = HumOperator(spec, prob.phi, prob.T, band=band)
    rhs = hum._transported_rhs(prob)
    v0, _ = hum._solve_hum_system(prob, op, rhs)
    dense = np.linalg.solve(op.block, rhs.ravel()[op.support])
    x = v0.ravel()[op.support]
    assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)


def test_block_solve_matches_the_cg_oracle():
    # a well-conditioned d1N32 problem (band 3, cond about 66): CG to 1e-13
    # lands on the factored solve
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 18, decay=2.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), control_band=3)
    op = HumOperator(spec, prob.phi, prob.T, band=3)
    rhs = hum._transported_rhs(prob)
    bs = rhs.ravel()[op.support]
    x_cg, _, _ = cg_hermitian(lambda z: op.block @ z, bs, tol=1e-13, max_iter=200)
    x = hum._solve_hum_system(prob, op, rhs)[0].ravel()[op.support]
    assert np.linalg.norm(x - x_cg) <= 1e-11 * np.linalg.norm(x_cg)


def test_the_factors_are_built_once_per_operator(monkeypatch):
    # the fixed point reuses one factorization; re-verifying factors nothing
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 16, decay=2.0, band=5), 2.0, 1e-2)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), verify_dt=1e-3)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    cert = b.solve_nonlinear_control(prob)
    assert len(cert.cg_residuals) >= 3 and len(calls) == 1
    b.verify_certificate(prob, cert)
    assert len(calls) == 1


def test_control_outputs_reproduce_under_a_roundoff_scaling(monkeypatch):
    # the bench's control-linear setup (d2N32, strip (1,3), band 3); scaling
    # A, Lambda[:, S] and Lambda[S, S] by 1 + 2^-52 leaves the residuals of
    # the factored solve in place to 1e-13
    spec = b.make_torus(2, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 3, decay=2.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0,
                            phi=b.make_damping_profile(spec, b.Strip(1.0, 3.0)),
                            control_band=3, verify_dt=1e-3)
    ref = b.solve_linear_control(prob)
    init = HumOperator.__init__

    def scaled(self, *args, **kw):
        init(self, *args, **kw)
        for part in ("A", "matrix", "block"):
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
        b.ControlProblem(spec=spec, u0=rand_field(spec, 19, band=3), phi=strip_phi(spec), **kw)


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
        prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=phi, cg_tol=cg_tol)
        cert = b.solve_linear_control(prob)
        op = HumOperator(spec, phi, 1.0)
        uT = u0.coeffs - 1j * op.apply(cert.dual_datum)
        misses.append(float(np.linalg.norm(uT)))
    assert abs(misses[0] - misses[1]) <= 10.0 * cg_tol


def test_certificate_reverify():
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 13, decay=2.0, band=5), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec))
    cert = b.solve_linear_control(prob)
    again = b.verify_certificate(prob, cert)
    assert abs(again - cert.terminal_residual) <= 1e-10


# ---------------------------------------------------------------------------
# nonlinear control
# ---------------------------------------------------------------------------

def test_nonlinear_control_zero_datum():
    spec = b.make_torus(1, 32, 1.0)
    prob = b.ControlProblem(
        spec=spec, u0=b.zero_field(spec), T=1.0, phi=strip_phi(spec)
    )
    cert = b.solve_nonlinear_control(prob)
    assert len(cert.fixedpoint_diffs) == 1  # fixed point at the origin
    assert np.all(cert.dual_datum == 0.0)


def test_nonlinear_control_converges_at_h2_norm_one_on_the_default_strip():
    # H^2 norm 1 on the default strip lies inside the measured basin: the
    # contraction ratios stay well below 1
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.normalize_sobolev(rand_field(spec, 14, decay=2.0), 2.0, 1.0)
    prob = b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec))
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
        spec=spec, u0=u0, T=1.0, phi=phi, cg_tol=1e-12, fixedpoint_tol=1e-14,
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
        spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), cg_tol=1e-10,
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
    spec = b.make_torus(1, 32, 1.0)
    phi = strip_phi(spec)
    ts = np.array([0.0, 0.37, 0.81])
    for band in (None, 5):  # every mode, and a banded support
        op = HumOperator(spec, phi, 1.0, band=band)
        v0 = rand_field(spec, 18, band=band).coeffs
        h = control_forcing(op, v0)(ts)
        assert h.shape == (len(ts),) + spec.shape
        for t, ht in zip(ts, h):
            vt = b.propagate_free(b.SpectralField(spec, v0), t)
            expect = smoothing_multiplier(spec, 2) * b.multiply_profile(vt, phi).coeffs
            expect = b.multiply_profile(b.SpectralField(spec, expect), phi).coeffs
            assert np.abs(ht - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1e-300)


def test_certifying_run_evaluates_the_forcing_once_per_distinct_time(monkeypatch):
    # a step's stages sit at t, t + dt/2 (twice) and t + dt, the next step's
    # t: the march asks for each of the 2n + 1 distinct times once, in one
    # forcing call per block of steps (default blocks, then blocks of 30)
    spec = b.make_torus(1, 32, 1.0)
    op = HumOperator(spec, strip_phi(spec), 1.0, band=5)
    weight = HumOperator.control_weight
    u0 = rand_field(spec, 19, band=5)
    h = control_forcing(op, u0.coeffs)
    cfg = b.SolverConfig(dt=1e-3, include_nonlinearity=False, record_stride=10)
    n_steps = 200
    ends = np.arange(n_steps + 1) * (0.2 / n_steps)
    stage_times = np.sort(np.concatenate([ends, 0.5 * (ends[:-1] + ends[1:])]))
    for steps in (None, 30):
        if steps is not None:
            monkeypatch.setattr(dynamics, "_FORCING_BLOCK_ENTRIES", (2 * steps + 1) * spec.n_modes)
        calls, asked = [], []
        monkeypatch.setattr(
            HumOperator, "control_weight", lambda self, w: calls.append(len(w)) or weight(self, w)
        )
        trace = b.evolve_nonlinear(u0, 0.2, cfg, forcing=lambda ts: asked.append(ts) or h(ts))
        block = max(1, (dynamics._FORCING_BLOCK_ENTRIES // spec.n_modes - 1) // 2)
        assert trace.n_records == 21
        assert len(calls) == len(asked) == math.ceil(n_steps / block)
        asked = np.concatenate(asked)
        assert len(asked) == sum(calls) == 2 * n_steps + 1
        assert np.array_equal(np.sort(asked), stage_times)


def test_forced_march_does_not_depend_on_the_forcing_block(monkeypatch):
    # d2N32, band 3, 50 steps: blocks of 7 steps, which do not divide the
    # run, and one block for the whole run against the default blocks
    spec = b.make_torus(2, 32, 1.0)
    op = HumOperator(spec, b.make_damping_profile(spec, b.Strip(1.0, 3.0)), 0.05, band=3)
    u0 = b.normalize_sobolev(rand_field(spec, 21, decay=4.0, band=3), 2.0, 1.0)
    h = control_forcing(op, rand_field(spec, 22, band=3).coeffs)
    cfg = b.SolverConfig(dt=1e-3)
    default = b.evolve_nonlinear(u0, 0.05, cfg, forcing=h).states[-1]
    for steps, n_calls in ((7, 8), (50, 1)):
        monkeypatch.setattr(dynamics, "_FORCING_BLOCK_ENTRIES", (2 * steps + 1) * spec.n_modes)
        calls = []
        trace = b.evolve_nonlinear(u0, 0.05, cfg, forcing=lambda ts: calls.append(1) or h(ts))
        assert len(calls) == n_calls
        err = np.linalg.norm(trace.states[-1] - default)
        assert err <= 1e-13 * np.linalg.norm(default)


def test_banded_control_certifies_at_d2n64():
    # the operator keeps 49 of 4096 columns: two n x n matrices would take
    # 268 MB each at this size
    spec = b.make_torus(2, 64, 1.0)
    phi = b.make_damping_profile(spec, b.Strip(1.0, 3.0))
    assert HumOperator(spec, phi, 1.0, band=3).matrix.shape == (4096, 49)
    u0 = b.normalize_sobolev(rand_field(spec, 20, decay=4.0, band=3), 2.0, 1.0)
    prob = b.ControlProblem(
        spec=spec, u0=u0, T=1.0, phi=phi, control_band=3, verify_dt=1e-3
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
        b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), control_band=-1)
    with pytest.raises(ValueError, match="outside the control band"):
        b.ControlProblem(spec=spec, u0=u0, T=1.0, phi=strip_phi(spec), control_band=3)


def test_control_band_must_hold_the_transported_target():
    # the rule reads -i (u0 - e^{-iTL} u_target), so a target outside the
    # band is refused like a datum outside it
    spec = b.make_torus(1, 32, 1.0)
    kw = dict(spec=spec, u0=b.zero_field(spec), T=1.0, phi=strip_phi(spec), control_band=3)
    b.ControlProblem(u_target=rand_field(spec, 22, band=3), **kw)
    with pytest.raises(ValueError, match="outside the control band"):
        b.ControlProblem(u_target=rand_field(spec, 22, band=4), **kw)


@pytest.mark.parametrize(
    "d,N,band,admitted",
    [
        (2, 32, None, True),  # 2^20 entries, the largest unbanded test config
        (2, 64, 3, True),  # 4096 x 49
        (3, 16, 2, True),  # 4096 x 125
        (2, 64, None, False),  # 4096 x 4096: 268 MB for each matrix
        (3, 16, None, False),
    ],
)
def test_control_problem_refuses_an_operator_above_the_cap(d, N, band, admitted):
    spec = b.make_torus(d, N, 1.0)
    phi = b.constant_profile(spec, 1.0)  # nothing is assembled either way
    kw = dict(spec=spec, u0=b.zero_field(spec), T=1.0, phi=phi, control_band=band)
    if admitted:
        b.ControlProblem(**kw)
        return
    n = spec.n_modes
    with pytest.raises(ValueError, match=f"{2 * 16 * n * n} bytes"):
        b.ControlProblem(**kw)
    assert n * n > hum.MAX_OPERATOR_ENTRIES
