import ctypes
import glob
import math
import os

import numpy as np
import pytest

import b4nls as b
from b4nls import dynamics
from b4nls.dynamics import (
    _DampingOperator,
    audit_dissipation,
    energy,
    fit_decay_rate,
    load_ledger,
    load_trace_states,
    mass,
    save_trace,
)
from b4nls.linalg import cg_hermitian, ritz_pairs
from b4nls.spectral import _mode_index, coeffs_to_grid, grid_to_coeffs, smoothing_multiplier

TWO_PI = 2.0 * math.pi


def smooth_datum(spec, seed, decay=4.0, h2=1.0, band=None):
    u = b.random_field(spec, np.random.default_rng(seed), decay=decay, band=band)
    return b.normalize_sobolev(u, 2.0, h2)


def plane_wave_phase_rate(spec, m, amp, k_nl=1):
    """Phase rate of u(t) = A e_m e^{i r t} for the defocusing flow, derived
    by substituting the single-mode ansatz: the cubic term is |A|^2/(2pi)^d
    times u, so r = |m|^4 + beta |m|^2 + |A|^{2k}/(2pi)^{kd}."""
    X = float(m) ** 4 + spec.beta * float(m) ** 2
    return X + abs(amp) ** (2 * k_nl) / (TWO_PI ** (spec.d * k_nl))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_zero_mode_oracle():
    # for the constant-in-space datum the equation is the scalar ODE
    # i a' = -|a|^2 a, solved by a pure phase rotation
    spec = b.make_torus(1, 32, 1.0)
    amp = 0.5
    u0 = b.basis_field(spec, 0, amp)
    trace = b.evolve_nonlinear(u0, 1.0, b.SolverConfig(dt=1e-3))
    expected = amp * np.exp(1j * plane_wave_phase_rate(spec, 0, amp))
    got = complex(trace.states[-1][_mode_index(spec, 0)])
    assert abs(got) == pytest.approx(amp, rel=1e-12)  # modulus exact
    assert abs(got - expected) <= 1e-10


def test_plane_wave_oracle():
    spec = b.make_torus(1, 64, 1.0)
    amp, m = 0.7 + 0.2j, 3
    u0 = b.basis_field(spec, m, amp)
    trace = b.evolve_nonlinear(u0, 1.0, b.SolverConfig(dt=1e-3))
    expected = amp * np.exp(1j * plane_wave_phase_rate(spec, m, amp))
    err = abs(complex(trace.states[-1][_mode_index(spec, m)]) - expected) / abs(amp)
    assert err <= 1e-6


def test_linear_limit_matches_free_flow():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 0)
    cfg = b.SolverConfig(dt=1e-3, include_nonlinearity=False)
    trace = b.evolve_nonlinear(u0, 0.05, cfg)
    for i, t in enumerate(trace.times):
        ref = b.propagate_free(u0, float(t)).coeffs
        assert np.abs(trace.states[i] - ref).max() <= 1e-12


def test_etdrk4_order_at_least_3_5():
    spec = b.make_torus(1, 32, 1.0)
    amp, m = 4.0, 1
    u0 = b.basis_field(spec, m, amp)
    expected = amp * np.exp(1j * plane_wave_phase_rate(spec, m, amp))
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        tr = b.evolve_nonlinear(u0, 1.0, b.SolverConfig(dt=dt, record_stride=10**9))
        errs.append(abs(complex(tr.states[-1][_mode_index(spec, m)]) - expected))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 3.5


def test_phi_functions_match_a_40_digit_reference():
    # phi_n(z) = (e^z - sum_{j<n} z^j / j!) / z^n on the imaginary axis, on
    # both sides of the |z| = 0.25 switch; worst measured 2.0e-14 (phi_3)
    mp = pytest.importorskip("mpmath")
    theta = np.geomspace(1e-8, 1e4, 40)
    z = 1j * np.concatenate([theta, -theta, [0.2499, 0.25, 0.2501]])
    phis = dynamics._phi(z)
    with mp.workdps(40):
        for n in (1, 2, 3):
            for zi, got in zip(z, phis[n - 1]):
                w = mp.mpc(0.0, zi.imag)
                head = mp.fsum(w**j / mp.factorial(j) for j in range(n))
                ref = complex(mp.fsum(w**j / mp.factorial(j + n) for j in range(60))
                              if abs(w) < 1e-2 else (mp.exp(w) - head) / w**n)
                assert abs(got - ref) <= 1e-13 * abs(ref), (n, zi)


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def test_mass_energy_conservation_quick():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 1)
    trace = b.evolve_nonlinear(u0, 0.5, b.SolverConfig(dt=1e-3))
    dm = abs(trace.masses[-1] - trace.masses[0]) / trace.masses[0]
    de = abs(trace.energies[-1] - trace.energies[0]) / abs(trace.energies[0])
    assert dm <= 1e-9
    assert de <= 1e-7


def test_blowup_guard_trips(monkeypatch):
    monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 2.0)
    spec = b.make_torus(1, 32, 1.0)
    u0 = b.basis_field(spec, 0, 1e-3)
    h = b.basis_field(spec, 0, 1.0).coeffs
    cfg = b.SolverConfig(dt=1e-2)
    forcing = lambda ts: np.broadcast_to(h, ts.shape + h.shape)  # h at every time
    with pytest.raises(b.BlowUpError):
        b.evolve_nonlinear(u0, 5.0, cfg, forcing=forcing)


def test_blowup_guard_trips_on_a_non_finite_state():
    # the first step overflows to inf and NaN, and NaN > guard is False:
    # the guard must refuse any norm that is not <= it
    spec = b.make_torus(1, 16, 1.0)
    u0 = smooth_datum(spec, 3, h2=1e6)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(b.BlowUpError):
        b.evolve_nonlinear(u0, 0.01, b.SolverConfig(dt=1e-3))


# ---------------------------------------------------------------------------
# damped flow
# ---------------------------------------------------------------------------

def test_damping_off_matches_undamped_with_mass_phase():
    # with a = 0 the damped system is the undamped flow times e^{it}
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 3)
    a0 = b.constant_profile(spec, 0.0)
    cfg = b.SolverConfig(dt=1e-3)
    dtrace = b.evolve_damped(u0, a0, 0.2, cfg)
    masked = b.SpectralField(
        spec, np.where(spec.dealias_mask, u0.coeffs, 0.0)
    )
    utrace = b.evolve_nonlinear(masked, 0.2, cfg)
    for i, t in enumerate(dtrace.times):
        ref = np.exp(1j * float(t)) * utrace.states[i]
        assert np.abs(dtrace.states[i] - ref).max() <= 1e-7
    assert np.all(dtrace.fluxes == 0.0)
    de = abs(dtrace.energies[-1] - dtrace.energies[0])
    assert de <= 1e-7 * abs(dtrace.energies[0])


def test_constant_damping_diagonal_fast_path():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 4, decay=6.0)
    a1 = b.constant_profile(spec, 1.0)
    trace = b.evolve_damped(u0, a1, 0.5, b.SolverConfig(dt=1e-3))
    assert trace.inner_iterations is not None
    assert trace.inner_iterations.max() == 0  # diagonal solve, no iteration
    assert np.all(np.diff(trace.energies) <= 1e-12 * trace.energies[0])


def test_constant_damping_solve_matches_cg_route():
    # the diagonal shortcut and a generic normal-equation CG solve agree
    spec = b.make_torus(1, 32, 1.0)
    prof = b.constant_profile(spec, 0.8)
    op = _DampingOperator(spec, prof)
    rng = np.random.default_rng(5)
    v = np.where(
        spec.dealias_mask,
        rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape),
        0.0,
    )
    w_diag, it, _ = op.solve_j(v)
    assert it == 0

    def normal(x):
        return x + op.apply(op.apply(x))

    rhs = v + 1j * op.apply(v)
    w_cg, _, relres = cg_hermitian(normal, rhs, tol=1e-13, max_iter=200)
    assert relres <= 1e-12
    assert np.abs(w_diag - w_cg).max() <= 1e-11


def test_strip_damping_monotone_energy():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 5)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2))
    trace = b.evolve_damped(u0, prof, 0.5, b.SolverConfig(dt=1e-3))
    assert np.all(np.diff(trace.energies) <= 1e-12 * trace.energies[0])
    assert trace.inner_iterations.max() <= 30
    res = trace.inner_iterations
    assert res.min() >= 0
    # the 43 ball modes are fewer than RITZ_RANK, so P inverts J and every
    # solve, cold or warm, returns without an update
    assert res.max() == 0


def test_damping_solve_from_a_start_meets_its_residual_bound():
    spec = b.make_torus(2, 16, 1.0)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2), 0.5)
    op = _DampingOperator(spec, prof)
    rng = np.random.default_rng(6)

    def ball_field():
        z = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        return np.where(spec.dealias_mask, z, 0.0)

    v, x0 = ball_field(), ball_field()
    w, it, dw = op.solve_j(v, x0)
    assert it > 0
    res = np.linalg.norm((w - 1j * op.apply(w)) - v)
    assert res <= 10.0 * dynamics.INNER_TOL * np.linalg.norm(v)
    assert np.array_equal(dw, op.apply(w))


def _cross(d):
    if d == 1:
        return b.RegionUnion((b.Strip(0.0, 1.0), b.Strip(math.pi, math.pi + 1.0)))
    return b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1)))


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16)])
@pytest.mark.parametrize("region", ["strip", "cross", "ball"])
def test_damping_solve_matches_a_dense_solve_on_the_ball(d, N, region):
    # d1N32 has 21 ball modes, at most RITZ_RANK, so the basis spans the
    # ball and a solve needs no update from any start; d2N16 has 121, so
    # the solve iterates on the remainder
    spec = b.make_torus(d, N, 1.0)
    shape = {
        "strip": b.Strip(math.pi / 2, 3 * math.pi / 2),
        "cross": _cross(d),
        "ball": b.Ball((math.pi,) * d, 2.8),
    }[region]
    op = _DampingOperator(spec, b.make_damping_profile(spec, shape, 0.4))
    ball = np.flatnonzero(spec.dealias_mask)
    cols = []
    for j in ball:
        e = np.zeros(spec.n_modes, dtype=complex)
        e[j] = 1.0
        cols.append(op.apply(e.reshape(spec.shape)).reshape(-1)[ball])
    J = np.eye(len(ball)) - 1j * np.array(cols).T
    rng = np.random.default_rng(8)

    def ball_field():
        z = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        return np.where(spec.dealias_mask, z, 0.0)

    v = ball_field()
    exact = np.zeros(spec.n_modes, dtype=complex)
    exact[ball] = np.linalg.solve(J, v.reshape(-1)[ball])
    exact = exact.reshape(spec.shape)
    for x0 in (None, ball_field()):
        w, updates, dw = op.solve_j(v, x0)
        assert np.linalg.norm(w - exact) <= 1e-11 * np.linalg.norm(exact)
        assert np.array_equal(dw, op.apply(w))
        if len(ball) <= dynamics.RITZ_RANK:
            assert updates == 0


@pytest.mark.parametrize("region,calls", [("strip", 4), ("ball", 8)])
def test_a_damping_apply_transforms_only_the_axes_its_profile_varies_on(monkeypatch, region, calls):
    # d2N32: the strip depends on x_1 alone, so each of D's two profile
    # products is one axis pass each way; the ball keeps both axes
    spec = b.make_torus(2, 32, 1.0)
    shape = {"strip": b.Strip(math.pi / 2, 3 * math.pi / 2), "ball": b.Ball((math.pi,) * 2, 2.8)}
    op = _DampingOperator(spec, b.make_damping_profile(spec, shape[region], 0.4))
    count = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            count.append(1)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    op.apply(smooth_datum(spec, 1).coeffs)
    assert len(count) == calls


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_the_flows_refuse_a_horizon_that_is_not_positive(T):
    # one rule, dynamics.check_horizon: NaN and inf used to reach step_grid
    # and die there converting them to an integer
    spec = b.make_torus(1, 16, 1.0)
    u = smooth_datum(spec, 2)
    cfg = b.SolverConfig(dt=1e-3)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2), 0.6)
    with pytest.raises(ValueError, match="horizon T must be positive"):
        b.evolve_nonlinear(u, T, cfg)
    with pytest.raises(ValueError, match="horizon T must be positive"):
        b.evolve_damped(u, prof, T, cfg)
    with pytest.raises(ValueError, match="horizon T must be positive"):
        dynamics.check_horizon(T)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_a_solver_config_refuses_a_step_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        b.SolverConfig(dt=dt)


@pytest.mark.parametrize("rank", [60, 5])
def test_ritz_pairs_match_eigh(rank):
    # a Hermitian matrix with eigenvalues 2^-j on `rank` random directions;
    # at rank 5 the power steps leave 5 of the 12 rows, the rest dropped
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60)))
    lam = np.where(np.arange(60) < rank, 2.0 ** -np.arange(60.0), 0.0)
    A = (q * lam) @ q.conj().T
    start = rng.standard_normal((12, 60)) + 1j * rng.standard_normal((12, 60))
    V, theta = ritz_pairs(lambda rows: rows @ A.T, start, 3)
    top = min(rank, 12)
    assert V.shape == (top, 60)
    assert np.abs(V @ V.conj().T - np.eye(top)).max() <= 1e-12
    assert np.abs(V @ A @ V.conj().T - np.diag(theta)).max() <= 1e-12
    # the leading pairs converge first: the top 4 to roundoff
    assert np.allclose(np.sort(theta)[::-1][:4], lam[:4], rtol=0, atol=1e-12)


def count_solve_applies(monkeypatch):
    """Patch _DampingOperator to record (applies, warm) for each solve_j."""
    applies, solves = [0], []
    apply, solve_j = _DampingOperator.apply, _DampingOperator.solve_j

    def counted_apply(self, c):
        applies[0] += 1
        return apply(self, c)

    def counted_solve(self, v, x0=None):
        before = applies[0]
        out = solve_j(self, v, x0)
        solves.append((applies[0] - before, x0 is not None))
        return out

    monkeypatch.setattr(_DampingOperator, "apply", counted_apply)
    monkeypatch.setattr(_DampingOperator, "solve_j", counted_solve)
    return solves


def test_a_warm_damping_solve_takes_few_applies(monkeypatch):
    # the bench's stabilize shape: d2N32, default strip, dt 1e-3, stride 10
    spec = b.make_torus(2, 32, 1.0)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2))
    solves = count_solve_applies(monkeypatch)
    b.evolve_damped(smooth_datum(spec, 3), prof, 0.02, b.SolverConfig(dt=1e-3, record_stride=10))
    warm = [n for n, is_warm in solves if is_warm]
    # records at steps 0, 10 and 20: the first starts cold, and the first
    # stage after each of the first two reuses its solve, so 78 stage
    # solves and 2 record solves start warm
    assert len(warm) == 80
    assert np.mean(warm) <= 3.5  # measured 2.5; normal-equations CG took 11


def test_a_damping_solve_takes_one_apply_when_the_basis_spans_the_ball(monkeypatch):
    # d1N64: the 43 ball modes are at most RITZ_RANK, so P = J^{-1}, and a
    # solve starts from P v whatever its warm start: one checking apply
    spec = b.make_torus(1, 64, 1.0)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2))
    solves = count_solve_applies(monkeypatch)
    b.evolve_damped(smooth_datum(spec, 5), prof, 0.02, b.SolverConfig(dt=1e-3, record_stride=10))
    assert sum(is_warm for _, is_warm in solves) == 80
    assert [n for n, _ in solves] == [1] * len(solves)


def test_blas_runs_on_the_thread_count_the_tests_pin():
    # tests/conftest.py sets the count before numpy loads its BLAS; the
    # OpenBLAS that numpy bundles reports the count it took
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("BLAS threads were set outside the tests")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libdir, "*openblas*"))
    if not libs:
        pytest.skip("numpy does not bundle OpenBLAS here")
    lib = ctypes.CDLL(libs[0])
    get = [getattr(lib, s) for s in ("scipy_openblas_get_num_threads64_",
                                     "openblas_get_num_threads") if hasattr(lib, s)][0]
    get.argtypes, get.restype = [], ctypes.c_int
    assert get() == 1


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16)])
@pytest.mark.parametrize("region", ["strip", "ball"])
def test_recorded_flux_is_the_smoothed_damping_norm(d, N, region):
    # ||(1-Lap)^{-1}(a u_t)||^2 at each record from scratch: u_t = i J^{-1}
    # (L u + u + f(u)) by a dense solve on the ball, with D and the grid
    # products through the shifted transform pair
    spec = b.make_torus(d, N, 1.0)
    shape = {"strip": b.Strip(math.pi / 2, 3 * math.pi / 2), "ball": b.Ball((math.pi,) * d, 2.8)}
    prof = b.make_damping_profile(spec, shape[region], 0.4)
    cfg = b.SolverConfig(dt=1e-3, record_stride=5)
    trace = b.evolve_damped(smooth_datum(spec, 7), prof, 0.02, cfg)

    def times_a(c):
        return grid_to_coeffs(spec, prof.values * coeffs_to_grid(spec, c))

    ball = np.flatnonzero(spec.dealias_mask)
    s1 = smoothing_multiplier(spec, 1)
    cols = []
    for j in ball:
        e = np.zeros(spec.n_modes, dtype=complex)
        e[j] = 1.0
        cols.append(times_a(s1**2 * times_a(e.reshape(spec.shape))).reshape(-1)[ball])
    J = np.eye(len(ball)) - 1j * np.array(cols).T
    expect = []
    for u in trace.states:
        g = coeffs_to_grid(spec, u)
        rhs = (spec.dispersion + 1.0) * u + grid_to_coeffs(spec, np.abs(g) ** 2 * g)
        ut = np.zeros(spec.n_modes, dtype=complex)
        ut[ball] = 1j * np.linalg.solve(J, rhs.reshape(-1)[ball])
        expect.append(np.sum(np.abs(s1 * times_a(ut.reshape(spec.shape))) ** 2))
    assert trace.fluxes.min() > 0.0
    assert np.abs(trace.fluxes - expect).max() <= 1e-10 * np.abs(expect).min()


# ---------------------------------------------------------------------------
# dissipation audit
# ---------------------------------------------------------------------------

def test_audit_zero_damping():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 7)
    trace = b.evolve_damped(u0, b.constant_profile(spec, 0.0), 0.5, b.SolverConfig(dt=1e-3))
    aud = audit_dissipation(trace)
    assert aud.rhs == 0.0
    assert abs(aud.lhs) <= 1e-7


def test_audit_full_damping_identity():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 8, decay=6.0)
    trace = b.evolve_damped(u0, b.constant_profile(spec, 1.0), 1.0, b.SolverConfig(dt=1e-3))
    aud = audit_dissipation(trace)
    assert aud.lhs <= 0.0 and aud.rhs <= 0.0  # both sides decay
    assert aud.mismatch <= 1e-4


def test_audit_requires_damped_trace():
    spec = b.make_torus(1, 32, 1.0)
    u0 = smooth_datum(spec, 9)
    trace = b.evolve_nonlinear(u0, 0.05, b.SolverConfig(dt=1e-3))
    with pytest.raises(ValueError):
        audit_dissipation(trace)


# ---------------------------------------------------------------------------
# decay fit
# ---------------------------------------------------------------------------

def test_fit_decay_exact_exponential():
    t = np.linspace(0.0, 5.0, 60)
    fit = fit_decay_rate(t, np.exp(-2.0 * t))
    assert fit.gamma == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_constant_series():
    t = np.linspace(0.0, 5.0, 20)
    fit = fit_decay_rate(t, np.ones_like(t))
    assert fit.gamma == pytest.approx(0.0, abs=1e-14)


def test_fit_decay_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_decay_rate([0.0, 1.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_trace_persistence_roundtrip(tmp_path):
    spec = b.make_torus(1, 32, 1.0)
    u0 = smooth_datum(spec, 10)
    trace = b.evolve_damped(
        u0, b.constant_profile(spec, 1.0), 0.02, b.SolverConfig(dt=1e-3)
    )
    save_trace(trace, tmp_path, snapshot_stride=5)
    led = load_ledger(tmp_path / "ledger.csv")
    assert np.array_equal(led["t"], trace.times)
    assert np.array_equal(led["energy"], trace.energies)
    assert np.array_equal(led["damping_flux"], trace.fluxes)
    states = load_trace_states(tmp_path)
    assert np.array_equal(states[0].coeffs, trace.states[0])


def test_energy_ledger_definition():
    # the recorded energy is the quadratic part plus the grid potential
    spec = b.make_torus(1, 32, 1.0)
    u0 = smooth_datum(spec, 11)
    c = np.where(spec.dealias_mask, u0.coeffs, 0.0)
    e = energy(spec, c, k_nl=1)
    quad = 0.5 * float(np.sum((spec.k_sq**2 + spec.k_sq) * np.abs(c) ** 2))
    vals = coeffs_to_grid(spec, c)
    pot = float(np.sum(np.abs(vals) ** 4) * spec.cell_volume) / 4.0
    assert e == pytest.approx(quad + pot, rel=1e-12)
    assert mass(spec, c) == pytest.approx(float(np.sum(np.abs(c) ** 2)), rel=1e-14)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_ledger_takes_a_batch_of_records(d, N):
    # a stack of records gives the per-record values of the single-field call
    spec = b.make_torus(d, N, 1.0)
    stack = np.stack([smooth_datum(spec, s).coeffs for s in range(3)])
    for include_mass_term in (False, True):
        batch = energy(spec, stack, 1, include_mass_term)
        single = [energy(spec, c, 1, include_mass_term) for c in stack]
        assert np.allclose(batch, single, rtol=1e-13, atol=0.0)
    assert np.allclose(mass(spec, stack), [mass(spec, c) for c in stack], rtol=1e-14, atol=0.0)
