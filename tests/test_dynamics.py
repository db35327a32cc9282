import ctypes
import glob
import itertools
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import b4nls as b
from b4nls import dynamics
from b4nls.dynamics import (
    audit_dissipation,
    energy,
    fit_decay_rate,
    load_ledger,
    load_trace_states,
    mass,
    save_trace,
)
from b4nls.cli import _build_spec, _load_config
from b4nls.hum import HumOperator, control_forcing, multiplication_matrix
from b4nls.linalg import cg_hermitian
from b4nls.spectral import KernelBlocks, _mode_index, nonlinear_term, sandwich, sobolev_weights
from oracles import coeffs_to_grid, grid_to_coeffs, propagate_free

TWO_PI = 2.0 * math.pi


class Damping:
    """D = a (1-Lap)^{-2} (a .) and the solve of J w = (1 - i D) w = v on
    box arrays, by the blocks of J that evolve_damped tabulates and
    inverts."""

    def __init__(self, spec, profile):
        self.spec, self.a = spec, profile.compact
        self.j = KernelBlocks(profile, box=True, kernel=lambda f: f - 1j * self.apply(f))
        self.j_inv = np.linalg.inv(self.j.stack)

    def apply(self, c):
        """D c for lattice coefficients c."""
        return sandwich(self.spec, self.a, c)

    def times_j(self, u):
        """J u for a box array u."""
        return self.j.apply(self.j.stack, self.j.gather(u))

    def solve_j(self, v):
        """(w, D w) for J w = v, v a box array, D w = i (v - w)."""
        w = self.j.apply(self.j_inv, self.j.gather(v))
        return w, 1j * (v - w)


def _identity_wave(X, v):
    """The free wave e^{itX} v given on the box, its weight the identity."""
    return dynamics.FreeWave(X, v, lambda w: w)


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
    # a datum in the dealiasing ball, small enough (H^2 norm 1e-6) that the
    # cubic term moves it by far less than the tolerance, relative to it
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 0, h2=1e-6, band=spec.N // 3)
    assert np.array_equal(u0.coeffs, np.where(spec.dealias_mask, u0.coeffs, 0.0))
    trace = b.evolve_nonlinear(u0, 0.05, b.SolverConfig(dt=1e-3))
    scale = np.abs(u0.coeffs).max()
    for i, t in enumerate(trace.times):
        ref = propagate_free(u0, float(t)).coeffs
        assert np.abs(trace.states[i] - ref).max() <= 1e-12 * scale


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
    h = b.basis_field(spec, 0, 1.0).coeffs[spec.box]
    cfg = b.SolverConfig(dt=1e-2)
    forcing = _identity_wave(np.zeros(h.shape), h)  # h at every time
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
    a0 = b.DampingProfile(spec, np.full(spec.shape, 0.0))
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
    a1 = b.DampingProfile(spec, np.full(spec.shape, 1.0))
    trace = b.evolve_damped(u0, a1, 0.5, b.SolverConfig(dt=1e-3))
    assert np.all(np.diff(trace.energies) <= 1e-12 * trace.energies[0])


def test_a_constant_profile_applies_its_one_mode_blocks_as_the_batched_matmul(monkeypatch):
    # a constant profile's blocks hold one mode each, and apply is an
    # elementwise product: the trace is the batched matmul's bit for bit
    spec = b.make_torus(2, 16, 1.0)
    prof = b.DampingProfile(spec, np.full(spec.shape, 0.8))
    assert KernelBlocks(prof, box=True).entries == np.count_nonzero(spec.dealias_mask)
    u0 = smooth_datum(spec, 4, decay=2.0, h2=10.0)
    cfg = b.SolverConfig(dt=1e-3, record_stride=10)
    fast = b.evolve_damped(u0, prof, 0.1, cfg)
    monkeypatch.setattr(KernelBlocks, "apply",
                        lambda self, stack, w: self.scatter((stack @ w[..., None])[..., 0]))
    batched = b.evolve_damped(u0, prof, 0.1, cfg)
    for name in ("states", "masses", "energies", "fluxes"):
        assert np.array_equal(getattr(fast, name), getattr(batched, name)), name


def test_constant_damping_solve_matches_cg_route():
    # the block solve on a box array and a generic normal-equation CG
    # solve on the lattice agree
    spec = b.make_torus(1, 32, 1.0)
    prof = b.DampingProfile(spec, np.full(spec.shape, 0.8))
    op = Damping(spec, prof)
    rng = np.random.default_rng(5)
    v = np.where(
        spec.dealias_mask,
        rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape),
        0.0,
    )
    w_diag, _ = op.solve_j(v[spec.box])

    def normal(x):
        return x + op.apply(op.apply(x))

    rhs = v + 1j * op.apply(v)
    w_cg, _, relres = cg_hermitian(normal, rhs, tol=1e-13, max_iter=200)
    assert relres <= 1e-12
    assert np.abs(w_diag - w_cg[spec.box]).max() <= 1e-11
    assert np.abs(w_cg[~spec.dealias_mask]).max() <= 1e-11


def test_strip_damping_monotone_energy():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 5)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2))
    trace = b.evolve_damped(u0, prof, 0.5, b.SolverConfig(dt=1e-3))
    assert np.all(np.diff(trace.energies) <= 1e-12 * trace.energies[0])


def test_damping_solve_from_a_start_meets_its_residual_bound():
    # the block solve takes no start any more: whatever field the previous
    # step left, J w = v is met to round-off and D w = i (v - w) agrees
    # with an apply of D to w; D is the sandwich read on the ball
    spec = b.make_torus(2, 16, 1.0)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2), 0.5)
    op = Damping(spec, prof)
    rng = np.random.default_rng(6)

    def box_field():
        z = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        return z[spec.box]

    for v in (box_field(), box_field()):
        w, dw = op.solve_j(v)
        scale = np.linalg.norm(v)
        full = np.zeros(spec.shape, dtype=complex)
        full[spec.box] = w
        d_w = op.apply(full)[spec.box]
        assert np.linalg.norm((w - 1j * d_w) - v) <= 1e-12 * scale
        assert np.linalg.norm(dw - d_w) <= 1e-12 * scale


def _cross(d):
    if d == 1:
        return b.RegionUnion((b.Strip(0.0, 1.0), b.Strip(math.pi, math.pi + 1.0)))
    return b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1)))


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16), (3, 12)])
@pytest.mark.parametrize("region", ["strip", "cross", "ball", "constant"])
def test_damping_solve_matches_a_dense_solve_on_the_ball(d, N, region):
    # a strip on each axis exercises the reorder to (constant, varying) axes
    spec = b.make_torus(d, N, 1.0)
    profiles = {
        "strip": [b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2, axis), 0.4)
                  for axis in range(d)],
        "cross": [b.make_damping_profile(spec, _cross(d), 0.4)],
        "ball": [b.make_damping_profile(spec, b.Ball((math.pi,) * d, 2.8), 0.4)],
        "constant": [b.DampingProfile(spec, np.full(spec.shape, 0.8))],
    }[region]
    ball = np.flatnonzero(spec.dealias_mask)
    modes = np.unravel_index(ball, spec.shape)
    rng = np.random.default_rng(8)
    for prof in profiles:
        op = Damping(spec, prof)
        cols = []
        for j in ball:
            e = np.zeros(spec.n_modes, dtype=complex)
            e[j] = 1.0
            cols.append(op.apply(e.reshape(spec.shape)).reshape(-1)[ball])
        D = np.array(cols).T
        # modes that differ in a wavenumber along which the profile is
        # constant lie in different blocks: D joins them by exactly 0.0
        constant = [axis for axis in range(d) if prof.compact.shape[axis] == 1]
        same = np.ones((len(ball), len(ball)), dtype=bool)
        for axis in constant:
            same &= modes[axis][:, None] == modes[axis][None, :]
        assert np.all(D[~same] == 0.0)
        if region == "strip":  # varies on its own axis alone
            assert len(constant) == d - 1
        J = np.eye(len(ball)) - 1j * D
        # a box array lists the ball's modes in the lattice order of ball
        z = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        v = z[spec.box]
        assert np.array_equal(v.reshape(-1), z.reshape(-1)[ball])
        w, dw = op.solve_j(v)
        assert w.shape == dw.shape == v.shape
        scale = np.linalg.norm(v)
        wb = w.reshape(-1)
        assert np.linalg.norm(J @ wb - v.reshape(-1)) <= 1e-12 * scale
        assert np.linalg.norm(wb - np.linalg.solve(J, v.reshape(-1))) <= 1e-12 * scale
        assert np.linalg.norm(dw.reshape(-1) - D @ wb) <= 1e-12 * scale
        # J u by blocks, the damped flow's v = J u
        assert np.linalg.norm(op.times_j(w) - v) <= 1e-12 * scale


@pytest.mark.parametrize("region,calls", [("strip", 4), ("ball", 8)])
def test_a_damping_apply_transforms_only_the_axes_its_profile_varies_on(monkeypatch, region, calls):
    # d2N32: the strip depends on x_1 alone, so each of D's two profile
    # products is one axis pass each way; the ball keeps both axes
    spec = b.make_torus(2, 32, 1.0)
    shape = {"strip": b.Strip(math.pi / 2, 3 * math.pi / 2), "ball": b.Ball((math.pi,) * 2, 2.8)}
    op = Damping(spec, b.make_damping_profile(spec, shape[region], 0.4))
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


def _estimated_trace_bytes(monkeypatch, spec, T, cfg, profile, n_rec, wave=None):
    """The bytes check_trace_size estimates for a trace of n_rec records."""
    monkeypatch.setattr(dynamics, "MAX_TRACE_BYTES", 0)
    with pytest.raises(ValueError, match=f"a trace of {n_rec} records") as exc:
        dynamics.check_trace_size(spec, T, cfg, profile, wave)
    return int(re.search(r"needs about (\d+) bytes", str(exc.value)).group(1))


@pytest.mark.parametrize("damped", [False, True])
def test_the_trace_size_bound_is_the_traced_peak_of_the_march(monkeypatch, damped):
    # d2N32 over 500 steps: 501 records of 32^2 lattice entries, about 9 MB,
    # the estimate within 5% of the tracemalloc peak
    spec = b.make_torus(2, 32, 1.0)
    u0 = smooth_datum(spec, 7)
    cfg = b.SolverConfig(dt=1e-3)
    profile = b.make_damping_profile(spec, b.Strip(1.0, 3.0))
    run = ((lambda: b.evolve_damped(u0, profile, 0.5, cfg)) if damped
           else (lambda: b.evolve_nonlinear(u0, 0.5, cfg)))
    run()  # builds the kernel caches
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = _estimated_trace_bytes(monkeypatch, spec, 0.5, cfg, profile if damped else None, 501)
    assert 0.95 * peak <= need <= 1.05 * peak


def test_the_trace_size_bound_counts_the_damping_operator_of_a_large_lattice(monkeypatch):
    # d2N64 over 100 steps on the default strip: 101 records of 64^2
    # lattice entries (6.6 MB) beside J and its inverse, two stacks of 43
    # blocks of 43^2 entries (2.5 MB), and the march's working set (1 MB);
    # the estimate within 5% of the tracemalloc peak
    spec = b.make_torus(2, 64, 1.0)
    u0 = smooth_datum(spec, 7)
    cfg = b.SolverConfig(dt=1e-3)
    profile = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2))
    b.evolve_damped(u0, profile, 0.1, cfg)  # builds the kernel caches
    tracemalloc.start()
    try:
        b.evolve_damped(u0, profile, 0.1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = _estimated_trace_bytes(monkeypatch, spec, 0.1, cfg, profile, 101)
    assert 0.95 * peak <= need <= 1.05 * peak


def test_the_trace_size_bound_covers_the_march_and_the_save_of_a_small_lattice(
    tmp_path, monkeypatch
):
    # d1N8 over 20,000 steps at stride 1: 20,001 records of 8 lattice
    # entries, where each record's ledger text in save_trace, with the trace
    # held, outweighs its coefficients
    spec = b.make_torus(1, 8, 1.0)
    u0 = smooth_datum(spec, 7)
    cfg = b.SolverConfig(dt=1e-3)
    b.evolve_nonlinear(u0, 0.01, cfg)  # builds the kernel caches
    tracemalloc.start()
    try:
        trace = b.evolve_nonlinear(u0, 20.0, cfg)
        march = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        save_trace(trace, tmp_path, snapshot_stride=trace.n_records)
        saved = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _estimated_trace_bytes(monkeypatch, spec, 20.0, cfg, None, 20001) >= max(march, saved)


def _grid_break_even():
    """The largest N whose d = 1 march steps on the grid."""
    return max(N for N in range(8, 512, 2) if dynamics.grid_step_route(b.make_torus(1, N, 1.0)))


@pytest.mark.parametrize("N", [32, _grid_break_even()])
@pytest.mark.parametrize("forced", [False, True])
def test_the_trace_size_bound_covers_the_grid_stepper(tmp_path, monkeypatch, N, forced):
    # d = 1 over 500 steps at stride 1 on the grid route, whose composed
    # matrices, the wave's rows among them, are held until the ledger ends
    spec = b.make_torus(1, N, 1.0)
    assert dynamics.grid_step_route(spec)
    _assert_the_trace_size_bound_covers_the_march(tmp_path, monkeypatch, spec, forced)


def test_the_trace_size_bound_covers_a_forced_box_march(tmp_path, monkeypatch):
    # d3N16 on the box route, whose blocks of 11 steps sample the wave's
    # weight at 23 stage times on the 11^3 box
    spec = b.make_torus(3, 16, 1.0)
    assert not dynamics.grid_step_route(spec)
    _assert_the_trace_size_bound_covers_the_march(tmp_path, monkeypatch, spec, True)


def test_the_trace_size_bound_covers_a_forced_d1_box_march(tmp_path, monkeypatch):
    # d1N128 on the box route, where A's rows cover the box: the weight's
    # product is the block's samples, so the march holds one copy of them
    # beside their phases (the estimate read 1.42 of the peak counting two)
    spec = b.make_torus(1, 128, 1.0)
    assert not dynamics.grid_step_route(spec)
    _assert_the_trace_size_bound_covers_the_march(tmp_path, monkeypatch, spec, True)


def _assert_the_trace_size_bound_covers_the_march(tmp_path, monkeypatch, spec, forced):
    """Over 500 steps at stride 1, under a HUM control of band 3 or none,
    the estimate covers the traced peak of the march and of save_trace
    with the trace held, and exceeds it by at most a quarter."""
    u0 = smooth_datum(spec, 7)
    cfg = b.SolverConfig(dt=1e-3)
    h = None
    if forced:
        op = HumOperator(spec, b.make_damping_profile(spec, b.Strip(1.0, 3.0), 0.4), 0.5, band=3)
        h = control_forcing(op, smooth_datum(spec, 8, band=3).coeffs)
    b.evolve_nonlinear(u0, 0.01, cfg, forcing=h)  # builds the kernel caches
    tracemalloc.start()
    try:
        trace = b.evolve_nonlinear(u0, 0.5, cfg, forcing=h)
        march = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        save_trace(trace, tmp_path, snapshot_stride=trace.n_records)
        saved = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = _estimated_trace_bytes(monkeypatch, spec, 0.5, cfg, None, 501, h)
    assert max(march, saved) <= need <= 1.25 * max(march, saved)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_a_solver_config_refuses_a_step_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        b.SolverConfig(dt=dt)


@pytest.mark.parametrize("T", [0.002, 0.02])
def test_a_damped_run_applies_d_only_to_build_its_blocks(monkeypatch, T):
    # the bench's stabilize shape: d2N32, default strip. The strip varies on
    # axis 0 alone, so the 21 x 21 box splits into 21 blocks of m = 21 modes,
    # built from 21 fields; no step or record applies D again
    spec = b.make_torus(2, 32, 1.0)
    prof = b.make_damping_profile(spec, b.Strip(math.pi / 2, 3 * math.pi / 2))
    fields = []
    apply = dynamics.sandwich

    def counted_apply(spec_, a, c):
        fields.append(len(c) if c.ndim > spec.d else 1)
        return apply(spec_, a, c)

    monkeypatch.setattr(dynamics, "sandwich", counted_apply)
    trace = b.evolve_damped(smooth_datum(spec, 3), prof, T, b.SolverConfig(dt=1e-3, record_stride=10))
    assert trace.times[-1] == pytest.approx(T)
    assert sum(fields) == 21


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
    s1 = sobolev_weights(spec, -1)
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
# the box march against a full-lattice oracle
# ---------------------------------------------------------------------------

def _lattice_march(u, lin, dt, n, nonlin):
    """n ETDRK4 steps on full lattice arrays, written out from
    Etdrk4Tableau's weights; nonlin maps a stage state and its time to the
    stage term. The oracle of the flows' march on box arrays."""
    tab = dynamics.Etdrk4Tableau(lin, dt)
    for j in range(n):
        t = j * dt
        n0 = nonlin(u, t)
        a = tab.E2 * u + tab.Q * n0
        na = nonlin(a, t + dt / 2)
        bb = tab.E2 * u + tab.Q * na
        nb = nonlin(bb, t + dt / 2)
        c = tab.E2 * a + tab.Q * (2.0 * nb - n0)
        nc = nonlin(c, t + dt)
        u = tab.E * u + tab.f1 * n0 + tab.f2 * (na + nb) + tab.f3 * nc
    return u


def _masked_term(spec, c):
    return np.where(spec.dealias_mask, nonlinear_term(spec, c, 1), 0.0)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16), (3, 16)])
@pytest.mark.parametrize("forced", [False, True])
def test_the_nonlinear_box_march_is_the_lattice_march(d, N, forced):
    # 20 steps of i u_t + L u + |u|^2 u = h on the lattice, the state and
    # h masked to the dealiasing box at every stage. The datum's size makes
    # the cubic term move the final state by 5e-2 (d = 1) to 3e-4 (d = 3)
    # relative to the free flow
    spec = b.make_torus(d, N, 1.0)
    mask = spec.dealias_mask
    dt, n = 1e-3, 20
    u0 = smooth_datum(spec, 20 + d, decay=2.0, h2={1: 10.0, 2: 30.0, 3: 100.0}[d])
    rng = np.random.default_rng(d)
    F = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    omega = rng.uniform(-50.0, 50.0, spec.shape)

    def nonlin(c, t):
        out = 1j * _masked_term(spec, c)
        if forced:
            out -= 1j * np.where(mask, np.exp(1j * t * omega) * F, 0.0)
        return out

    wave = _identity_wave(omega[spec.box], F[spec.box]) if forced else None
    trace = b.evolve_nonlinear(u0, n * dt, b.SolverConfig(dt=dt, record_stride=n), forcing=wave)
    ref = _lattice_march(np.where(mask, u0.coeffs, 0.0), 1j * spec.dispersion, dt, n, nonlin)
    assert trace.states.shape == (2,) + spec.shape
    assert np.all(trace.states[:, ~mask] == 0.0)
    assert _rel(trace.states[-1], ref) <= 1e-13


@pytest.mark.parametrize("N", [8, 32, _grid_break_even()])
@pytest.mark.parametrize("case", ["unforced", "hum", "k2"])
def test_the_grid_march_is_the_box_march(monkeypatch, N, case):
    # 250 steps at d = 1 on both evaluators of the scheme's rows: the grid
    # stepper's composed matrices against the box stepper's stage calls,
    # unforced, under a HUM control (its offsets, and the first stages'
    # terms that forced_term_blocks streams) and for |u|^4 u; the datum's
    # size moves the final state by 3e-2 to 1.6 relative to the free flow
    spec = b.make_torus(1, N, 1.0)
    assert dynamics.grid_step_route(spec)
    k = 2 if case == "k2" else 1
    u0 = smooth_datum(spec, 30, decay=2.0, h2=10.0)
    cfg = b.SolverConfig(dt=1e-3, k_nl=k, record_stride=25)
    h = None
    if case == "hum":
        op = HumOperator(spec, b.make_damping_profile(spec, b.Strip(1.0, 3.0), 0.4), 0.25, band=3)
        h = control_forcing(op, smooth_datum(spec, 31, band=3, h2=1e3).coeffs)
    runs = []
    for grid in (True, False):
        if not grid:
            monkeypatch.setattr(dynamics, "grid_step_route", lambda spec: False)
        blocks = [] if h is None else list(dynamics.forced_term_blocks(u0, 0.25, cfg, h))
        runs.append((b.evolve_nonlinear(u0, 0.25, cfg, forcing=h).states, blocks))
    (grid_states, grid_blocks), (box_states, box_blocks) = runs
    assert _rel(grid_states, box_states) <= 1e-13
    assert len(grid_blocks) == len(box_blocks)
    for (t_grid, terms_grid), (t_box, terms_box) in zip(grid_blocks, box_blocks):
        assert np.array_equal(t_grid, t_box)
        assert _rel(terms_grid, terms_box) <= 1e-13


def _hum_wave(spec, T, band=3):
    """A HUM control's wave on the strip (1, 3) of width 0.4."""
    op = HumOperator(spec, b.make_damping_profile(spec, b.Strip(1.0, 3.0), 0.4), T, band=band)
    return control_forcing(op, smooth_datum(spec, 8, band=band, h2=10.0).coeffs)


def test_the_grid_stepper_keeps_the_wave_phase_over_a_thousand_steps():
    # d1N32, unbanded: after 1,000 steps of 1e-3 the grid stepper's wave
    # has taken 1,000 products with e^{i dt X}; its next step from u = 0,
    # a smooth map of the wave alone, is the step of a stepper whose wave
    # starts at e^{iX} v, to 1e-12 relative
    spec = b.make_torus(1, 32, 1.0)
    wave = _hum_wave(spec, 1.0, None)
    tab = dynamics.Etdrk4Tableau(1j * spec.dispersion[spec.box], 1e-3)
    step = dynamics._grid_stepper(spec, tab, 1, wave)[0]
    u = smooth_datum(spec, 7).coeffs[spec.box]
    for _ in range(1000):
        u = step(u)
    late = dynamics.FreeWave(wave.X, b.spectral.free_phase(1.0, wave.X) * wave.v, wave.weight)
    zero = np.zeros_like(u)
    assert _rel(step(zero), dynamics._grid_stepper(spec, tab, 1, late)[0](zero)) <= 1e-12


def test_the_box_route_keeps_the_wave_phase_over_a_thousand_steps():
    # d3N16: 1,000 steps of 1e-3 sample the wave by blocks of 11, each
    # block's coefficients the last block's end times the run's table of
    # e^{i j dt/2 X}; the last sample's are free_phase(1.0, X) v to 1e-12
    # relative
    spec = b.make_torus(3, 16, 1.0)
    assert not dynamics.grid_step_route(spec)
    wave = _hum_wave(spec, 1.0)
    last = []
    seen = dynamics.FreeWave(wave.X, wave.v, lambda w: last.append(w[-1].copy()) or wave.weight(w))
    b.evolve_nonlinear(b.zero_field(spec), 1.0, b.SolverConfig(record_stride=10**9), forcing=seen)
    assert _rel(last[-1], b.spectral.free_phase(1.0, wave.X) * wave.v) <= 1e-12


def test_a_forced_march_at_d3n16_holds_no_lattice_array_in_its_loop(monkeypatch):
    # the wave is sampled on the box (blocks of 11 steps, 23 samples of
    # 11^3 entries): at the first stage of each of 40 steps, the only live
    # allocation of the march that holds a whole number of 16^3 lattice
    # arrays is its two records (a forcing block on the lattice adds 23)
    spec = b.make_torus(3, 16, 1.0)
    wave = _hum_wave(spec, 0.04)
    u0, cfg = smooth_datum(spec, 7), b.SolverConfig(record_stride=10**9)
    lattice, kernel, sizes = 16 * spec.n_modes, dynamics.dealiased_term_kernel, []

    def watched(spec, k):
        term, calls = kernel(spec, k), itertools.count()

        def call(v):
            if next(calls) % 4 == 0:
                traces = tracemalloc.take_snapshot().traces
                sizes.append(sorted(t.size for t in traces if t.size and t.size % lattice == 0))
            return term(v)

        return call

    b.evolve_nonlinear(u0, 0.04, cfg, forcing=wave)  # builds the kernel caches
    monkeypatch.setattr(dynamics, "dealiased_term_kernel", watched)
    tracemalloc.start()
    try:
        b.evolve_nonlinear(u0, 0.04, cfg, forcing=wave)
    finally:
        tracemalloc.stop()
    assert sizes == [[2 * lattice]] * 40


def test_the_march_steps_on_the_grid_at_d1_up_to_the_break_even(monkeypatch):
    # the bench's control-nonlinear lattice takes the grid route; d = 1
    # above the break-even and every d >= 2 lattice take the box route, in
    # evolve_nonlinear and forced_term_blocks alike
    config = Path(__file__).resolve().parents[1] / "bench" / "configs" / "control-nonlinear.ini"
    bench = _build_spec(_load_config(str(config)))
    top = _grid_break_even()
    cases = [(bench, True), (b.make_torus(1, top, 1.0), True), (b.make_torus(1, top + 2, 1.0), False),
             (b.make_torus(1, 128, 1.0), False), (b.make_torus(2, 8, 1.0), False),
             (b.make_torus(2, 32, 1.0), False), (b.make_torus(3, 8, 1.0), False)]
    assert (bench.d, bench.N) == (1, 32)
    built = []
    stepper = dynamics._grid_stepper
    monkeypatch.setattr(dynamics, "_grid_stepper", lambda *args: built.append(1) or stepper(*args))
    cfg = b.SolverConfig(dt=1e-3)
    for spec, grid in cases:
        built.clear()
        assert dynamics.grid_step_route(spec) == grid
        h = _identity_wave(np.zeros(spec.shape)[spec.box], np.ones(spec.shape)[spec.box])
        b.evolve_nonlinear(smooth_datum(spec, 5), 0.003, cfg)
        list(dynamics.forced_term_blocks(b.zero_field(spec), 0.003, cfg, h))
        assert len(built) == (2 if grid else 0), (spec.d, spec.N)


@pytest.mark.parametrize("d, N, region", [(1, 32, "strip"), (2, 16, "strip"), (2, 16, "ball")])
def test_the_damped_box_march_is_the_lattice_march_of_v(d, N, region):
    # v = J u on the lattice, J = 1 - i D on the ball from the dense
    # multiplication matrix: v_t = i mult v - mult D w + i f(w), w = J^{-1} v
    spec = b.make_torus(d, N, 1.0)
    shape = {"strip": b.Strip(math.pi / 2, 3 * math.pi / 2), "ball": b.Ball((math.pi,) * d, 2.8)}
    prof = b.make_damping_profile(spec, shape[region], 0.4)
    mask = spec.dealias_mask
    ball = np.flatnonzero(mask)
    M = multiplication_matrix(spec, prof.values)
    D = ((M * sobolev_weights(spec, -2).ravel()) @ M)[np.ix_(ball, ball)]
    J = np.eye(len(ball)) - 1j * D
    mult = spec.dispersion + 1.0
    dt, n = 1e-3, 20

    def on_ball(x):
        out = np.zeros(spec.n_modes, dtype=complex)
        out[ball] = x
        return out.reshape(spec.shape)

    def nonlin(v, t):
        w = on_ball(np.linalg.solve(J, v.reshape(-1)[ball]))
        return -mult * on_ball(D @ w.reshape(-1)[ball]) + 1j * _masked_term(spec, w)

    u0 = smooth_datum(spec, 30 + d, h2=10.0)
    v0 = on_ball(J @ u0.coeffs.reshape(-1)[ball])
    vT = _lattice_march(v0, 1j * mult, dt, n, nonlin)
    ref = on_ball(np.linalg.solve(J, vT.reshape(-1)[ball]))
    trace = b.evolve_damped(u0, prof, n * dt, b.SolverConfig(dt=dt, record_stride=n))
    assert trace.states.shape == (2,) + spec.shape
    assert np.all(trace.states[:, ~mask] == 0.0)
    assert _rel(trace.states[-1], ref) <= 1e-13


# ---------------------------------------------------------------------------
# dissipation audit
# ---------------------------------------------------------------------------

def test_audit_zero_damping():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 7)
    trace = b.evolve_damped(
        u0, b.DampingProfile(spec, np.full(spec.shape, 0.0)), 0.5, b.SolverConfig(dt=1e-3)
    )
    aud = audit_dissipation(trace)
    assert aud.rhs == 0.0
    assert abs(aud.lhs) <= 1e-7


def test_audit_full_damping_identity():
    spec = b.make_torus(1, 64, 1.0)
    u0 = smooth_datum(spec, 8, decay=6.0)
    trace = b.evolve_damped(
        u0, b.DampingProfile(spec, np.full(spec.shape, 1.0)), 1.0, b.SolverConfig(dt=1e-3)
    )
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
        u0, b.DampingProfile(spec, np.full(spec.shape, 1.0)), 0.02, b.SolverConfig(dt=1e-3)
    )
    save_trace(trace, tmp_path, snapshot_stride=5)
    led = load_ledger(tmp_path / "ledger.csv")
    assert np.array_equal(led["t"], trace.times)
    assert np.array_equal(led["energy"], trace.energies)
    assert np.array_equal(led["damping_flux"], trace.fluxes)
    states = load_trace_states(tmp_path)
    assert np.array_equal(states[0].coeffs, trace.states[0])


def test_trace_states_load_in_record_order_past_a_million(tmp_path):
    # by name, state_1000000.b4f sorts between state_100000 and state_200000
    spec = b.make_torus(1, 8, 1.0)
    records = [100_000, 999_999, 1_000_000]
    for i in records:
        b.save_field(b.basis_field(spec, 1, float(i)), tmp_path / f"state_{i:06d}.b4f")
    states = load_trace_states(tmp_path)
    assert [s.coeffs[_mode_index(spec, 1)].real for s in states] == records


def test_an_empty_ledger_is_refused(tmp_path):
    path = tmp_path / "ledger.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty ledger"):
        load_ledger(path)


def test_a_header_only_ledger_has_zero_length_columns(tmp_path):
    path = tmp_path / "ledger.csv"
    path.write_text("t,mass,energy,damping_flux\r\n")
    led = load_ledger(path)
    assert list(led) == ["t", "mass", "energy", "damping_flux"]
    assert all(col.shape == (0,) and col.dtype == float for col in led.values())


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
