"""Time integration for the fourth-order Schrodinger flows on the torus.

Three flows share one exponential integrator:

  free / forced / nonlinear   i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u = h
  damped feedback             i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u + u
                                  = - a(x) (1 - Lap)^{-2} (a(x) u_t)

with the defocusing sign throughout. The generator is treated exactly in
Fourier (fourth-order exponential time differencing, ETDRK4), which is the
only practical choice given the |k|^4 stiffness.

The damped equation is integrated through the bounded reformulation
v = J u, J = 1 - i D, D = a (1-Lap)^{-2} a: the stiff part of the
v-equation is the diagonal multiplier i(|k|^4 + beta |k|^2 + 1) and the
remainder is a zero-order operator evaluated through an inner solve of
J w = v. D is compact with fast eigenvalue decay, so the solve deflates a
Ritz basis of D's leading eigenvectors, built once per run, and iterates on
the remainder, which contracts by about the first eigenvalue left out.

The semidiscrete system keeps the state inside the 2/3-rule dealiasing
ball and evaluates |u|^{2k} u pointwise on the grid; with that convention
mass, energy and the damping-flux identity

    E(t) - E(0) = - int_0^t || (1-Lap)^{-1} ( a u_t ) ||_{L^2}^2

are exact properties of the ODE system, so the recorded ledgers audit the
time integrator itself. For u_t in the ball the flux is D's quadratic form
<u_t, D u_t>, so a record reads it off the D w of its u_t solve.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import IterationError, ritz_pairs

# Nothing here calls cg_hermitian; the name stays because the benchmark's
# traced run wraps b4nls.dynamics.cg_hermitian (bench/layers.py).
from .linalg import cg_hermitian  # noqa: F401
from .spectral import (
    DampingProfile,
    ManifoldSpec,
    SpectralField,
    _grid_modulus,
    kernel_rows,
    load_field,
    nonlinear_term,
    sandwich,
    save_field,
    smoothing_multiplier,
    sobolev_weights,
)


# A run stops with BlowUpError once a recorded H^2 norm exceeds this
# multiple of the initial one (of 1 for zero initial data).
BLOWUP_FACTOR = 1e6

# Relative tolerance and update cap of the damping solve J w = v.
INNER_TOL = 1e-12
INNER_MAX_ITER = 400

# Ritz basis of D that preconditions the damping solve: at most RITZ_RANK
# vectors from RITZ_STEPS applies of D to a random block (the range
# finder's and two power steps). On the default strip at d2N32 the
# remainder contracts by 6.7e-4 per update (5.3e-4 with D's exact
# eigenvectors), and a warm solve averages 1.5 updates; with one power
# step fewer, 8.2e-4 and 1.8 updates.
RITZ_RANK = 48
RITZ_STEPS = 3


class BlowUpError(RuntimeError):
    """H^2 norm exceeded the blow-up guard during evolution."""


@dataclass(frozen=True)
class SolverConfig:
    """Integrator parameters.

    k_nl is the nonlinearity strength index: the potential term is
    |u|^{2 k_nl} u (power alpha = 2 k_nl + 1), with the defocusing sign.
    """

    dt: float = 1e-3
    k_nl: int = 1
    include_nonlinearity: bool = True
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.k_nl < 1:
            raise ValueError("k_nl must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record stride must be >= 1")


@dataclass(frozen=True)
class EvolutionTrace:
    """Uniformly sampled trajectory with its conservation ledger."""

    spec: ManifoldSpec
    times: np.ndarray
    states: np.ndarray  # (n_rec,) + lattice shape
    masses: np.ndarray
    energies: np.ndarray
    fluxes: np.ndarray  # damping flux ||(1-Lap)^{-1}(a u_t)||^2, 0 if undamped
    damped: bool
    k_nl: int
    # preconditioned updates of each damping solve of a stage or record
    # state; None for an undamped run, all 0 for a constant profile
    inner_iterations: np.ndarray | None = None

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.spec, self.states[i])

    @property
    def n_records(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------

# Both ledger functions take one field or a stack of them along a leading
# axis, and return a float or one value per field.

def _lattice_sum(spec: ManifoldSpec, x: np.ndarray) -> float | np.ndarray:
    total = np.sum(x, axis=tuple(range(-spec.d, 0)))
    return float(total) if total.ndim == 0 else total


def mass(spec: ManifoldSpec, coeffs: np.ndarray) -> float | np.ndarray:
    return _lattice_sum(spec, np.abs(coeffs) ** 2)


def energy(
    spec: ManifoldSpec,
    coeffs: np.ndarray,
    k_nl: int,
    include_mass_term: bool = False,
    include_potential: bool = True,
) -> float | np.ndarray:
    """E = 1/2 int |Lap u|^2 + beta/2 int |grad u|^2 (+ 1/2 int |u|^2)
    + 1/(2k+2) int |u|^{2k+2}, with the grid quadrature for the potential."""
    p2 = np.abs(coeffs) ** 2
    total = 0.5 * _lattice_sum(spec, (spec.k_sq**2 + spec.beta * spec.k_sq) * p2)
    if include_mass_term:
        total += 0.5 * _lattice_sum(spec, p2)
    if include_potential:
        modulus = _grid_modulus(spec, coeffs)
        total += (
            _lattice_sum(spec, modulus ** (2 * k_nl + 2)) * spec.cell_volume
        ) / (2 * k_nl + 2)
    return total


# ---------------------------------------------------------------------------
# ETDRK4 coefficient functions
# ---------------------------------------------------------------------------

def _phi(n: int, z: np.ndarray) -> np.ndarray:
    """phi_n(z) with a series branch near 0; stable for imaginary z."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.25
    zs = z[small]
    # phi_n(z) = sum_{j>=0} z^j / (j + n)!
    acc = np.zeros_like(zs)
    term = np.ones_like(zs) / math.factorial(n)
    acc += term
    for j in range(1, 18):
        term = term * zs / (j + n)
        acc += term
    out[small] = acc
    zb = z[~small]
    ez = np.exp(zb)
    if n == 1:
        out[~small] = (ez - 1.0) / zb
    elif n == 2:
        out[~small] = (ez - 1.0 - zb) / zb**2
    elif n == 3:
        out[~small] = (ez - 1.0 - zb - zb**2 / 2.0) / zb**3
    else:
        raise ValueError("phi order not supported")
    return out


class _Etdrk4Tableau:
    """Precomputed exponential coefficients for a diagonal generator."""

    def __init__(self, lin: np.ndarray, dt: float):
        z = dt * lin
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        self.Q = (dt / 2.0) * _phi(1, z / 2.0)
        p1, p2, p3 = _phi(1, z), _phi(2, z), _phi(3, z)
        self.f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = dt * (p2 - 2.0 * p3)
        self.f3 = dt * (4.0 * p3 - p2)

    def step(self, u: np.ndarray, t: float, t_next: float, nonlin) -> np.ndarray:
        """One step from t to t_next; the end time is the caller's, so that
        it equals the next step's start exactly."""
        t_mid = 0.5 * (t + t_next)
        n0 = nonlin(u, t)
        a = self.E2 * u + self.Q * n0
        na = nonlin(a, t_mid)
        b = self.E2 * u + self.Q * na
        nb = nonlin(b, t_mid)
        c = self.E2 * a + self.Q * (2.0 * nb - n0)
        nc = nonlin(c, t_next)
        return self.E * u + self.f1 * n0 + 2.0 * self.f2 * (na + nb) + self.f3 * nc


def _resolve_steps(T: float, dt: float) -> tuple[int, float]:
    n = max(1, int(round(T / dt)))
    return n, T / n


# ---------------------------------------------------------------------------
# undamped / forced flow
# ---------------------------------------------------------------------------

def evolve_nonlinear(
    u0: SpectralField,
    T: float,
    cfg: SolverConfig,
    forcing=None,
) -> EvolutionTrace:
    """Integrate i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u = h.

    forcing, if given, is a callable t -> coefficient array (lattice order)
    evaluated at the integrator stage times. Without forcing the flow
    conserves mass and energy up to the integrator error, which the ledger
    records. States are kept in the dealiasing ball whenever the nonlinear
    term is active.
    """
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    spec = u0.spec
    n_steps, dt = _resolve_steps(T, cfg.dt)

    mask = spec.dealias_mask
    use_nl = cfg.include_nonlinearity
    c = u0.coeffs.astype(complex)
    if use_nl:
        c = np.where(mask, c, 0.0)

    def nonlin(cc: np.ndarray, t: float) -> np.ndarray:
        out = 0.0
        if use_nl:
            fc = nonlinear_term(spec, cc, cfg.k_nl)
            out = 1j * np.where(mask, fc, 0.0)
        if forcing is not None:
            h = np.asarray(forcing(t), dtype=complex)
            if use_nl:
                h = np.where(mask, h, 0.0)
            out = out - 1j * h
        if forcing is None and not use_nl:
            return np.zeros_like(cc)
        return out

    tab = _Etdrk4Tableau(1j * spec.dispersion, dt)
    stepper = lambda cc, t, t_next: tab.step(cc, t, t_next, nonlin)

    return _march(
        spec, c, dt, n_steps, cfg, stepper,
        damped=False, include_mass_term=False,
    )


# ---------------------------------------------------------------------------
# damped flow
# ---------------------------------------------------------------------------

class _DampingOperator:
    """D = a (1-Lap)^{-2} (a .) restricted to the dealiasing ball, and the
    solve of J w = (1 - i D) w = v.

    A constant profile makes D diagonal. Otherwise D's leading Ritz pairs
    (V, theta) on the ball are built once; they give the preconditioner
    P = 1 + V^H [(1 - i theta)^{-1} - 1] V, which inverts J on the span of
    V, and I - P J is about i D on the complement. When the ball has at
    most RITZ_RANK modes the pairs are exact and P = J^{-1}.
    """

    def __init__(self, spec: ManifoldSpec, profile: DampingProfile):
        self.spec = spec
        self.a = profile.values
        self.s2 = smoothing_multiplier(spec, 2)
        self.mask = spec.dealias_mask
        self.constant = profile.is_constant
        if self.constant:
            a0 = float(profile.values.flat[0])
            self.diag = a0 * a0 * self.s2
            return
        self.ball = np.flatnonzero(self.mask)
        n = len(self.ball)
        self.exact = n <= RITZ_RANK
        if self.exact:  # the unit vectors span the ball: exact pairs
            start, steps = np.eye(n, dtype=complex), 0
        else:
            rng = np.random.default_rng(0)
            start = rng.standard_normal((RITZ_RANK, n)) + 1j * rng.standard_normal((RITZ_RANK, n))
            steps = RITZ_STEPS
        self.V, theta = ritz_pairs(
            lambda x: kernel_rows(spec, self.apply, x, self.ball, self.ball), start, steps
        )
        self.Vh = self.V.conj().T
        self.shift = 1.0 / (1.0 - 1j * theta) - 1.0

    def apply(self, c: np.ndarray) -> np.ndarray:
        if self.constant:
            return self.diag * c
        return np.where(self.mask, sandwich(self.spec, self.a, self.s2, c), 0.0)

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """P r, which moves only the ball coefficients of r."""
        out = r.copy()
        flat = out.reshape(-1)
        flat[self.ball] += self.Vh @ (self.shift * (self.V @ flat[self.ball]))
        return out

    def solve_j(self, v: np.ndarray, x0: np.ndarray | None = None):
        """Solve (1 - i D) w = v to INNER_TOL; returns (w, updates, D w).

        Richardson on the true residual, preconditioned by P: from x0, or
        from P v when x0 is None or P = J^{-1}, each pass applies D to w,
        returns once ||v - J w|| <= INNER_TOL ||v||, and else adds P of the
        residual. The returned D w is that last check's apply, handed out
        so that a caller does not apply D to w again.
        """
        if self.constant:
            w = v / (1.0 - 1j * self.diag)
            return w, 0, self.diag * w

        scale = float(np.linalg.norm(v))
        w = self._precondition(v) if x0 is None or self.exact else x0
        updates = 0
        while True:
            dw = self.apply(w)
            r = v - (w - 1j * dw)
            res = float(np.linalg.norm(r))
            if res <= INNER_TOL * scale or updates == INNER_MAX_ITER:
                break
            w = w + self._precondition(r)
            updates += 1
        if scale > 0.0 and res > 10.0 * INNER_TOL * scale:
            raise IterationError(
                f"damping solve stalled: residual {res / scale:.3e} after {updates} updates"
            )
        return w, updates, dw


def evolve_damped(
    u0: SpectralField,
    profile: DampingProfile,
    T: float,
    cfg: SolverConfig,
) -> EvolutionTrace:
    """Integrate the damped feedback system.

    i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u + u = - a (1-Lap)^{-2} (a u_t)

    The recorded flux column holds ||(1-Lap)^{-1}(a u_t)||^2 per time, so
    audit_dissipation can check the energy identity by quadrature.
    """
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    spec = u0.spec
    if profile.spec != spec:
        raise ValueError("damping profile lives on a different spec")
    n_steps, dt = _resolve_steps(T, cfg.dt)

    mask = spec.dealias_mask
    damp = _DampingOperator(spec, profile)
    mult = spec.dispersion + 1.0  # |k|^4 + beta |k|^2 + 1

    def f_ball(cc: np.ndarray) -> np.ndarray:
        if not cfg.include_nonlinearity:
            return np.zeros_like(cc)
        fc = nonlinear_term(spec, cc, cfg.k_nl)
        return np.where(mask, fc, 0.0)

    inner_counts: list[int] = []
    last = None  # (v, w, D w) of the last solve of a stage or record state

    def solve(vv: np.ndarray):
        nonlocal last
        # a record's state is the next step's first stage: solved once
        if last is not None and last[0] is vv:
            return last[1], last[2]
        # w - v = i D w is smooth and moves little from one solve to the
        # next, so the last solve's difference starts this one
        x0 = None if last is None else vv + (last[1] - last[0])
        w, it, dw = damp.solve_j(vv, x0)
        last = (vv, w, dw)
        inner_counts.append(it)
        return w, dw

    def nonlin(vv: np.ndarray, t: float) -> np.ndarray:
        w, dw = solve(vv)
        return -mult * dw + 1j * f_ball(w)

    tab = _Etdrk4Tableau(1j * mult, dt)
    stepper = lambda vv, t, t_next: tab.step(vv, t, t_next, nonlin)

    c0 = np.where(mask, u0.coeffs.astype(complex), 0.0)
    v0 = c0 - 1j * damp.apply(c0)  # v = J u

    def recover(vv: np.ndarray):
        # u_t = i w for the solve below, so the flux ||(1-Lap)^{-1}(a u_t)||^2
        # is D's quadratic form <u_t, D u_t> = <w, D w>
        u = solve(vv)[0]
        w, _, dw = damp.solve_j(mult * u + f_ball(u))
        return u, float(np.real(np.vdot(w, dw)))

    return _march(
        spec, v0, dt, n_steps, cfg, stepper,
        damped=True, include_mass_term=True,
        recover=recover, inner_counts=inner_counts,
    )


# ---------------------------------------------------------------------------
# shared marching loop
# ---------------------------------------------------------------------------

# Lattice entries per block of records in the ledger: small fields share one
# grid transform, and the ledger's grid temporaries stay the size of one
# 64 x 64 field however many records a run keeps.
_LEDGER_BLOCK_ENTRIES = 4096


def _march(
    spec: ManifoldSpec,
    state0: np.ndarray,
    dt: float,
    n_steps: int,
    cfg: SolverConfig,
    stepper,
    damped: bool,
    include_mass_term: bool,
    recover=None,
    inner_counts: list[int] | None = None,
) -> EvolutionTrace:
    """Step n_steps times and record every cfg.record_stride steps.

    The ledger is computed after the loop over blocks of stacked records;
    only the blow-up guard (BLOWUP_FACTOR) runs per record.
    """
    h2w = sobolev_weights(spec, 2.0)

    def h2_norm(cc: np.ndarray) -> float:
        return math.sqrt(float(np.sum(h2w * np.abs(cc) ** 2)))

    times = [0.0]
    if recover is None:
        u0c, flux0 = state0, 0.0
    else:
        u0c, flux0 = recover(state0)
    states = [u0c]
    fluxes = [flux0]
    # zero initial data (forced runs) falls back to an absolute unit scale
    guard = BLOWUP_FACTOR * max(h2_norm(u0c), 1.0 if h2_norm(u0c) == 0.0 else 0.0)

    state = state0
    t = 0.0
    for step in range(1, n_steps + 1):
        t_next = step * dt
        state = stepper(state, t, t_next)
        t = t_next
        if step % cfg.record_stride == 0 or step == n_steps:
            if recover is None:
                uc, fl = state, 0.0
            else:
                uc, fl = recover(state)
            times.append(t)
            states.append(uc)
            fluxes.append(fl)
            if not h2_norm(uc) <= guard:  # NaN or inf fails the test too
                raise BlowUpError(f"H^2 norm exceeded guard at t = {t:.6g}")

    states = np.asarray(states)
    block = max(1, _LEDGER_BLOCK_ENTRIES // spec.n_modes)
    blocks = [states[i:i + block] for i in range(0, len(states), block)]
    return EvolutionTrace(
        spec=spec,
        times=np.asarray(times),
        states=states,
        masses=np.concatenate([mass(spec, c) for c in blocks]),
        energies=np.concatenate([
            energy(spec, c, cfg.k_nl, include_mass_term, cfg.include_nonlinearity)
            for c in blocks
        ]),
        fluxes=np.asarray(fluxes),
        damped=damped,
        k_nl=cfg.k_nl,
        inner_iterations=np.asarray(inner_counts) if inner_counts is not None else None,
    )


# ---------------------------------------------------------------------------
# ledger analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationAudit:
    lhs: float  # E(T) - E(0)
    rhs: float  # - integral of the damping flux
    mismatch: float  # relative


def audit_dissipation(trace: EvolutionTrace) -> DissipationAudit:
    """Check E(T) - E(0) against the time-integrated damping flux."""
    if not trace.damped:
        raise ValueError("dissipation audit needs a damped trace with a flux ledger")
    lhs = float(trace.energies[-1] - trace.energies[0])
    rhs = -float(np.trapezoid(trace.fluxes, trace.times))
    mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return DissipationAudit(lhs=lhs, rhs=rhs, mismatch=mismatch)


@dataclass(frozen=True)
class DecayFit:
    gamma: float
    r_squared: float


def fit_decay_rate(times, energies) -> DecayFit:
    """Least-squares exponential fit E(t) ~ exp(-2 gamma t) on log E.

    gamma = -slope/2, matching E ~ ||u||^2 for the H^2 decay statement.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    if t.shape != e.shape or t.ndim != 1 or len(t) < 2:
        raise ValueError("need matching 1-d time and energy series")
    if np.any(e <= 0.0):
        raise ValueError("energies must be positive for a log fit")
    y = np.log(e)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-28:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(gamma=-0.5 * float(coef[0]), r_squared=r2)


# ---------------------------------------------------------------------------
# trace persistence
# ---------------------------------------------------------------------------

LEDGER_HEADER = ["t", "mass", "energy", "damping_flux"]


def save_trace(trace: EvolutionTrace, outdir, snapshot_stride: int = 1) -> None:
    """Write ledger.csv plus field snapshots into a directory."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "ledger.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LEDGER_HEADER)
        for i in range(trace.n_records):
            w.writerow(
                [
                    repr(float(trace.times[i])),
                    repr(float(trace.masses[i])),
                    repr(float(trace.energies[i])),
                    repr(float(trace.fluxes[i])),
                ]
            )
    for i in range(0, trace.n_records, snapshot_stride):
        save_field(trace.state(i), os.path.join(outdir, f"state_{i:06d}.b4f"))


def load_ledger(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != LEDGER_HEADER:
        raise ValueError("unrecognized ledger header")
    cols = np.array([[float(x) for x in row] for row in rows[1:]])
    return {name: cols[:, i] for i, name in enumerate(LEDGER_HEADER)}


def load_trace_states(outdir) -> list[SpectralField]:
    names = sorted(
        f for f in os.listdir(outdir) if f.startswith("state_") and f.endswith(".b4f")
    )
    return [load_field(os.path.join(outdir, f)) for f in names]
