"""Time integration for the fourth-order Schrodinger flows on the torus.

Three flows share one exponential integrator:

  free / forced / nonlinear   i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u = h
  damped feedback             i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u + u
                                  = - a(x) (1 - Lap)^{-2} (a(x) u_t)

with the defocusing sign throughout. The generator is treated exactly in
Fourier (fourth-order exponential time differencing, ETDRK4), which is the
only practical choice given the |k|^4 stiffness; `_phi` gives its phi_1..3
(Kassam & Trefethen, SISC 26 (2005)). Every horizon, the time kernel's and
the band Gramian's included, is cut into the steps of `step_grid`.

The damped equation is integrated through the bounded reformulation
v = J u, J = 1 - i D, D = a (1-Lap)^{-2} a: the stiff part of the
v-equation is the diagonal multiplier i(|k|^4 + beta |k|^2 + 1) and the
remainder is a zero-order operator evaluated through a solve of J w = v.
Along an axis where the profile a is constant, D is diagonal in that axis's
wavenumber, so on the dealiasing box D splits into one block per
wavenumber of those axes; J is inverted block by block, once per run, and
each solve is one batched product with the inverses.

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
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

# Nothing here calls cg_hermitian; the name stays because the benchmark's
# traced run wraps b4nls.dynamics.cg_hermitian (bench/layers.py).
from .linalg import cg_hermitian  # noqa: F401
from .spectral import (
    DampingProfile,
    ManifoldSpec,
    SpectralField,
    _grid_modulus,
    block_layout,
    blockwise,
    dealiased_nonlinear_term,
    hs_norm,
    kernel_rows,
    load_field,
    sandwich,
    save_field,
    smoothing_multiplier,
)


# A run stops with BlowUpError once a recorded H^2 norm exceeds this
# multiple of the initial one (of 1 for zero initial data).
BLOWUP_FACTOR = 1e6

# Entries of the damping operator's blocks (64 MiB of complex), the cap of
# hum.MAX_OPERATOR_ENTRIES. A d2N64 ball, one block of 43^2 modes, is near
# it: 2.2 s to build and about 4 ms per step on a 2-core Xeon VM, and the
# cost grows as the square of the block size.
MAX_BLOCK_ENTRIES = 2**22


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
        if not 0.0 < self.dt < math.inf:  # NaN fails the test too
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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
    total = 0.5 * _lattice_sum(spec, spec.dispersion * p2)
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

def _phi(z: np.ndarray) -> np.ndarray:
    """phi_1, phi_2, phi_3 at z, stacked, phi_n(z) = sum_{j>=0} z^j / (j + n)!.
    Below |z| = 0.25, phi_3's series and phi_n = z phi_{n+1} + 1/n!; at or
    above, phi_1 = (e^z - 1)/z and phi_{n+1} = (phi_n - 1/n!)/z. Neither
    branch divides by a small z, so imaginary z are safe."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.25
    big = ~small
    zs, zb = z[small], z[big]
    out = np.empty((3,) + z.shape, dtype=complex)
    series = np.zeros_like(zs)
    for j in range(17, -1, -1):  # Horner's rule on sum_j z^j / (j + 3)!
        series = series * zs + 1.0 / math.factorial(j + 3)
    out[2, small] = series
    out[1, small] = zs * series + 0.5
    out[0, small] = zs * out[1, small] + 1.0
    out[0, big] = (np.exp(zb) - 1.0) / zb
    out[1, big] = (out[0, big] - 1.0) / zb
    out[2, big] = (out[1, big] - 0.5) / zb
    return out


class _Etdrk4Tableau:
    """Precomputed exponential coefficients for a diagonal generator."""

    def __init__(self, lin: np.ndarray, dt: float):
        z = dt * lin
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        self.Q = (dt / 2.0) * _phi(z / 2.0)[0]
        p1, p2, p3 = _phi(z)
        self.f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * (dt * (p2 - 2.0 * p3))  # weighs both middle stages
        self.f3 = dt * (4.0 * p3 - p2)

    def step(self, u: np.ndarray, nonlin, g) -> np.ndarray:
        """One step. nonlin maps a stage state and forcing to its term; g
        holds the forcing at the step's start, midpoint and end, or Nones."""
        e2u = self.E2 * u
        n0 = nonlin(u, g[0])
        a = e2u + self.Q * n0
        na = nonlin(a, g[1])
        b = e2u + self.Q * na
        nb = nonlin(b, g[1])
        c = self.E2 * a + self.Q * (2.0 * nb - n0)
        nc = nonlin(c, g[2])
        return self.E * u + self.f1 * n0 + self.f2 * (na + nb) + self.f3 * nc


def check_horizon(T: float) -> None:
    """The flows' horizon rule: ValueError unless 0 < T < inf (NaN fails it)."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")


def step_grid(T: float, dt: float) -> tuple[int, float]:
    """The n = max(1, round(T / dt)) steps of a horizon and their length T / n."""
    n = max(1, int(round(T / dt)))
    return n, T / n


# ---------------------------------------------------------------------------
# undamped / forced flow
# ---------------------------------------------------------------------------

# Lattice entries per block of forcing samples: a forced run asks for the
# forcing once per block of steps, in a block of this size however long.
_FORCING_BLOCK_ENTRIES = 32768


def evolve_nonlinear(
    u0: SpectralField,
    T: float,
    cfg: SolverConfig,
    forcing=None,
) -> EvolutionTrace:
    """Integrate i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u = h.

    forcing, if given, maps an array of times to the stack of h's lattice
    coefficients at those times; a run asks once per block of steps, for
    each stage time of the block once. Without forcing the flow conserves
    mass and energy up to the integrator error, which the ledger records.
    States are kept in the dealiasing ball whenever the nonlinear term is
    active.
    """
    check_horizon(T)
    spec = u0.spec
    n_steps, dt = step_grid(T, cfg.dt)

    mask = spec.dealias_mask
    use_nl = cfg.include_nonlinearity
    c = u0.coeffs.astype(complex)
    if use_nl:
        c = np.where(mask, c, 0.0)

    def nonlin(cc: np.ndarray, g):
        if not use_nl:  # the forcing itself, or 0.0 without one
            return 0.0 if g is None else g
        out = 1j * dealiased_nonlinear_term(spec, cc, cfg.k_nl)
        if g is not None:
            out += g
        return out

    def stage_forcing():
        """-i h at each step's start, midpoint and end. A block of steps asks
        once for its midpoints and ends, the first block for t = 0 too, and
        starts at the last block's end: each stage time is asked for once."""
        block = max(1, (_FORCING_BLOCK_ENTRIES // spec.n_modes - 1) // 2)
        ends = []
        for s0 in range(0, n_steps, block):
            t = np.arange(s0, min(s0 + block, n_steps) + 1) * dt
            g = -1j * forcing(np.concatenate([0.5 * (t[:-1] + t[1:]), t[min(s0, 1):]]))
            g = np.where(mask, g, 0.0) if use_nl else g
            ends = ends[-1:] + list(g[len(t) - 1:])
            for i in range(len(t) - 1):
                yield ends[i], g[i], ends[i + 1]

    tab = _Etdrk4Tableau(1j * spec.dispersion, dt)
    stages = itertools.repeat((None,) * 3) if forcing is None else stage_forcing()
    stepper = lambda cc: tab.step(cc, nonlin, next(stages))
    return _march(spec, c, dt, n_steps, cfg, stepper)


# ---------------------------------------------------------------------------
# damped flow
# ---------------------------------------------------------------------------

def damping_layout(profile: DampingProfile) -> np.ndarray:
    """The 2/3-rule box of side m = 2 floor(N/3) + 1 in D's blocks: the
    block_layout of the modes of spec.dealias_mask, m^(d-v) rows of m^v
    modes for a profile that varies along v axes. D's blocks hold m^(d+v)
    entries; ValueError above MAX_BLOCK_ENTRIES."""
    layout = block_layout(profile, np.flatnonzero(profile.spec.dealias_mask))
    entries = layout.size * layout.shape[1]
    if entries > MAX_BLOCK_ENTRIES:
        raise ValueError(
            f"the damping operator's blocks need {entries} entries ({16 * entries} bytes), "
            f"above the cap of {MAX_BLOCK_ENTRIES}; use a profile constant along more "
            "axes, or a smaller N"
        )
    return layout


class _DampingOperator:
    """D = a (1-Lap)^{-2} (a .) on the dealiasing box, block by block, and
    the solve of J w = (1 - i D) w = v.

    The box is grouped by damping_layout into m^(d-v) blocks of m^v
    modes: D maps no block into another. Field j, 1 on every box mode
    whose varying-axis index is j, gives column j of every block in one
    apply, so the blocks take m^v applies of D; J is then inverted once
    per block. A constant profile has v = 0: blocks of one mode, a
    diagonal D.

    An apply is two profile products on the compact profile, each one
    transform pass per axis the profile varies on and one back: 4 one-axis
    passes for the default strip at any d, against 4d for a ball.
    """

    def __init__(self, spec: ManifoldSpec, profile: DampingProfile):
        self.spec = spec
        self.a = profile.compact
        self.s2 = smoothing_multiplier(spec, 2)
        self.layout = damping_layout(profile)
        idx = self.layout.ravel()  # box modes, block by block
        size = self.layout.shape[1]
        fields = np.arange(len(idx)) % size == np.arange(size)[:, None]
        cols = kernel_rows(spec, self.apply, fields, idx, idx)
        d_blocks = cols.reshape(size, -1, size).transpose(1, 2, 0)
        self.j = np.eye(size) - 1j * d_blocks
        self.j_inv = np.linalg.inv(self.j)

    def apply(self, c: np.ndarray) -> np.ndarray:
        return sandwich(self.spec, self.a, self.s2, c)

    def times_j(self, u: np.ndarray) -> np.ndarray:
        """J u for u in the box."""
        return blockwise(self.j, self.layout, u)

    def solve_j(self, v: np.ndarray):
        """(w, D w) for J w = v, v in the box: w = J^{-1} v by blocks, and
        D w = i (v - w) from J w = v, with no apply of D."""
        w = blockwise(self.j_inv, self.layout, v)
        return w, 1j * (v - w)


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
    check_horizon(T)
    spec = u0.spec
    if profile.spec != spec:
        raise ValueError("damping profile lives on a different spec")
    n_steps, dt = step_grid(T, cfg.dt)

    mask = spec.dealias_mask
    damp = _DampingOperator(spec, profile)
    mult = spec.dispersion + 1.0  # |k|^4 + beta |k|^2 + 1

    def f_ball(cc: np.ndarray) -> np.ndarray:
        if not cfg.include_nonlinearity:
            return np.zeros_like(cc)
        return dealiased_nonlinear_term(spec, cc, cfg.k_nl)

    def nonlin(vv: np.ndarray, g) -> np.ndarray:
        w, dw = damp.solve_j(vv)
        return -mult * dw + 1j * f_ball(w)

    tab = _Etdrk4Tableau(1j * mult, dt)
    stepper = lambda vv: tab.step(vv, nonlin, (None,) * 3)

    c0 = np.where(mask, u0.coeffs.astype(complex), 0.0)
    v0 = damp.times_j(c0)  # v = J u

    def recover(vv: np.ndarray):
        # u_t = i w for the solve below, so the flux ||(1-Lap)^{-1}(a u_t)||^2
        # is D's quadratic form <u_t, D u_t> = <w, D w>
        u = damp.solve_j(vv)[0]
        w, dw = damp.solve_j(mult * u + f_ball(u))
        return u, float(np.real(np.vdot(w, dw)))

    return _march(spec, v0, dt, n_steps, cfg, stepper, recover)


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
    recover=None,
) -> EvolutionTrace:
    """Step n_steps times and record every cfg.record_stride steps.

    A damped run passes recover, which maps a marched state to the recorded
    field and its damping flux; its ledger adds the mass term. The ledger
    is computed after the loop over blocks of stacked records; only the
    blow-up guard (BLOWUP_FACTOR) runs per record.
    """
    damped = recover is not None
    times = [0.0]
    u0c, flux0 = recover(state0) if damped else (state0, 0.0)
    states = [u0c]
    fluxes = [flux0]
    # zero initial data (forced runs) falls back to an absolute unit scale
    guard = BLOWUP_FACTOR * (hs_norm(spec, u0c, 2.0) or 1.0)

    state = state0
    for step in range(1, n_steps + 1):
        state = stepper(state)
        t = step * dt
        if step % cfg.record_stride == 0 or step == n_steps:
            uc, fl = recover(state) if damped else (state, 0.0)
            times.append(t)
            states.append(uc)
            fluxes.append(fl)
            if not hs_norm(spec, uc, 2.0) <= guard:  # NaN or inf fails the test too
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
            energy(spec, c, cfg.k_nl, damped, cfg.include_nonlinearity)
            for c in blocks
        ]),
        fluxes=np.asarray(fluxes),
        damped=damped,
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
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-28:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(gamma=-0.5 * float(slope), r_squared=r2)


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
