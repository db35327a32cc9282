"""Time integration for the fourth-order Schrodinger flows on the torus.

Three flows share one exponential integrator:

  free / forced / nonlinear   i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u = h
  damped feedback             i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u + u
                                  = - a(x) (1 - Lap)^{-2} (a(x) u_t)

with the defocusing sign throughout. The generator is treated exactly in
Fourier (fourth-order exponential time differencing, ETDRK4), which is the
only practical choice given the |k|^4 stiffness; `_phi` gives its phi_1..3
(Kassam & Trefethen, SISC 26 (2005)) and `Etdrk4Tableau` its weights, which
hum also reads to sum the controlled linear march in closed form. Every
horizon, the time kernel's and the band Gramian's included, is cut into the
steps of `step_grid`.

The damped equation is integrated through the bounded reformulation
v = J u, J = 1 - i D, D = a (1-Lap)^{-2} a: the stiff part of the
v-equation is the diagonal multiplier i(|k|^4 + beta |k|^2 + 1) and the
remainder is a zero-order operator evaluated through a solve of J w = v.
Along an axis where the profile a is constant, D is diagonal in that axis's
wavenumber, so on the dealiasing box J splits into one block per
wavenumber of those axes (spectral.KernelBlocks on box arrays). A run
tabulates J's blocks once from applies of J f = f - i D f, inverts them
once, and each solve is one batched product with the inverses; D w = i (v
- w) then needs no apply of D.

The semidiscrete system keeps the state in the 2/3-rule dealiasing box and
evaluates |u|^{2k} u pointwise on the grid. A march carries the box array
itself (spec.box: m^d coefficients, m = 2 floor(N/3) + 1, against N^d on
the lattice), with its tableau, its guard weights and its term kernel
built on the box once, before the loop. Every march steps in _steps; a
trace writes each record into its lattice stack as it comes, and HUM's
correction streams its first stages' terms (forced_term_blocks). With
that convention mass, energy and the damping-flux identity

    E(t) - E(0) = - int_0^t || (1-Lap)^{-1} ( a u_t ) ||_{L^2}^2

are exact properties of the ODE system, so the recorded ledgers audit the
time integrator itself. For u_t in the box the flux is D's quadratic form
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
    KernelBlocks,
    _grid_modulus,
    dealiased_term_kernel,
    load_field,
    sandwich,
    save_field,
    sobolev_weights,
)


# A run stops with BlowUpError once a recorded H^2 norm exceeds this
# multiple of the initial one (of 1 for zero initial data).
BLOWUP_FACTOR = 1e6


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


class Etdrk4Tableau:
    """Precomputed exponential coefficients for a diagonal generator, the one
    owner of the scheme's weights: a step is E u + f1 n0 + f2 (na + nb) +
    f3 nc, f2 weighing both middle stages."""

    def __init__(self, lin: np.ndarray, dt: float):
        z = dt * lin
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        self.Q = (dt / 2.0) * _phi(z / 2.0)[0]
        p1, p2, p3 = _phi(z)
        self.f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * (dt * (p2 - 2.0 * p3))  # weighs both middle stages
        self.f3 = dt * (4.0 * p3 - p2)

    def stepper(self, stage):
        """The step (u, g) -> u', where g holds stage's second argument (the
        forcing, say) at the step's start, midpoint and end, and stage maps
        a stage state and that argument to its term over i: the scheme's
        nonlinear part is i stage(...). The factor i rides on the weights Q,
        f1, f2 and f3, multiplied here once, so that no stage pays it."""
        E, E2 = self.E, self.E2
        Q, f1, f2, f3 = (1j * w for w in (self.Q, self.f1, self.f2, self.f3))

        def step(u: np.ndarray, g) -> np.ndarray:
            e2u = E2 * u
            n0 = stage(u, g[0])
            a = e2u + Q * n0
            na = stage(a, g[1])
            b = e2u + Q * na
            nb = stage(b, g[1])
            c = E2 * a + Q * (2.0 * nb - n0)
            nc = stage(c, g[2])
            return E * u + f1 * n0 + f2 * (na + nb) + f3 * nc

        return step


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

# Box entries per block of forcing samples: a forced run asks for the
# forcing once per block of steps, in a block of this size however long.
_FORCING_BLOCK_ENTRIES = 32768


def _forced_flow(u0: SpectralField, T: float, cfg: SolverConfig, forcing, blocks):
    """The box march of evolve_nonlinear and forced_term_blocks: (c0, dt,
    n_steps, term, advance), advance mapping a state to the next. blocks, if
    a list, gets each block of steps' times t_0 ... t_B as the march asks
    for its forcing, and B + 1 rows: the first stage of step i writes
    |u|^{2k} u at t_i into row i before it subtracts h; row B stays open."""
    check_horizon(T)
    spec = u0.spec
    n_steps, dt = step_grid(T, cfg.dt)
    box = spec.box
    c0 = u0.coeffs[box].astype(complex)
    term = dealiased_term_kernel(spec, cfg.k_nl)

    def stage(cc: np.ndarray, g):
        """i (|u|^{2k} u - h) over i, for g = (h, row); a row keeps |u|^{2k} u."""
        h, row = g
        out = term(cc)
        if row is not None:
            row[...] = out
        if h is not None:
            out -= h
        return out

    def stage_forcing():
        """(h, row) at each step's start, midpoint and end, h on the box: a
        block of steps asks once for its stage times not asked for before."""
        block = max(1, (_FORCING_BLOCK_ENTRIES // c0.size - 1) // 2)
        ends = []
        for s0 in range(0, n_steps, block):
            t = np.arange(s0, min(s0 + block, n_steps) + 1) * dt
            h = forcing(np.concatenate([0.5 * (t[:-1] + t[1:]), t[min(s0, 1):]]))[box]
            ends = ends[-1:] + list(h[len(t) - 1:])
            rows = [None] * len(t)
            if blocks is not None:
                rows = np.empty((len(t),) + c0.shape, dtype=complex)
                blocks.append((t, rows))
            for i in range(len(t) - 1):
                yield (ends[i], rows[i]), (h[i], None), (ends[i + 1], None)

    step = Etdrk4Tableau(1j * spec.dispersion[box], dt).stepper(stage)
    stages = itertools.repeat(((None, None),) * 3) if forcing is None else stage_forcing()
    return c0, dt, n_steps, term, lambda cc: step(cc, next(stages))


def evolve_nonlinear(u0: SpectralField, T: float, cfg: SolverConfig,
                     forcing=None) -> EvolutionTrace:
    """Integrate i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u = h.

    forcing, if given, maps an array of times to the stack of h's lattice
    coefficients at those times; a run asks once per block of steps, for
    each stage time of the block once, and keeps h on the dealiasing box.
    Without forcing the flow conserves mass and energy up to the
    integrator error, which the ledger records. The march carries the box
    array of the state (spec.box); its records are lattice arrays.
    """
    check_trace_size(u0.spec, T, cfg, None)
    c0, dt, n_steps, _, advance = _forced_flow(u0, T, cfg, forcing, None)
    return _march(u0.spec, c0, dt, n_steps, cfg, advance)


def forced_term_blocks(u0: SpectralField, T: float, cfg: SolverConfig, forcing):
    """|u|^{2k} u at every step time of evolve_nonlinear's march under a
    forcing, by the blocks of steps it asks the forcing for: yields (times,
    terms) on the box per block, each from the last time of the block
    before, the terms of the march's first stages and the final state's.
    The blow-up guard runs at every step; nothing is kept but one block."""
    blocks = []
    c0, dt, n_steps, term, advance = _forced_flow(u0, T, cfg, forcing, blocks)
    for _, state, _ in _steps(u0.spec, c0, dt, n_steps, 1, advance, None):
        if len(blocks) == 2:  # the next block's first stage sampled this one's end
            times, terms = blocks.pop(0)
            terms[-1] = blocks[0][1][0]
            yield times, terms
    times, terms = blocks.pop()
    terms[-1] = term(state)
    yield times, terms


# ---------------------------------------------------------------------------
# damped flow
# ---------------------------------------------------------------------------

def evolve_damped(
    u0: SpectralField,
    profile: DampingProfile,
    T: float,
    cfg: SolverConfig,
) -> EvolutionTrace:
    """Integrate the damped feedback system.

    i u_t + (Lap^2 - beta Lap) u + |u|^{2k} u + u = - a (1-Lap)^{-2} (a u_t)

    The march carries the box array of v = J u; its records are lattice
    arrays. The recorded flux column holds ||(1-Lap)^{-1}(a u_t)||^2 per
    time, so audit_dissipation can check the energy identity by quadrature.
    """
    spec = u0.spec
    if profile.spec != spec:
        raise ValueError("damping profile lives on a different spec")
    check_trace_size(spec, T, cfg, profile)
    n_steps, dt = step_grid(T, cfg.dt)

    box = spec.box
    j = KernelBlocks(profile, box=True,
                     kernel=lambda f: f - 1j * sandwich(spec, profile.compact, f))
    j_inv = np.linalg.inv(j.stack)
    mult = spec.dispersion[box] + 1.0  # |k|^4 + beta |k|^2 + 1
    v0 = j.apply(j.stack, j.gather(u0.coeffs[box].astype(complex)))  # v = J u
    term = dealiased_term_kernel(spec, cfg.k_nl)

    def solve(v: np.ndarray) -> np.ndarray:
        """w = J^{-1} v for a box array v."""
        return j.apply(j_inv, j.gather(v))

    def stage(vv: np.ndarray, g) -> np.ndarray:
        # the v-equation's term -mult D w + i f(w) over i, with
        # D w = i (v - w): f(w) + mult (w - v)
        w = solve(vv)
        out = term(w)
        out += mult * (w - vv)
        return out

    step = Etdrk4Tableau(1j * mult, dt).stepper(stage)

    def recover(vv: np.ndarray):
        # u_t = i w for the solve of J w = f below, so the flux ||(1-Lap)^{-1}
        # (a u_t)||^2 is D's quadratic form <w, D w>, D w = i (f - w)
        u = solve(vv)
        f = mult * u + term(u)
        w = solve(f)
        return u, float(np.real(np.vdot(w, 1j * (f - w))))

    return _march(spec, v0, dt, n_steps, cfg, lambda vv: step(vv, (None,) * 3), recover)


# ---------------------------------------------------------------------------
# shared marching loop
# ---------------------------------------------------------------------------

# Lattice entries per block of records in the ledger: small fields share one
# grid transform, and the ledger's grid temporaries stay the size of one
# 64 x 64 field however many records a run keeps.
_LEDGER_BLOCK_ENTRIES = 4096

# bytes a trace may hold at its peak, in _march or in save_trace: the
# (n_rec,) + lattice stack, 16 n_rec N^d B, plus the larger of the march's
# working set (_MARCH_ARRAYS) and the save's extras, the ledger's block
# temporaries, 16 (4 max(N^d, _LEDGER_BLOCK_ENTRIES)) B, and _RECORD_BYTES
# per record; plus a damped march's J and J^{-1} blocks. That is 1.00-1.05
# of the tracemalloc peak of a march of 7-19 MB, damped or not (d2N32,
# d2N64, d2N96, d3N16). The cap admits the default stabilize horizon,
# T = 20 at stride 1, up to d2N64 (1.32 GB).
MAX_TRACE_BYTES = 2_000_000_000

# box and lattice arrays a march holds beside its records and J's blocks:
# the ETDRK4 tableau and stage temporaries, the term kernel's buffers and
# grid temporaries. By tracemalloc (d1N32-d3N32, damped and not, both term
# routes) that is the peak within 1% at d2N64-d2N128, and above it below.
_MARCH_ARRAYS = (13, 9)

# bytes per record beyond its coefficients at the peak of save_trace, with
# the trace held: its four ledger columns, the ledger's rows and text,
# 440-500 B (tracemalloc, d1N8, 20,001 records, undamped and damped).
_RECORD_BYTES = 512


def _record_count(n_steps: int, stride: int) -> int:
    """Records of a march: t = 0, every stride steps and the last."""
    return -(-n_steps // stride) + 1


def check_trace_size(spec: ManifoldSpec, T: float, cfg: SolverConfig,
                     profile: DampingProfile | None) -> None:
    """ValueError unless T is a horizon and the trace of a flow over T under
    cfg holds at most MAX_TRACE_BYTES at its peak; a damped flow passes its
    profile, an undamped one None. The blocks of J are counted from their
    shapes, and KernelBlocks refuses them above MAX_BLOCK_ENTRIES."""
    check_horizon(T)
    n_steps, _ = step_grid(T, cfg.dt)
    n_rec = _record_count(n_steps, cfg.record_stride)
    box = int(np.count_nonzero(spec.dealias_mask))
    march = 16 * (_MARCH_ARRAYS[0] * box + _MARCH_ARRAYS[1] * spec.n_modes)
    save = 64 * max(spec.n_modes, _LEDGER_BLOCK_ENTRIES) + _RECORD_BYTES * n_rec
    need = 16 * n_rec * spec.n_modes + max(march, save)
    if profile is not None:
        need += 32 * KernelBlocks(profile, box=True).entries  # J and its inverse
    if need > MAX_TRACE_BYTES:
        raise ValueError(
            f"a trace of {n_rec} records at d = {spec.d}, N = {spec.N} needs about {need} "
            f"bytes, more than the {MAX_TRACE_BYTES} a trace may hold; raise record_stride "
            f"(now {cfg.record_stride}) or shorten T"
        )


def _steps(spec: ManifoldSpec, state0: np.ndarray, dt: float, n_steps: int, stride: int,
           stepper, recover):
    """The one stepping loop: step a box array n_steps times, and yield
    (t, field, flux) at t = 0, every stride steps and after the last. A
    damped run passes recover, which maps a state to its field and damping
    flux; an undamped one None, its field the state and its flux 0. The
    blow-up guard (BLOWUP_FACTOR), the H^2 norm by the box's weights, runs
    on every field yielded."""
    w2 = sobolev_weights(spec, 2.0)[spec.box]

    def h2_squared(c: np.ndarray) -> float:
        return float(np.vdot(c, w2 * c).real)

    u0c, flux0 = (state0, 0.0) if recover is None else recover(state0)
    # zero initial data (forced runs) falls back to an absolute unit scale
    guard = BLOWUP_FACTOR**2 * (h2_squared(u0c) or 1.0)
    yield 0.0, u0c, flux0
    state = state0
    for step in range(1, n_steps + 1):
        state = stepper(state)
        if step % stride == 0 or step == n_steps:
            t = step * dt
            uc, fl = (state, 0.0) if recover is None else recover(state)
            if not h2_squared(uc) <= guard:  # NaN or inf fails the test too
                raise BlowUpError(f"H^2 norm exceeded guard at t = {t:.6g}")
            yield t, uc, fl


def _march(spec: ManifoldSpec, state0: np.ndarray, dt: float, n_steps: int, cfg: SolverConfig,
           stepper, recover=None) -> EvolutionTrace:
    """The trace of _steps' fields every cfg.record_stride steps; a damped
    run passes recover, and its ledger adds the mass term. Each field is
    written into its lattice record as it is yielded, and the ledger is
    computed over blocks of the records."""
    damped = recover is not None
    n_rec = _record_count(n_steps, cfg.record_stride)
    states = np.zeros((n_rec,) + spec.shape, dtype=complex)
    records = states[spec.box]  # a view: the box of every lattice record
    times, fluxes = np.empty(n_rec), np.empty(n_rec)
    for i, (t, field, flux) in enumerate(_steps(spec, state0, dt, n_steps, cfg.record_stride,
                                                stepper, recover)):
        times[i], records[i], fluxes[i] = t, field, flux
    block = max(1, _LEDGER_BLOCK_ENTRIES // spec.n_modes)
    blocks = [states[i:i + block] for i in range(0, len(states), block)]
    masses = np.concatenate([mass(spec, c) for c in blocks])
    energies = np.concatenate([energy(spec, c, cfg.k_nl, damped) for c in blocks])
    return EvolutionTrace(spec, times, states, masses, energies, fluxes, damped)


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


def _write_csv(path, header, rows):
    """Write header and rows as a CSV artifact in one pass: cells are the
    str of their values, joined by commas, each line ended by CRLF, with no
    quoting. That is csv.writer's text for cells that need no quoting, and
    str keeps numpy scalars plain. ValueError, before the file is opened,
    if the text holds a double quote, a CR or LF that ends no line, or
    other than len(header) - 1 commas a line: a cell that needed quoting."""
    lines = [",".join(map(str, row)) for row in itertools.chain([header], rows)]
    text = "\r\n".join(lines) + "\r\n"
    n = len(lines)
    if ('"' in text or text.count("\r") != n or text.count("\n") != n
            or text.count(",") != (len(header) - 1) * n):
        raise ValueError(f"{path}: a cell holds a comma, a double quote, CR or LF, "
                         "or a row is not as long as the header")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def save_trace(trace: EvolutionTrace, outdir, snapshot_stride: int = 1) -> None:
    """Write ledger.csv plus field snapshots into a directory."""
    os.makedirs(outdir, exist_ok=True)
    columns = (trace.times, trace.masses, trace.energies, trace.fluxes)
    _write_csv(os.path.join(outdir, "ledger.csv"), LEDGER_HEADER,
               np.column_stack(columns).tolist())
    for i in range(0, trace.n_records, snapshot_stride):
        save_field(trace.state(i), os.path.join(outdir, f"state_{i:06d}.b4f"))


def load_ledger(path) -> dict[str, np.ndarray]:
    """The columns of a ledger.csv, one array per LEDGER_HEADER name; a
    header with no rows gives zero-length columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty ledger: no header")
    if rows[0] != LEDGER_HEADER:
        raise ValueError("unrecognized ledger header")
    values = [[float(x) for x in row] for row in rows[1:]]
    cols = np.array(values, dtype=float).reshape(len(values), len(LEDGER_HEADER))
    return {name: cols[:, i] for i, name in enumerate(LEDGER_HEADER)}


def load_trace_states(outdir) -> list[SpectralField]:
    """The snapshots state_{i:06d}.b4f of a trace directory in record order,
    sorted by the index i: by name, record 1,000,000 would sort before
    record 200,000."""
    names = sorted(
        (f for f in os.listdir(outdir) if f.startswith("state_") and f.endswith(".b4f")),
        key=lambda f: int(f[len("state_"):-len(".b4f")]),
    )
    return [load_field(os.path.join(outdir, f)) for f in names]
