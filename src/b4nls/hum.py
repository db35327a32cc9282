"""Exact controllability through the duality (HUM) operator.

For the linear flow i u_t + (Lap^2 - beta Lap) u = h with controls of the
form h(t) = A e^{itL} v0, A = phi (1-Lap)^{-2} (phi .), steering u0 to rest
at time T reduces to the Hermitian positive system

    Lambda v0 = -i u0,
    Lambda    = int_0^T e^{-itL} A e^{itL} dt.

Steering u0 to a state u1 instead is steering the transported difference
u0 - e^{-iTL} u1 to rest: the same control drives u0 to u1 by linearity, so
a caller passes that difference as the datum.

On the truncated lattice Lambda has a closed form

    Lambda[l, k] = A[l, k] * E(X_k - X_l),   E(w) = int_0^T e^{iwt} dt,

a Hadamard product of positive matrices, so Lambda stays positive
semidefinite exactly. The operator uses the exact time integral and the
observability Gramians the trapezoid sum on a uniform grid; both are one
closed form, E(w) = e^{iwT/2} sin(wT/2) / h(w) with h = w/2 or
h = tan(w dt/2)/dt, which `time_average_kernel` computes with its result as
the only complex array, and the zero matrix at T = 0. Its third use is the
ETDRK4 step sum: the linear certificate's march of that scheme is summed in
closed form, from `Etdrk4Tableau`'s weights and the trapezoid sum's
geometric series, with no step taken. A time integral over samples (the
backward initial value, the nonlinear correction, the matrix-free Gramian)
is the one sampled duality integral `backward_forced_initial`.

The dual datum lives on a support S: the modes of the control band, or
every mode without one. A and Lambda are diagonal in the wavenumbers of
the axes along which phi is constant, so the operator is one
`spectral.KernelBlocks` of the control weight (`sandwich`) on S: S in
groups, each group's rows the modes A maps it into, and A's blocks on
them. Lambda's blocks are E o A on the same groups, and every gather onto
S and scatter back goes through that type. The dense multiplication
matrix of phi is the test oracle of the grid products; no run path builds
it.

The system is solved directly in L^2: one batched eigh factors Lambda[S, S]
by its blocks once per operator, and a solve runs on the groups: the right
side gathered onto S once, one batched product, the datum scattered once.
The certificate reports the smallest eigenvalue, the discrete observability
constant (Lions, SIAM Rev. 30 (1988)), and the condition number, where the
H^{-2} -> H^2 character of the continuum operator shows unpreconditioned.

The nonlinear local control iterates the contraction

    Phi0 <- -S^{-1} K Phi0 + S^{-1} u0

where S Phi0 = i Lambda Phi0 is the linear solution operator and K Phi0 is
the initial value of the backward correction driven by the controlled
nonlinear trajectory. Backward problems are realized as forward solves of
the conjugated, time-reversed equation; K streams its march's terms into
the duality integral by blocks of steps, holding no trajectory. The
basin of the contraction is measured on each run, not assumed from a
norm threshold: the iteration stops with ContractionFailure when an
update ratio reaches 1, with ControlStagnationError at the iteration
cap, and with BlowUpError when a trajectory leaves the H^2 guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Nothing here calls cg_hermitian; the name stays because the benchmark's
# traced run wraps b4nls.hum.cg_hermitian (bench/layers.py).
from .linalg import cg_hermitian  # noqa: F401
from .dynamics import (Etdrk4Tableau, FreeWave, SolverConfig, check_horizon,
                       evolve_nonlinear, forced_term_blocks, step_grid)
from .spectral import (
    DampingProfile,
    KernelBlocks,
    ManifoldSpec,
    SpectralField,
    free_phase,
    hs_norm,
    sandwich,
    sobolev_norm,
    zero_field,
)


# the nonlinear control runs at most FIXEDPOINT_MAX_ITER fixed-point updates
FIXEDPOINT_MAX_ITER = 12


class ControlStagnationError(RuntimeError):
    """A singular Lambda or no fixed point: practical loss of observability."""


class ContractionFailure(RuntimeError):
    """The nonlinear fixed-point map stopped contracting."""

    def __init__(self, ratio: float):
        super().__init__(
            f"contraction ratio {ratio:.3f} >= 1; datum too large for local control"
        )
        self.ratio = ratio


@dataclass(frozen=True)
class ControlProblem:
    """Steering problem data and tolerances.

    control_band (>= 0) restricts the dual datum (hence the synthesized
    control's oscillation rates) to modes with max_i |k_i| <= control_band.
    This keeps the certifying ETDRK4 scheme able to resolve the
    control's phases at a finite step size; the out-of-band leak of the
    control operator enters the certified residual honestly. Construction
    checks every input rule of the problem, so a problem that exists can be
    solved: the datum u0 must lie in the band, and a problem whose blocks of
    A would exceed MAX_BLOCK_ENTRIES (|S| N^v for a profile that varies
    along v axes) is refused by KernelBlocks before anything is assembled.

    A HUM solve whose true relative residual ||b - Lambda[S, S] x|| / ||b||
    is not at most 100 cg_tol raises ControlStagnationError.

    The problem steers u0 to rest: Lambda v0 = -i u0. To steer the linear
    flow to u1, pass u0 - e^{-iTL} u1 as the datum; relative_residual is
    then relative to that datum.
    """

    u0: SpectralField
    T: float
    phi: DampingProfile
    k_nl: int = 1
    cg_tol: float = 1e-9
    fixedpoint_tol: float = 1e-8
    control_band: int | None = None
    verify_dt: float = 1e-4
    solve_dt: float = 1e-3

    @property
    def spec(self) -> ManifoldSpec:
        return self.u0.spec

    def __post_init__(self):
        check_horizon(self.T)
        if self.phi.spec != self.u0.spec:
            raise ValueError("problem pieces live on different specs")
        band = self.control_band
        if band is not None and band < 0:
            raise ValueError(f"control band must be >= 0, got control_band = {band}")
        if not (0.0 < self.verify_dt < math.inf and 0.0 < self.solve_dt < math.inf):
            raise ValueError("verify_dt and solve_dt must be positive and finite")
        if self.k_nl < 1:
            raise ValueError("k_nl must be >= 1")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if not self.fixedpoint_tol > 0.0:
            raise ValueError("fixedpoint_tol must be positive")
        support = KernelBlocks(self.phi, band)  # the cap, with nothing built
        u0 = self.u0.coeffs
        outside = u0 - support.scatter(support.gather(u0))
        if np.linalg.norm(outside) > 1e-12 * max(np.linalg.norm(u0), 1.0):
            raise ValueError(
                f"the datum has content outside the control band (control_band = {band})"
            )


@dataclass(frozen=True)
class ControlCertificate:
    """Outcome of a control synthesis.

    terminal_residual is ||u(T)||_{H^2} of the controlled trajectory: for
    the linear problem the flow integrates in closed form (exponential
    Duhamel formula), so the value is exact for the lattice system; for the
    nonlinear problem it comes from the certifying ETDRK4 solve.
    integrator_residual (linear only) reports the same miss for the
    terminal state of the ETDRK4 scheme at step verify_dt, summed in closed
    form over its steps; it carries that scheme's own quadrature error on
    the control's oscillations and is therefore pinned separately.

    lambda_min and condition are Lambda[S, S]'s smallest eigenvalue and its
    ratio to the largest; cg_residuals holds each HUM solve's true residual.

    The late fixed-point updates in certificate.csv (about 1e-11 between
    iterates of norm 0.2) resolve only to about 1e-11 relative, so the file
    repeats byte for byte only when the forcing is bit for bit the same.
    """

    kind: str  # "linear" | "nonlinear"
    dual_datum: np.ndarray  # v0 (linear) or Phi0 (nonlinear), lattice coeffs
    terminal_residual: float
    relative_residual: float
    lambda_min: float
    condition: float
    cg_residuals: tuple[float, ...]
    integrator_residual: float | None = None
    fixedpoint_diffs: tuple[float, ...] = ()
    contraction_ratios: tuple[float, ...] = ()
    control_times: np.ndarray | None = None
    control_samples: np.ndarray | None = None  # (n_t,) + lattice


# ---------------------------------------------------------------------------
# the duality operator
# ---------------------------------------------------------------------------

def multiplication_matrix(spec: ManifoldSpec, values: np.ndarray) -> np.ndarray:
    """Dense matrix of grid multiplication by a real profile, e_k basis:
    the test oracle of the grid products and of `kernel_blocks`.

    Entries are the circularly wrapped Fourier coefficients of the profile,
    identical to the aliased grid product, so the dense and matrix-free
    paths agree to roundoff.
    """
    vhat = np.fft.fftn(values) / spec.n_modes  # coefficient of e^{i m x}
    idx = np.indices(spec.shape).reshape(spec.d, -1)
    return vhat[tuple((idx[:, :, None] - idx[:, None, :]) % spec.N)]


def time_average_kernel(
    X: np.ndarray,
    T: float,
    quadrature: float | None,
    Xc: np.ndarray | None = None,
) -> np.ndarray:
    """E[l,k] = int_0^T exp(i t w) dt with w = Xc_k - X_l, by one rule.

    Rows run over X's last axis and columns over Xc's (X itself when Xc is
    None); leading axes, such as a block stack's, broadcast.
    quadrature None gives the exact integral; a float dt gives the
    composite trapezoid sum on the steps of `step_grid(T, dt)`; at T = 0,
    which has no step, both are the zero matrix. Both are one closed form,

        E(w) = e^{iwT/2} sin(wT/2) / h(w),   E = T where h = 0,

    with h = w/2 for the exact rule and h = tan(w dt/2)/dt for the
    trapezoid sum, whose geometric series is dt e^{inθ/2} sin(nθ/2)
    cot(θ/2) at θ = w dt. The result is the only complex array of its size
    that the call holds. Its uses are HUM's Lambda (exact), the band
    Gramians (trapezoid) and the ETDRK4 step sum of the linear certificate,
    sum_{j<n} e^{ijθ} = E / dt - (e^{iwT} - 1)/2.
    """
    if T == 0.0:
        quadrature = None
    Xc = X if Xc is None else Xc
    h = Xc[..., None, :] - X[..., :, None]  # w, until it becomes h
    E = np.empty(h.shape, dtype=complex)
    if quadrature is not None:
        # the trapezoid sum sees w only modulo 2pi/dt, and so does the closed
        # form: reduced, wT/2 and w dt/2 keep their digits near aliasing
        dt = step_grid(T, quadrature)[1]
        period = 2.0 * math.pi / dt
        np.round(np.divide(h, period, out=E.real), out=E.real)
        h -= np.multiply(E.real, period, out=E.real)
    np.multiply(h, 0.5 * T, out=E.imag)  # wT/2
    if quadrature is None:
        h *= 0.5
    else:
        h *= 0.5 * dt
        np.tan(h, out=h)
        h /= dt
    np.cos(E.imag, out=E.real)
    np.sin(E.imag, out=E.imag)
    E *= np.divide(E.imag, h, out=np.full_like(h, T), where=h != 0.0)
    return E


class HumOperator:
    """Lambda for one (phi, T) pair, by the blocks of the control weight.

    blocks is A's KernelBlocks on S; A, its stack, and matrix hold A's and
    Lambda's blocks, shape (groups, N^v, m^v), and every other entry of
    either is exactly 0.0. block, blocks.own(matrix), stacks Lambda[S, S]'s
    blocks. Vectors on S are given by groups, as blocks.gather gives them.
    """

    def __init__(
        self,
        spec: ManifoldSpec,
        phi: DampingProfile,
        T: float,
        band: int | None = None,
    ):
        self.spec, self.profile, self.band = spec, phi, band
        self.blocks = KernelBlocks(phi, band, kernel=lambda f: sandwich(spec, phi.compact, f))
        self.A = self.blocks.stack  # phi (1-Lap)^{-2} phi
        X = spec.dispersion
        self.matrix = time_average_kernel(self.blocks.gather(X, rows=True), T, None,
                                          self.blocks.gather(X))
        self.matrix *= self.A
        self.block = self.blocks.own(self.matrix)

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, inv): the blocks' eigenvalues by one batched eigh on the first
        solve, and their inverses V diag(1/w) V^H, a zero eigenvalue's
        component left out so that no division warns."""
        w, V = np.linalg.eigh(self.block)
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w != 0.0)
        return w, (V * inv_w[:, None, :]) @ np.swapaxes(V, 1, 2).conj()

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Lambda c for lattice coefficients c supported on S."""
        return self.blocks.apply(self.matrix, self.blocks.gather(coeffs))

    def control_weight(self, w: np.ndarray) -> np.ndarray:
        """A w = phi (1-Lap)^{-2} (phi w) for a stack of w given on S by
        groups, (..., groups, m^v), as a stack of lattice coeffs."""
        return self.blocks.apply(self.A, w)


def control_forcing(op: HumOperator, v0: np.ndarray) -> FreeWave:
    """The free wave A e^{itL} v0 on the dealiasing box: L's dispersion and
    v0 on S by groups, and as its weight A's rows in the box, applied by the
    box's layout, so that no lattice array is formed. Groups whose rows all
    leave the box force nothing the march keeps, and are left out."""
    rows = op.blocks.gather(op.spec.dealias_mask, rows=True)
    keep, layout = rows.any(axis=-1), KernelBlocks(op.profile, op.band, box=True)
    box_rows = op.A[keep][:, rows[keep][0]]
    return FreeWave(op.blocks.gather(op.spec.dispersion)[keep], op.blocks.gather(v0)[keep],
                    lambda w: layout.apply(box_rows, w))


def backward_forced_initial(
    phases: np.ndarray, times: np.ndarray, forcing_samples: np.ndarray
) -> np.ndarray:
    """Initial value of the backward problem i u_t + L u = h, u(T) = 0.

    u(0) = i int_0^T e^{-isL} h(s) ds, by trapezoid over the given samples,
    shaped (len(times),) + X.shape for L's dispersion X on the modes they
    hold (spec.dispersion for lattice arrays, its box for box arrays), with
    phases = e^{-i times X}, which a caller that integrates by blocks forms
    from fixed factors.
    """
    return 1j * np.trapezoid(phases * forcing_samples, np.asarray(times), axis=0)


# ---------------------------------------------------------------------------
# linear control
# ---------------------------------------------------------------------------

def _solve_hum_system(
    prob: ControlProblem, op: HumOperator, rhs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Lambda[S, S] x = b by the block inverses of op.factors, on S's
    groups: b = rhs on S (the Galerkin projection onto S), gathered once,
    x = inv @ b one product per group, and x scattered once into lattice
    coefficients. The gate reads the true residual ||b - Lambda[S, S] x|| /
    ||b||, so a singular Lambda fails it."""
    w, inv = op.factors
    b = op.blocks.gather(rhs)[..., None]
    x = inv @ b
    bnorm = float(np.linalg.norm(b))
    relres = float(np.linalg.norm(b - op.block @ x))
    relres = relres / bnorm if bnorm > 0.0 else 0.0
    if not relres <= 100.0 * prob.cg_tol:
        raise ControlStagnationError(
            f"the HUM system is solved only to relative residual {relres:.3e} "
            f"(lambda_min = {w.min():.3e}); the control region may not be observable "
            "(GCC violated?)"
        )
    return op.blocks.scatter(x[..., 0]), relres


def _verify_integrator(prob: ControlProblem, op: HumOperator, phi0: np.ndarray) -> float:
    """Terminal miss measured by a nonlinear ETDRK4 run driven by the control."""
    cfg = SolverConfig(dt=prob.verify_dt, k_nl=prob.k_nl,
                       record_stride=10**9)  # only endpoints matter here
    trace = evolve_nonlinear(prob.u0, prob.T, cfg, forcing=control_forcing(op, phi0))
    return hs_norm(prob.spec, trace.states[-1], 2.0)


def _verify_linear_march(prob: ControlProblem, op: HumOperator, v0: np.ndarray) -> float:
    """Terminal miss of the ETDRK4 march of the controlled linear system on
    the steps of step_grid(T, verify_dt), summed in closed form.

    With no nonlinearity every stage returns the forcing g(t) = -i A e^{itL} v0,
    so a step of Etdrk4Tableau is u <- E u + f1 g(t) + 2 f2 g(t + dt/2) +
    f3 g(t + dt), and n steps give u_n = E^n u0 - i (A o K) v0 on the blocks:

        K[l, k] = E_l^{n-1} (f1_l + 2 f2_l e^{iX_k dt/2} + f3_l e^{iX_k dt})
                  sum_{j<n} e^{ij dt w},   w = X_k - X_l.

    The geometric sum is the trapezoid time kernel less its end half-terms,
    time_average_kernel / dt - (e^{iwT} - 1)/2, whose reduction keeps the
    digits where X dt passes pi.
    """
    T, dt = prob.T, step_grid(prob.T, prob.verify_dt)[1]
    X = op.blocks.gather(prob.spec.dispersion, rows=True)
    Xk = op.blocks.gather(prob.spec.dispersion)[:, None, :]  # the columns
    tab = Etdrk4Tableau(1j * X, dt)
    K = time_average_kernel(X, T, prob.verify_dt, Xk[:, 0])
    K /= dt
    K -= 0.5 * (free_phase(T, Xk) * free_phase(-T, X)[..., None] - 1.0)
    K *= free_phase(T - dt, X)[..., None] * (
        tab.f1[..., None] + 2.0 * tab.f2[..., None] * free_phase(0.5 * dt, Xk)
        + tab.f3[..., None] * free_phase(dt, Xk)
    )
    K *= op.A
    uT = free_phase(T, prob.spec.dispersion) * prob.u0.coeffs
    return hs_norm(prob.spec, uT - 1j * op.blocks.apply(K, op.blocks.gather(v0)), 2.0)


def _verify_closed_form(prob: ControlProblem, op: HumOperator, v0: np.ndarray) -> float:
    """Exact terminal state of the controlled linear lattice system,
    u(T) = e^{iTL} (u0 - i Lambda v0), assembled fresh from the operator."""
    uT = free_phase(prob.T, prob.spec.dispersion) * (prob.u0.coeffs - 1j * op.apply(v0))
    return hs_norm(prob.spec, uT, 2.0)


def _certificate(prob: ControlProblem, op: HumOperator, kind: str, dual: np.ndarray,
                 residual: float, **fields) -> ControlCertificate:
    """The certificate of a dual datum with its terminal miss, relative to
    ||u0||_{H^2}, and its control sampled at 101 times."""
    ts = np.linspace(0.0, prob.T, 101)
    X, v = op.blocks.gather(prob.spec.dispersion), op.blocks.gather(dual)
    w = op.factors[0]
    lam = float(w.min())
    return ControlCertificate(
        kind=kind, dual_datum=dual, terminal_residual=residual,
        relative_residual=residual / max(sobolev_norm(prob.u0, 2.0), 1e-300),
        lambda_min=lam, condition=float(w.max()) / lam if lam > 0.0 else math.inf,
        control_times=ts, control_samples=op.control_weight(free_phase(ts, X) * v), **fields,
    )


def solve_linear_control(prob: ControlProblem) -> ControlCertificate:
    """HUM synthesis for the linear equation: Lambda v0 = rhs, then the
    terminal state of the controlled equation, exact and by the ETDRK4
    scheme's closed-form step sum, to certify it."""
    op = HumOperator(prob.spec, prob.phi, prob.T, band=prob.control_band)
    v0, relres = _solve_hum_system(prob, op, -1j * prob.u0.coeffs)
    return _certificate(
        prob, op, "linear", v0, _verify_closed_form(prob, op, v0), cg_residuals=(relres,),
        integrator_residual=_verify_linear_march(prob, op, v0),
    )


# ---------------------------------------------------------------------------
# nonlinear local control
# ---------------------------------------------------------------------------

def _nonlinear_correction(prob: ControlProblem, op: HumOperator, phi0: np.ndarray) -> np.ndarray:
    """K Phi0 = v(0) where v solves the backward problem driven by the
    controlled trajectory:

        i v_t + L v + |u|^{2k} u = 0,  v(T) = 0,
        i u_t + L u + |u|^{2k} u = A e^{itL} Phi0,  u(T) = 0.

    Both backward problems are computed as forward solves of the conjugated
    time-reversed equations.
    """
    spec = prob.spec
    X = spec.dispersion[spec.box]
    out = np.zeros(spec.shape, dtype=complex)
    if np.linalg.norm(phi0) == 0.0:
        return out
    chi0 = free_phase(-prob.T, spec.dispersion) * np.conj(phi0)
    cfg = SolverConfig(dt=prob.solve_dt, k_nl=prob.k_nl)
    # i J_w = i int_0^T e^{-irL} |w|^{2k} w dr, summed over the march's blocks,
    # and v(0) = -i conj(e^{iTL} J_w) = conj(e^{iTL} i J_w), on the box; each
    # block's phases are its first one, the block before's last, times back's
    i_j_w, last, back = 0.0, 1.0, None
    for times, terms in forced_term_blocks(zero_field(spec), prob.T, cfg,
                                           control_forcing(op, chi0)):
        back = free_phase(-times, X) if back is None else back  # e^{-i j dt L}, once
        phases = last * back[:len(times)]
        last = phases[-1]
        i_j_w = i_j_w + backward_forced_initial(phases, times, terms)
    out[spec.box] = np.conj(free_phase(prob.T, X) * i_j_w)
    return out


def solve_nonlinear_control(prob: ControlProblem) -> ControlCertificate:
    """Local steering of the defocusing nonlinear flow to the zero state.

    The result is local, and no norm threshold stands in for its basin:
    whether a datum lies in the basin is measured on the run. A contraction
    ratio >= 1 raises ContractionFailure carrying the value, no fixed point
    within FIXEDPOINT_MAX_ITER updates raises ControlStagnationError, and a
    trajectory past the H^2 guard raises BlowUpError.
    """
    spec = prob.spec
    op = HumOperator(spec, prob.phi, prob.T, band=prob.control_band)
    phi0 = np.zeros(spec.shape, dtype=complex)
    diffs: list[float] = []
    ratios: list[float] = []
    cg_res: list[float] = []
    u0c = prob.u0.coeffs.astype(complex)

    for _ in range(FIXEDPOINT_MAX_ITER):
        k_phi = _nonlinear_correction(prob, op, phi0)
        phi_new, relres = _solve_hum_system(prob, op, -1j * (u0c - k_phi))
        cg_res.append(relres)
        diff = hs_norm(spec, phi_new - phi0, -2.0)
        if diffs and diffs[-1] > 0.0:
            ratios.append(diff / diffs[-1])
            if ratios[-1] >= 1.0:
                raise ContractionFailure(ratios[-1])
        diffs.append(diff)
        phi0 = phi_new
        if diff <= prob.fixedpoint_tol:
            break
    else:
        raise ControlStagnationError(
            f"fixed point not reached in {FIXEDPOINT_MAX_ITER} iterations "
            f"(last update {diffs[-1]:.3e})"
        )

    return _certificate(
        prob, op, "nonlinear", phi0, _verify_integrator(prob, op, phi0),
        cg_residuals=tuple(cg_res),
        fixedpoint_diffs=tuple(diffs), contraction_ratios=tuple(ratios),
    )
