"""Exact controllability through the duality (HUM) operator.

For the linear flow i u_t + (Lap^2 - beta Lap) u = h with controls of the
form h(t) = A e^{itL} v0, A = phi (1-Lap)^{-2} (phi .), steering u0 to rest
at time T reduces to the Hermitian positive system

    Lambda v0 = -i (u0 - e^{-iTL} u_target),
    Lambda    = int_0^T e^{-itL} A e^{itL} dt.

On the truncated lattice Lambda has a closed form

    Lambda[l, k] = A[l, k] * E(X_k - X_l),   E(w) = int_0^T e^{iwt} dt,

a Hadamard product of positive matrices, so Lambda stays positive
semidefinite exactly. The operator uses the exact time integral and the
observability Gramians the trapezoid sum on a uniform grid; both are one
closed form, E(w) = e^{iwT/2} sin(wT/2) / h(w) with h = w/2 or
h = tan(w dt/2)/dt, which `time_average_kernel` computes with its result as
the only complex array, and the zero matrix at T = 0. A time integral over
samples (the backward initial value, the nonlinear correction, the
matrix-free Gramian) is the one sampled duality integral
`backward_forced_initial`.

The dual datum lives on a support S: the modes of the control band, or
every mode without one. Nothing reads a column of Lambda or A outside S, so
the operator assembles only A[:, S], the spectral kernel's control weight
(`sandwich` with (1-Lap)^{-2}) on the basis vectors of S through the block
builder `kernel_rows`, and Lambda[:, S]. CG runs on the block
Lambda[S, S], the closed-form certificate applies Lambda[:, S] to v0[S],
and the control forcing applies A[:, S] to e^{itX_S} v0[S]. A banded
operator thus holds n |S| entries instead of n^2. The dense multiplication
matrix of phi is the test oracle of the grid products; no run path builds
it.

The system is solved by plain conjugate gradients in L^2; the H^{-2} -> H^2
character of the continuum operator appears as conditioning and is reported
through the iteration count, not hidden behind a preconditioner. That count
and the last fixed-point update sit at CG's noise floor (ControlCertificate).

The nonlinear local control iterates the contraction

    Phi0 <- -S^{-1} K Phi0 + S^{-1} u0

where S Phi0 = i Lambda Phi0 is the linear solution operator and K Phi0 is
the initial value of the backward correction driven by the controlled
nonlinear trajectory. Backward problems are realized as forward solves of
the conjugated, time-reversed equation. The basin of the contraction is
measured on each run, not assumed from a norm threshold: the iteration
stops with ContractionFailure when an update ratio reaches 1, with
ControlStagnationError at the iteration cap, and with BlowUpError when a
trajectory leaves the H^2 guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import cg_hermitian
from .dynamics import SolverConfig, evolve_nonlinear, step_grid
from .spectral import (
    DampingProfile,
    ManifoldSpec,
    SpectralField,
    box_mask,
    dealiased_nonlinear_term,
    free_phase,
    hs_norm,
    kernel_rows,
    sandwich,
    smoothing_multiplier,
    sobolev_norm,
)


# entries of A[:, S] and of Lambda[:, S] a ControlProblem may need (64 MiB each)
MAX_OPERATOR_ENTRIES = 2**22

# the nonlinear control runs at most FIXEDPOINT_MAX_ITER fixed-point updates
FIXEDPOINT_MAX_ITER = 12


class ControlStagnationError(RuntimeError):
    """CG failed to converge: practical loss of observability."""


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
    This keeps the certification forward solve able to resolve the
    control's phases at a finite step size; the out-of-band leak of the
    control operator enters the certified residual honestly. Construction
    checks every input rule of the problem, so a problem that exists can be
    solved: the transported datum -i (u0 - e^{-iTL} u_target) must lie in
    the band, and a problem whose operator would exceed
    MAX_OPERATOR_ENTRIES (n_modes x |S|) is refused before anything is
    assembled.
    """

    spec: ManifoldSpec
    u0: SpectralField
    T: float
    phi: DampingProfile
    u_target: SpectralField | None = None
    k_nl: int = 1
    cg_tol: float = 1e-9
    cg_max_iter: int = 600
    fixedpoint_tol: float = 1e-8
    control_band: int | None = None
    verify_dt: float = 1e-4
    solve_dt: float = 1e-3

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("control horizon must be positive")
        if self.phi.spec != self.spec or self.u0.spec != self.spec:
            raise ValueError("problem pieces live on different specs")
        if self.u_target is not None and self.u_target.spec != self.spec:
            raise ValueError("target lives on a different spec")
        band = self.control_band
        if band is not None and band < 0:
            raise ValueError(f"control band must be >= 0, got control_band = {band}")
        if not (self.verify_dt > 0.0 and self.solve_dt > 0.0):
            raise ValueError("verify_dt and solve_dt must be positive")
        if self.k_nl < 1:
            raise ValueError("k_nl must be >= 1")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if not (self.fixedpoint_tol > 0.0 and self.cg_max_iter >= 1):
            raise ValueError("fixedpoint_tol must be positive and cg_max_iter >= 1")
        n = self.spec.n_modes
        support = dual_support(self.spec, band)
        m = len(support)
        if n * m > MAX_OPERATOR_ENTRIES:
            raise ValueError(
                f"the HUM operator needs {2 * 16 * n * m} bytes for A and Lambda ({n} x {m} "
                f"complex each), above the cap of {MAX_OPERATOR_ENTRIES} entries; narrow the band"
            )
        rhs = _transported_rhs(self)
        if np.linalg.norm(np.delete(rhs, support)) > 1e-12 * max(np.linalg.norm(rhs), 1.0):
            raise ValueError(
                f"the datum has content outside the control band (control_band = {band})"
            )


@dataclass(frozen=True)
class ControlCertificate:
    """Outcome of a control synthesis.

    terminal_residual is ||u(T) - u_target||_{H^2} of the controlled
    trajectory: for the linear problem the flow integrates in closed form
    (exponential Duhamel formula), so the value is exact for the lattice
    system; for the nonlinear problem it comes from the certifying ETDRK4
    solve. integrator_residual (linear only) reports the same miss measured
    by a finite-step ETDRK4 run, which carries that scheme's own quadrature
    error on the control's oscillations and is therefore pinned separately.

    At CG's noise floor, cg_iterations reproduces only to +-2 under roundoff
    (Lambda scaled by 1 + 2^-52 moved it by 1-2 on 7 of 16 bench seeds), and
    the nonlinear last fixed-point update, about 1e-11, is that floor itself.
    """

    kind: str  # "linear" | "nonlinear"
    dual_datum: np.ndarray  # v0 (linear) or Phi0 (nonlinear), lattice coeffs
    terminal_residual: float
    relative_residual: float
    cg_iterations: tuple[int, ...]
    cg_residuals: tuple[float, ...]
    integrator_residual: float | None = None
    fixedpoint_diffs: tuple[float, ...] = ()
    contraction_ratios: tuple[float, ...] = ()
    control_times: np.ndarray | None = None
    control_samples: np.ndarray | None = None  # (n_t,) + lattice


# ---------------------------------------------------------------------------
# the duality operator
# ---------------------------------------------------------------------------

def dual_support(spec: ManifoldSpec, band: int | None) -> np.ndarray:
    """The flat lattice indices S a dual datum may occupy: the modes with
    every |k_i| <= band, or every mode when band is None."""
    if band is None:
        return np.arange(spec.n_modes)
    return np.flatnonzero(box_mask(spec, band))


def multiplication_matrix(spec: ManifoldSpec, values: np.ndarray) -> np.ndarray:
    """Dense matrix of grid multiplication by a real profile, e_k basis:
    the test oracle of the grid products and of `kernel_rows`.

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
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """E[l,k] = int_0^T exp(i t w) dt with w = X_k - X_l, by one rule.

    Rows run over X, columns over X[cols] (all of X when cols is None).
    quadrature None gives the exact integral; a float dt gives the
    composite trapezoid sum on the steps of `step_grid(T, dt)`; at T = 0,
    which has no step, both are the zero matrix. Both are one closed form,

        E(w) = e^{iwT/2} sin(wT/2) / h(w),   E = T where h = 0,

    with h = w/2 for the exact rule and h = tan(w dt/2)/dt for the
    trapezoid sum, whose geometric series is dt e^{inθ/2} sin(nθ/2)
    cot(θ/2) at θ = w dt. The result is the only complex array of its size
    that the call holds.
    """
    if T == 0.0:
        quadrature = None
    Xc = X if cols is None else X[cols]
    h = Xc[None, :] - X[:, None]  # w, until it becomes h
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
    """Lambda for one (phi, T) pair, assembled on the columns of the support.

    support holds the flat lattice indices S that a dual datum may occupy,
    dual_support(spec, band). The operator keeps A = A[:, S] and matrix =
    Lambda[:, S], both of shape (n_modes, |S|), and block = Lambda[S, S],
    the Hermitian matrix CG solves with. Vectors on S are given in support
    order.
    """

    def __init__(
        self,
        spec: ManifoldSpec,
        phi: DampingProfile,
        T: float,
        band: int | None = None,
    ):
        self.spec = spec
        self.support = dual_support(spec, band)
        s2 = smoothing_multiplier(spec, 2)
        self.A = kernel_rows(  # phi (1-Lap)^{-2} phi, columns S
            spec, lambda f: sandwich(spec, phi.compact, s2, f),
            np.eye(len(self.support), dtype=complex), self.support, np.arange(spec.n_modes),
        ).T
        self.matrix = time_average_kernel(spec.dispersion.ravel(), T, None, self.support)
        self.matrix *= self.A
        # without a band the block is the whole matrix, not a copy of it
        self.block = self.matrix if band is None else self.matrix[self.support]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Lambda c for lattice coefficients c supported on S."""
        return (self.matrix @ coeffs.ravel()[self.support]).reshape(self.spec.shape)

    def control_weight(self, w: np.ndarray) -> np.ndarray:
        """A w = phi (1-Lap)^{-2} (phi w) for a stack of w given on S, as a
        stack of lattice coeffs."""
        return (w @ self.A.T).reshape(w.shape[:-1] + self.spec.shape)


def control_forcing(op: HumOperator, v0: np.ndarray):
    """Map ts -> coefficients of A e^{itL} v0 at each time of the array ts,
    a (len(ts),) + lattice stack, exact at any stage time. Only v0 on the
    support S is read: h(t) = A[:, S] (e^{itX_S} v0[S]), one |ts| x |S|
    phase block and one product through control_weight for all the times.
    """
    X = op.spec.dispersion.ravel()[op.support]
    v = v0.ravel()[op.support]
    return lambda ts: op.control_weight(free_phase(ts, X) * v)


def backward_forced_initial(
    spec: ManifoldSpec, times: np.ndarray, forcing_samples: np.ndarray
) -> np.ndarray:
    """Initial value of the backward problem i u_t + L u = h, u(T) = 0.

    u(0) = i int_0^T e^{-isL} h(s) ds, by trapezoid over the given samples.
    """
    integrand = free_phase(-np.asarray(times), spec.dispersion) * forcing_samples
    return 1j * np.trapezoid(integrand, np.asarray(times), axis=0)


# ---------------------------------------------------------------------------
# linear control
# ---------------------------------------------------------------------------

def _transported_rhs(prob: ControlProblem) -> np.ndarray:
    """-i (u0 - e^{-iTL} u_target): steering to a state is steering the
    transported difference to rest."""
    rhs = prob.u0.coeffs.astype(complex)
    if prob.u_target is not None:
        rhs = rhs - free_phase(-prob.T, prob.spec.dispersion) * prob.u_target.coeffs
    return -1j * rhs


def _solve_hum_system(
    prob: ControlProblem, op: HumOperator, rhs: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """CG on the block Lambda[S, S] for one right-hand side. Only rhs on S
    is read, which makes the solve the Galerkin projection onto S. The
    reported residual is the true ||b - Lambda[S, S] x|| / ||b||, not CG's
    recursive estimate."""
    b = rhs.ravel()[op.support]
    x, iters, _ = cg_hermitian(
        lambda z: op.block @ z, b, tol=prob.cg_tol, max_iter=prob.cg_max_iter
    )
    bnorm = float(np.linalg.norm(b))
    relres = float(np.linalg.norm(b - op.block @ x)) / bnorm if bnorm > 0.0 else 0.0
    if relres > 100.0 * prob.cg_tol:
        raise ControlStagnationError(
            f"CG stalled at relative residual {relres:.3e} after {iters} iterations; "
            "the control region may not be observable (GCC violated?)"
        )
    v0 = np.zeros(prob.spec.n_modes, dtype=complex)
    v0[op.support] = x
    return v0.reshape(prob.spec.shape), iters, relres


def _h2_miss(prob: ControlProblem, uT: np.ndarray) -> float:
    return hs_norm(prob.spec, uT if prob.u_target is None else uT - prob.u_target.coeffs, 2.0)


def _verify_integrator(prob: ControlProblem, op: HumOperator, v0: np.ndarray,
                       nonlinear: bool) -> float:
    """Terminal miss measured by an ETDRK4 run driven by the control."""
    cfg = SolverConfig(
        dt=prob.verify_dt,
        k_nl=prob.k_nl,
        include_nonlinearity=nonlinear,
        record_stride=10**9,  # only endpoints matter here
    )
    trace = evolve_nonlinear(prob.u0, prob.T, cfg, forcing=control_forcing(op, v0))
    return _h2_miss(prob, trace.states[-1])


def _verify_closed_form(prob: ControlProblem, op: HumOperator, v0: np.ndarray) -> float:
    """Exact terminal state of the controlled linear lattice system,
    u(T) = e^{iTL} (u0 - i Lambda v0), assembled fresh from the operator."""
    uT = free_phase(prob.T, prob.spec.dispersion) * (prob.u0.coeffs - 1j * op.apply(v0))
    return _h2_miss(prob, uT)


def _certificate(prob: ControlProblem, op: HumOperator, kind: str, dual: np.ndarray,
                 residual: float, **fields) -> ControlCertificate:
    """The certificate of a dual datum with its terminal miss, relative to
    ||u0||_{H^2}, and its control sampled at 101 times."""
    ts = np.linspace(0.0, prob.T, 101)
    return ControlCertificate(
        kind=kind, dual_datum=dual, terminal_residual=residual,
        relative_residual=residual / max(sobolev_norm(prob.u0, 2.0), 1e-300),
        control_times=ts, control_samples=control_forcing(op, dual)(ts), **fields,
    )


def solve_linear_control(prob: ControlProblem) -> ControlCertificate:
    """HUM synthesis for the linear equation: CG on Lambda v0 = rhs, then a
    forward solve of the controlled equation to certify the terminal state."""
    op = HumOperator(prob.spec, prob.phi, prob.T, band=prob.control_band)
    v0, iters, relres = _solve_hum_system(prob, op, _transported_rhs(prob))
    return _certificate(
        prob, op, "linear", v0, _verify_closed_form(prob, op, v0),
        cg_iterations=(iters,), cg_residuals=(relres,),
        integrator_residual=_verify_integrator(prob, op, v0, nonlinear=False),
    )


# ---------------------------------------------------------------------------
# nonlinear local control
# ---------------------------------------------------------------------------

def _nonlinear_correction(
    prob: ControlProblem, op: HumOperator, phi0: np.ndarray
) -> np.ndarray:
    """K Phi0 = v(0) where v solves the backward problem driven by the
    controlled trajectory:

        i v_t + L v + |u|^{2k} u = 0,  v(T) = 0,
        i u_t + L u + |u|^{2k} u = A e^{itL} Phi0,  u(T) = 0.

    Both backward problems are computed as forward solves of the conjugated
    time-reversed equations.
    """
    spec = prob.spec
    X = spec.dispersion
    if np.linalg.norm(phi0) == 0.0:
        return np.zeros(spec.shape, dtype=complex)

    chi0 = free_phase(-prob.T, X) * np.conj(phi0)
    cfg = SolverConfig(dt=prob.solve_dt, k_nl=prob.k_nl, include_nonlinearity=True)
    w_trace = evolve_nonlinear(
        SpectralField(spec, np.zeros(spec.shape, dtype=complex)),
        prob.T,
        cfg,
        forcing=control_forcing(op, chi0),
    )

    # J_w = int_0^T e^{-irL} |w|^{2k} w dr over the trace grid is the
    # sampled duality integral: i J_w = backward_forced_initial(f), so
    # v(0) = -i conj(e^{iTL} J_w) = conj(e^{iTL} i J_w)
    f_samples = dealiased_nonlinear_term(spec, w_trace.states, prob.k_nl)
    i_j_w = backward_forced_initial(spec, w_trace.times, f_samples)
    return np.conj(free_phase(prob.T, X) * i_j_w)


def solve_nonlinear_control(prob: ControlProblem) -> ControlCertificate:
    """Local steering of the defocusing nonlinear flow to the zero state.

    The result is local, and no norm threshold stands in for its basin:
    whether a datum lies in the basin is measured on the run. A contraction
    ratio >= 1 raises ContractionFailure carrying the value, no fixed point
    within FIXEDPOINT_MAX_ITER updates raises ControlStagnationError, and a
    trajectory past the H^2 guard raises BlowUpError.
    """
    if prob.u_target is not None and np.linalg.norm(prob.u_target.coeffs) > 0.0:
        raise ValueError("nonlinear control steers to the zero state")
    spec = prob.spec
    op = HumOperator(spec, prob.phi, prob.T, band=prob.control_band)
    phi0 = np.zeros(spec.shape, dtype=complex)
    diffs: list[float] = []
    ratios: list[float] = []
    cg_iters: list[int] = []
    cg_res: list[float] = []
    u0c = prob.u0.coeffs.astype(complex)

    for _ in range(FIXEDPOINT_MAX_ITER):
        k_phi = _nonlinear_correction(prob, op, phi0)
        phi_new, iters, relres = _solve_hum_system(prob, op, -1j * (u0c - k_phi))
        cg_iters.append(iters)
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
        prob, op, "nonlinear", phi0, _verify_integrator(prob, op, phi0, nonlinear=True),
        cg_iterations=tuple(cg_iters), cg_residuals=tuple(cg_res),
        fixedpoint_diffs=tuple(diffs), contraction_ratios=tuple(ratios),
    )


def verify_certificate(prob: ControlProblem, cert: ControlCertificate) -> float:
    """Recompute the terminal residual of a certificate by a fresh forward
    solve; must reproduce the stored value."""
    op = HumOperator(prob.spec, prob.phi, prob.T, band=prob.control_band)
    if cert.kind == "nonlinear":
        return _verify_integrator(prob, op, cert.dual_datum, nonlinear=True)
    return _verify_closed_form(prob, op, cert.dual_datum)
