"""Exact controllability through the duality (HUM) operator.

For the linear flow i u_t + (Lap^2 - beta Lap) u = h with controls of the
form h(t) = A e^{itL} v0, A = phi (1-Lap)^{-2} (phi .), steering u0 to rest
at time T reduces to the Hermitian positive system

    Lambda v0 = -i (u0 - e^{-iTL} u_target),
    Lambda    = int_0^T e^{-itL} A e^{itL} dt.

On the truncated lattice Lambda has a closed form

    Lambda[l, k] = A[l, k] * E(X_k - X_l),   E(w) = int_0^T e^{iwt} dt,

a Hadamard product of positive matrices, so Lambda stays positive
semidefinite exactly. The operator uses the exact time integral; the
closed geometric form of the trapezoid sum over a uniform time grid is what
the observability Gramians use (`time_average_kernel` gives both).

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
through the iteration count, not hidden behind a preconditioner.

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
from .dynamics import SolverConfig, evolve_nonlinear
from .regions import TWO_PI
from .spectral import (
    DampingProfile,
    ManifoldSpec,
    SpectralField,
    box_mask,
    kernel_rows,
    nonlinear_term,
    sandwich,
    smoothing_multiplier,
    sobolev_norm,
    sobolev_weights,
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
        keep = None if band is None else box_mask(self.spec, band)
        m = n if keep is None else int(keep.sum())
        if n * m > MAX_OPERATOR_ENTRIES:
            raise ValueError(
                f"the HUM operator needs {2 * 16 * n * m} bytes for A and Lambda ({n} x {m} "
                f"complex each), above the cap of {MAX_OPERATOR_ENTRIES} entries; narrow the band"
            )
        if keep is not None:
            rhs = _transported_rhs(self)
            if np.linalg.norm(rhs[~keep]) > 1e-12 * max(np.linalg.norm(rhs), 1.0):
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
    """E[l,k] = average over [0,T] of exp(i t (X_k - X_l)), times T.

    Rows run over X, columns over X[cols] (all of X when cols is None).
    quadrature None gives the exact integral; a float dt gives the closed
    form of the composite trapezoid sum on that grid.
    """
    Xc = X if cols is None else X[cols]
    omega = Xc[None, :] - X[:, None]
    if quadrature is None:
        # T * exp(i w T / 2) * sinc(w T / 2pi)
        return T * np.exp(0.5j * omega * T) * np.sinc(omega * T / TWO_PI)
    n = max(1, int(round(T / quadrature)))
    dt = T / n
    theta = omega * dt
    z = np.exp(1j * theta)
    # S = sum_{j=0}^{n} e^{i j theta} = (e^{i(n+1)theta} - 1) / (e^{i theta} - 1)
    num = np.exp(1j * (n + 1) * theta) - 1.0
    den = z - 1.0
    small = np.abs(den) < 1e-12
    den_safe = np.where(small, 1.0, den)
    series = np.where(small, float(n + 1), num / den_safe)
    trap = dt * (series - 0.5 * (1.0 + np.exp(1j * omega * T)))
    return trap


class HumOperator:
    """Lambda for one (phi, T) pair, assembled on the columns of the support.

    support holds the flat lattice indices S that a dual datum may occupy:
    the modes with every |k_i| <= band, or all modes when band is None. The
    operator keeps A = A[:, S] and matrix = Lambda[:, S], both of shape
    (n_modes, |S|), and block = Lambda[S, S], the Hermitian matrix CG
    solves with. Vectors on S are given in support order.
    """

    def __init__(
        self,
        spec: ManifoldSpec,
        phi: DampingProfile,
        T: float,
        band: int | None = None,
    ):
        self.spec = spec
        self.phi = phi
        self.T = T
        keep = np.ones(spec.shape, dtype=bool) if band is None else box_mask(spec, band)
        self.support = np.flatnonzero(keep)
        s2 = smoothing_multiplier(spec, 2)
        self.A = kernel_rows(  # phi (1-Lap)^{-2} phi, columns S
            spec, lambda f: sandwich(spec, phi.values, s2, f),
            np.eye(len(self.support), dtype=complex), self.support, np.arange(spec.n_modes),
        ).T
        X = spec.dispersion.ravel()
        self.matrix = self.A * time_average_kernel(X, T, None, self.support)
        # without a band the block is the whole matrix, not a copy of it
        self.block = self.matrix if band is None else self.matrix[self.support]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Lambda c for lattice coefficients c supported on S."""
        return (self.matrix @ coeffs.ravel()[self.support]).reshape(self.spec.shape)

    def control_weight(self, w: np.ndarray) -> np.ndarray:
        """A w = phi (1-Lap)^{-2} (phi w) for w given on S, as lattice coeffs."""
        return (self.A @ w).reshape(self.spec.shape)


def control_forcing(op: HumOperator, v0: np.ndarray):
    """Closure t -> coefficients of A e^{itL} v0, exact at any stage time.

    Only v0 on the support S is read: h(t) = A[:, S] (e^{itX_S} v0[S]). The
    closure keeps the last (t, value) pair, so a time asked for again in a
    row costs nothing; an ETDRK4 step asks for t + dt/2 twice and ends at
    the next step's start. The arrays it returns are read-only, because a
    repeated time hands out the same array.
    """
    X = op.spec.dispersion.ravel()[op.support]
    v = v0.ravel()[op.support]
    last_t, last_h = None, None

    def h(t: float) -> np.ndarray:
        nonlocal last_t, last_h
        if t != last_t:
            last_h = op.control_weight(np.exp(1j * t * X) * v)
            last_h.flags.writeable = False
            last_t = t
        return last_h

    return h


def backward_forced_initial(
    spec: ManifoldSpec, times: np.ndarray, forcing_samples: np.ndarray
) -> np.ndarray:
    """Initial value of the backward problem i u_t + L u = h, u(T) = 0.

    u(0) = i int_0^T e^{-isL} h(s) ds, by trapezoid over the given samples.
    """
    phases = np.exp(
        -1j * np.asarray(times).reshape((-1,) + (1,) * spec.d) * spec.dispersion
    )
    integrand = phases * forcing_samples
    return 1j * np.trapezoid(integrand, np.asarray(times), axis=0)


# ---------------------------------------------------------------------------
# linear control
# ---------------------------------------------------------------------------

def _transported_rhs(prob: ControlProblem) -> np.ndarray:
    """-i (u0 - e^{-iTL} u_target): steering to a state is steering the
    transported difference to rest."""
    rhs = prob.u0.coeffs.astype(complex)
    if prob.u_target is not None:
        rhs = rhs - np.exp(-1j * prob.T * prob.spec.dispersion) * prob.u_target.coeffs
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
    target = np.zeros_like(uT) if prob.u_target is None else prob.u_target.coeffs
    w = sobolev_weights(prob.spec, 2.0)
    return math.sqrt(float(np.sum(w * np.abs(uT - target) ** 2)))


def _verify_integrator(prob: ControlProblem, op: HumOperator, v0: np.ndarray,
                       nonlinear: bool) -> float:
    """Terminal miss measured by an ETDRK4 run driven by the control."""
    h = control_forcing(op, v0)
    cfg = SolverConfig(
        dt=prob.verify_dt,
        k_nl=prob.k_nl,
        include_nonlinearity=nonlinear,
        record_stride=10**9,  # only endpoints matter here
    )
    trace = evolve_nonlinear(prob.u0, prob.T, cfg, forcing=h)
    return _h2_miss(prob, trace.states[-1])


def _verify_closed_form(prob: ControlProblem, op: HumOperator, v0: np.ndarray) -> float:
    """Exact terminal state of the controlled linear lattice system,
    u(T) = e^{iTL} (u0 - i Lambda v0), assembled fresh from the operator."""
    X = prob.spec.dispersion
    uT = np.exp(1j * prob.T * X) * (prob.u0.coeffs - 1j * op.apply(v0))
    return _h2_miss(prob, uT)


def _control_samples(prob: ControlProblem, op: HumOperator, v0: np.ndarray):
    ts = np.linspace(0.0, prob.T, 101)
    h = control_forcing(op, v0)
    return ts, np.stack([h(t) for t in ts])


def solve_linear_control(prob: ControlProblem) -> ControlCertificate:
    """HUM synthesis for the linear equation: CG on Lambda v0 = rhs, then a
    forward solve of the controlled equation to certify the terminal state."""
    op = HumOperator(prob.spec, prob.phi, prob.T, band=prob.control_band)
    v0, iters, relres = _solve_hum_system(prob, op, _transported_rhs(prob))
    residual = _verify_closed_form(prob, op, v0)
    integ = _verify_integrator(prob, op, v0, nonlinear=False)
    ts, samples = _control_samples(prob, op, v0)
    scale = sobolev_norm(prob.u0, 2.0)
    return ControlCertificate(
        kind="linear",
        dual_datum=v0,
        terminal_residual=residual,
        relative_residual=residual / max(scale, 1e-300),
        cg_iterations=(iters,),
        cg_residuals=(relres,),
        integrator_residual=integ,
        control_times=ts,
        control_samples=samples,
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

    chi0 = np.exp(-1j * prob.T * X) * np.conj(phi0)
    cfg = SolverConfig(dt=prob.solve_dt, k_nl=prob.k_nl, include_nonlinearity=True)
    w_trace = evolve_nonlinear(
        SpectralField(spec, np.zeros(spec.shape, dtype=complex)),
        prob.T,
        cfg,
        forcing=control_forcing(op, chi0),
    )

    # J_w = int_0^T e^{-irL} |w|^{2k} w dr over the trace grid
    f_samples = np.where(
        spec.dealias_mask, nonlinear_term(spec, w_trace.states, prob.k_nl), 0.0
    )
    phases = np.exp(
        -1j * w_trace.times.reshape((-1,) + (1,) * spec.d) * X
    )
    j_w = np.trapezoid(phases * f_samples, w_trace.times, axis=0)

    # v(0) = -i conj(e^{iTL} J_w)
    return -1j * np.conj(np.exp(1j * prob.T * X) * j_w)


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
    hm2 = sobolev_weights(spec, -2.0)

    def hm2_norm(c: np.ndarray) -> float:
        return math.sqrt(float(np.sum(hm2 * np.abs(c) ** 2)))

    def s_inverse(y: np.ndarray):
        return _solve_hum_system(prob, op, -1j * y)

    phi0 = np.zeros(spec.shape, dtype=complex)
    diffs: list[float] = []
    ratios: list[float] = []
    cg_iters: list[int] = []
    cg_res: list[float] = []
    u0c = prob.u0.coeffs.astype(complex)

    for _ in range(FIXEDPOINT_MAX_ITER):
        k_phi = _nonlinear_correction(prob, op, phi0)
        phi_new, iters, relres = s_inverse(u0c - k_phi)
        cg_iters.append(iters)
        cg_res.append(relres)
        diff = hm2_norm(phi_new - phi0)
        if diffs:
            denom = diffs[-1]
            if denom > 0.0:
                ratio = diff / denom
                ratios.append(ratio)
                if ratio >= 1.0:
                    raise ContractionFailure(ratio)
        diffs.append(diff)
        phi0 = phi_new
        if diff <= prob.fixedpoint_tol:
            break
    else:
        raise ControlStagnationError(
            f"fixed point not reached in {FIXEDPOINT_MAX_ITER} iterations "
            f"(last update {diffs[-1]:.3e})"
        )

    residual = _verify_integrator(prob, op, phi0, nonlinear=True)
    ts, samples = _control_samples(prob, op, phi0)
    return ControlCertificate(
        kind="nonlinear",
        dual_datum=phi0,
        terminal_residual=residual,
        relative_residual=residual / max(sobolev_norm(prob.u0, 2.0), 1e-300),
        cg_iterations=tuple(cg_iters),
        cg_residuals=tuple(cg_res),
        fixedpoint_diffs=tuple(diffs),
        contraction_ratios=tuple(ratios),
        control_times=ts,
        control_samples=samples,
    )


def verify_certificate(prob: ControlProblem, cert: ControlCertificate) -> float:
    """Recompute the terminal residual of a certificate by a fresh forward
    solve; must reproduce the stored value."""
    op = HumOperator(prob.spec, prob.phi, prob.T, band=prob.control_band)
    if cert.kind == "nonlinear":
        return _verify_integrator(prob, op, cert.dual_datum, nonlinear=True)
    return _verify_closed_form(prob, op, cert.dual_datum)
