"""Frequency-localized observability Gramians and dispersive-constant probes.

The observability of a region omega over [0, T] is measured through the
Gramian G = int_0^T e^{-itL} m e^{itL} dt with m the smoothed indicator of
omega, restricted to a semiclassical frequency band: the modes where the
annulus cutoff kappa(h^2 |k|^2) is active. Its smallest eigenvalue is the
band observability constant; a floor uniform over h = 2^{-j} is the
numerical shadow of the frequency-cutoff observability inequality.

Two independent routes compute the same object. The primary route
assembles the dense band matrix from the closed geometric form of the
time average (`BandGramian.dense`) and reads both extreme eigenvalues from
`np.linalg.eigvalsh`. The oracle route is a matrix-free trapezoid
quadrature (`BandGramian.apply`) driven through Lanczos with full
reorthogonalization; `cross_check=True` runs it and the tests hold the two
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import lanczos_extreme
from .hum import multiplication_matrix, time_average_kernel
from .regions import Region
from .spectral import (
    ManifoldSpec,
    band_mode_mask,
    box_mask,
    coeffs_to_grid,
    make_damping_profile,
    profile_product,
    sobolev_weights,
)


@dataclass(frozen=True)
class GramianReport:
    h: float
    band_dim: int
    T: float
    region: Region | str
    min_eig: float
    max_eig: float
    quadrature_nodes: int


class BandGramian:
    """G restricted to a mode band, with matrix-free and dense routes.

    The weight is pointwise multiplication by weight_values, the grid
    samples of the smoothed indicator m; G is the trapezoid quadrature of
    int_0^T e^{-itL} m e^{itL} dt with step quad_dt.
    """

    def __init__(
        self,
        spec: ManifoldSpec,
        weight_values: np.ndarray,
        T: float,
        quad_dt: float = 1e-3,
        band_idx: np.ndarray | None = None,
    ):
        if T < 0.0:
            raise ValueError("T must be >= 0")
        self.spec = spec
        self.T = T
        self.weight_values = np.asarray(weight_values, dtype=float)
        if band_idx is None:
            band_idx = np.arange(spec.n_modes)
        self.band_idx = np.asarray(band_idx, dtype=int)
        self.n_nodes = max(1, int(round(T / quad_dt))) if T > 0.0 else 0
        self.dt = T / self.n_nodes if self.n_nodes else 0.0
        self.X = spec.dispersion.ravel()

    @property
    def band_dim(self) -> int:
        return len(self.band_idx)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free G restricted to the band: trapezoid over the nodes
        (the oracle route)."""
        if self.n_nodes == 0:
            return np.zeros_like(vec)
        spec = self.spec
        full = np.zeros(spec.n_modes, dtype=complex)
        full[self.band_idx] = vec
        times = self.dt * np.arange(self.n_nodes + 1)
        weights = np.full(self.n_nodes + 1, self.dt)
        weights[0] = weights[-1] = 0.5 * self.dt
        phases = np.exp(1j * times[:, None] * self.X[None, :])
        batch = (phases * full[None, :]).reshape((-1,) + spec.shape)
        out = profile_product(spec, self.weight_values, batch).reshape(len(times), -1)
        out = np.conj(phases) * out
        acc = np.tensordot(weights, out, axes=(0, 0))
        return acc[self.band_idx]

    def dense(self) -> np.ndarray:
        """Dense band matrix from the closed trapezoid form (primary route)."""
        W = multiplication_matrix(self.spec, self.weight_values)
        Wb = W[np.ix_(self.band_idx, self.band_idx)]
        if self.n_nodes == 0:
            return np.zeros_like(Wb)
        Xb = self.X[self.band_idx]
        E = time_average_kernel(Xb, self.T, self.dt)
        return Wb * E


def band_gramian_min_eig(
    spec: ManifoldSpec,
    region: Region,
    T: float,
    h: float,
    quad_dt: float = 1e-3,
    smoothing_width: float | None = None,
    lanczos_tol: float = 1e-8,
    seed: int = 0,
    cross_check: bool = False,
) -> GramianReport:
    """Smallest Gramian eigenvalue on the band kappa(h^2 |k|^2) > 0.

    Both extremes come from eigvalsh of the dense closed-form band matrix.
    cross_check additionally runs Lanczos (seed, lanczos_tol) on the
    matrix-free trapezoid apply and insists the extremes agree.
    """
    mask = band_mode_mask(spec, h)
    band_idx = np.flatnonzero(mask.ravel())
    if len(band_idx) == 0:
        raise ValueError(f"no lattice mode falls in the h = {h:g} band")
    profile = make_damping_profile(spec, region, smoothing_width)
    g = BandGramian(spec, profile.values, T, quad_dt, band_idx)
    if T == 0.0:
        return GramianReport(
            h=h, band_dim=g.band_dim, T=T, region=region,
            min_eig=0.0, max_eig=0.0, quadrature_nodes=0,
        )
    evals = np.linalg.eigvalsh(g.dense())
    lo, hi = float(evals[0]), float(evals[-1])
    if cross_check:
        lo_l, hi_l, _ = lanczos_extreme(g.apply, g.band_dim, seed=seed, tol=lanczos_tol)
        tol = 1e-6 * max(1.0, abs(hi))
        if abs(lo_l - lo) > tol or abs(hi_l - hi) > tol:
            raise AssertionError(
                f"Lanczos/dense disagreement: {lo_l:.3e}/{lo:.3e}, "
                f"{hi_l:.3e}/{hi:.3e}"
            )
    return GramianReport(
        h=h, band_dim=g.band_dim, T=T, region=region,
        min_eig=lo, max_eig=hi, quadrature_nodes=g.n_nodes + 1,
    )


def gramian_sweep(
    spec: ManifoldSpec,
    region: Region,
    T: float,
    j_values,
    quad_dt: float = 1e-3,
    smoothing_width: float | None = None,
) -> list[GramianReport]:
    """Gramian floors across the semiclassical scales h = 2^{-j}."""
    return [
        band_gramian_min_eig(spec, region, T, 2.0 ** (-j), quad_dt, smoothing_width)
        for j in j_values
    ]


# ---------------------------------------------------------------------------
# space-time (Strichartz-type) constant probe
# ---------------------------------------------------------------------------

def admissible_pair(p: float, q: float, d: int) -> bool:
    """Admissibility 2/p + d/q <= d/2, p,q >= 2, excluding (2, inf)."""
    if p < 2.0 or q < 2.0:
        return False
    if p == 2.0 and math.isinf(q):
        return False
    qinv = 0.0 if math.isinf(q) else 1.0 / q
    pinv = 0.0 if math.isinf(p) else 1.0 / p
    return 2.0 * pinv + d * qinv <= d / 2.0 + 1e-12


def strichartz_ratio(
    spec: ManifoldSpec,
    p: float,
    q: float,
    n_samples: int,
    rng: np.random.Generator,
    band: int = 4,
    time_points: int = 1001,
    data_fields: list | None = None,
) -> float:
    """Largest observed || e^{itL} u0 ||_{L^p([0,1], L^q)} / || u0 ||_{H^g},
    g = d/2 - d/q - 4/p + 3/p, over random band-limited data.

    Space norms use collocation quadrature; the time L^p integral uses the
    trapezoid rule, so the band must stay low enough for the phase
    differences to be resolved by the time grid. data_fields, if given,
    replaces the random draw with explicit coefficient arrays (used for
    resolution-stability checks on identical data).
    """
    if not admissible_pair(p, q, spec.d):
        raise ValueError(f"(p, q) = ({p}, {q}) is not admissible for d = {spec.d}")
    gamma = spec.d / 2.0 - (0.0 if math.isinf(q) else spec.d / q) - 4.0 / p
    sob_index = gamma + 3.0 / p
    w = sobolev_weights(spec, sob_index).ravel()
    times = np.linspace(0.0, 1.0, time_points)
    phases = np.exp(1j * times[:, None] * spec.dispersion.ravel()[None, :])
    cell = spec.cell_volume
    mask = box_mask(spec, band)

    if data_fields is None:
        draws = (
            np.where(
                mask,
                rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape),
                0.0,
            )
            for _ in range(n_samples)
        )
    else:
        draws = (np.asarray(c, dtype=complex) for c in data_fields)

    best = 0.0
    for c in draws:
        denom = math.sqrt(float(np.sum(w * np.abs(c.ravel()) ** 2)))
        if denom == 0.0:
            continue
        batch = (phases * c.ravel()[None, :]).reshape((-1,) + spec.shape)
        vals = coeffs_to_grid(spec, batch)
        flat = np.abs(vals).reshape(len(times), -1)
        if math.isinf(q):
            space = flat.max(axis=1)
        else:
            space = (np.sum(flat**q, axis=1) * cell) ** (1.0 / q)
        if math.isinf(p):
            tnorm = float(space.max())
        else:
            tnorm = float(np.trapezoid(space**p, times) ** (1.0 / p))
        best = max(best, tnorm / denom)
    return best
