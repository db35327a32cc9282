"""Frequency-localized observability Gramians.

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

from dataclasses import dataclass

import numpy as np

from .linalg import lanczos_extreme
from .hum import multiplication_matrix, time_average_kernel
from .regions import Region
from .spectral import (
    ManifoldSpec,
    band_mode_mask,
    make_damping_profile,
    profile_product,
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
    cross_check: bool = False,
) -> GramianReport:
    """Smallest Gramian eigenvalue on the band kappa(h^2 |k|^2) > 0.

    Both extremes come from eigvalsh of the dense closed-form band matrix.
    cross_check additionally runs `lanczos_extreme` on the matrix-free
    trapezoid apply and insists the extremes agree.
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
        lo_l, hi_l, _ = lanczos_extreme(g.apply, g.band_dim)
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

