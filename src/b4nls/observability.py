"""Frequency-localized observability Gramians.

The observability of a region omega over [0, T] is measured through the
Gramian G = int_0^T e^{-itL} m e^{itL} dt with m the smoothed indicator of
omega, restricted to a semiclassical frequency band: the modes where the
annulus cutoff kappa(h^2 |k|^2) is active. Its smallest eigenvalue is the
band observability constant; a floor uniform over h = 2^{-j} is the
numerical shadow of the frequency-cutoff observability inequality.

The band matrix is assembled from the closed geometric form of the time
average (`BandGramian.dense`): the weight's band block comes from the
spectral kernel's block builder, and both extreme eigenvalues come from
`np.linalg.eigvalsh`. A matrix-free trapezoid quadrature
(`BandGramian.apply`) is the independent route; the tests drive it through
Lanczos with full reorthogonalization and hold the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nothing here calls lanczos_extreme; the name stays because the benchmark's
# traced run wraps b4nls.observability.lanczos_extreme (bench/layers.py).
from .linalg import lanczos_extreme  # noqa: F401
from .hum import time_average_kernel
from .spectral import (
    DampingProfile,
    ManifoldSpec,
    band_mode_mask,
    kernel_rows,
    profile_product,
)


@dataclass(frozen=True)
class GramianReport:
    h: float
    band_dim: int
    T: float
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
        quad_dt: float,
        band_idx: np.ndarray,
    ):
        if T < 0.0:
            raise ValueError("T must be >= 0")
        self.spec = spec
        self.T = T
        self.weight_values = np.asarray(weight_values, dtype=float)
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
        """Dense band matrix from the closed trapezoid form."""
        b = self.band_dim
        if self.n_nodes == 0:
            return np.zeros((b, b), dtype=complex)
        spec, idx = self.spec, self.band_idx
        Wb = kernel_rows(
            spec, lambda f: profile_product(spec, self.weight_values, f),
            np.eye(b, dtype=complex), idx, idx,
        ).T
        return Wb * time_average_kernel(self.X[idx], self.T, self.dt)


def band_gramian_min_eig(
    profile: DampingProfile,
    T: float,
    h: float,
    quad_dt: float = 1e-3,
) -> GramianReport:
    """Smallest Gramian eigenvalue on the band kappa(h^2 |k|^2) > 0, for the
    weight of a damping profile.

    Both extremes come from eigvalsh of the dense closed-form band matrix.
    """
    spec = profile.spec
    band_idx = np.flatnonzero(band_mode_mask(spec, h).ravel())
    if len(band_idx) == 0:
        raise ValueError(f"no lattice mode falls in the h = {h:g} band")
    g = BandGramian(spec, profile.values, T, quad_dt, band_idx)
    if T == 0.0:
        return GramianReport(
            h=h, band_dim=g.band_dim, T=T, min_eig=0.0, max_eig=0.0, quadrature_nodes=0,
        )
    evals = np.linalg.eigvalsh(g.dense())
    return GramianReport(
        h=h, band_dim=g.band_dim, T=T,
        min_eig=float(evals[0]), max_eig=float(evals[-1]), quadrature_nodes=g.n_nodes + 1,
    )


def gramian_sweep(
    profile: DampingProfile,
    T: float,
    j_values,
    quad_dt: float = 1e-3,
) -> list[GramianReport]:
    """Gramian floors across the semiclassical scales h = 2^{-j}."""
    return [band_gramian_min_eig(profile, T, 2.0 ** (-j), quad_dt) for j in j_values]
