"""Frequency-localized observability Gramians.

The observability of a region omega over [0, T] is measured through the
Gramian G = int_0^T e^{-itL} m e^{itL} dt with m the smoothed indicator of
omega, restricted to a semiclassical frequency band: the modes where the
annulus cutoff kappa(h^2 |k|^2) is active. Its smallest eigenvalue is the
band observability constant; a floor uniform over h = 2^{-j} is the
numerical shadow of the frequency-cutoff observability inequality.

The band matrix (`BandGramian.dense`) is the closed form of the trapezoid
time average on the `dynamics.step_grid` steps, `hum.time_average_kernel`
(one formula with HUM's exact integral), multiplied in place by the weight's
band block from the spectral kernel's block builder, the band as one
group; both extreme eigenvalues come from `np.linalg.eigvalsh`. At T = 0
the time kernel is the zero matrix. `gramian_sweep` is the one entry: a
single band h = 2^{-j} is the sweep of [j]. `check_gramian_sweep` owns its
input rules (finite T >= 0 and quad_dt > 0, bands of 1 to
sqrt(MAX_BAND_ENTRIES) modes), and a sweep builds each band once. The
matrix-free route (`BandGramian.apply`) is the independent one: it samples
m e^{itL} v on the nodes and integrates them with the one sampled duality
integral, `hum.backward_forced_initial`; the tests drive it through Lanczos
with full reorthogonalization and hold the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nothing here calls lanczos_extreme; the name stays because the benchmark's
# traced run wraps b4nls.observability.lanczos_extreme (bench/layers.py).
from .linalg import lanczos_extreme  # noqa: F401
from .dynamics import step_grid
from .hum import backward_forced_initial, time_average_kernel
from .spectral import (
    DampingProfile,
    ManifoldSpec,
    band_mode_mask,
    free_phase,
    kernel_blocks,
    profile_product,
)


# entries (band_dim^2) of the dense band Gramian a sweep may build: a band
# peaks at 49 B per entry (d2N64, j = 4 and 5: the time kernel, the weight
# block and eigvalsh's copy), so 2^24 entries (4,096 modes) stay below 0.9 GB.
MAX_BAND_ENTRIES = 2**24


@dataclass(frozen=True)
class GramianReport:
    h: float
    band_dim: int
    T: float
    min_eig: float
    max_eig: float


class BandGramian:
    """G restricted to a mode band, with matrix-free and dense routes.

    The weight is pointwise multiplication by weight_values, the grid
    samples of the smoothed indicator m; G is the trapezoid rule of
    int_0^T e^{-itL} m e^{itL} dt on the steps of `step_grid(T, quad_dt)`.
    """

    def __init__(
        self,
        spec: ManifoldSpec,
        weight_values: np.ndarray,
        T: float,
        quad_dt: float,
        band_idx: np.ndarray,
    ):
        self.spec = spec
        self.T = T
        self.quad_dt = quad_dt
        self.weight_values = np.asarray(weight_values, dtype=float)
        self.band_idx = np.asarray(band_idx, dtype=int)
        self.times = np.linspace(0.0, T, step_grid(T, quad_dt)[0] + 1)
        self.X = spec.dispersion.ravel()

    @property
    def band_dim(self) -> int:
        return len(self.band_idx)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free G restricted to the band (the oracle route): the
        sampled duality integral of m e^{itL} v over the nodes,
        G v = -i backward_forced_initial(m e^{itL} v)."""
        spec = self.spec
        full = np.zeros(spec.n_modes, dtype=complex)
        full[self.band_idx] = vec
        batch = (free_phase(self.times, self.X) * full).reshape((-1,) + spec.shape)
        samples = profile_product(spec, self.weight_values, batch)
        phases = free_phase(-self.times, spec.dispersion)
        return -1j * backward_forced_initial(phases, self.times, samples).ravel()[self.band_idx]

    def dense(self) -> np.ndarray:
        """Dense band matrix: the closed-form time kernel, multiplied in
        place by the weight's band block."""
        spec, idx = self.spec, self.band_idx
        G = time_average_kernel(self.X[idx], self.T, self.quad_dt)
        G *= kernel_blocks(
            spec, lambda f: profile_product(spec, self.weight_values, f), idx[None], idx[None],
        )[0]
        return G


def check_gramian_sweep(spec: ManifoldSpec, T: float, h_values, quad_dt: float) -> list:
    """The flat lattice indices of the band kappa(h^2 |k|^2) > 0 of each h;
    ValueError unless T >= 0 and quad_dt > 0 are finite and each band has a
    mode and a dense Gramian of at most MAX_BAND_ENTRIES entries."""
    if not 0.0 <= T < np.inf:
        raise ValueError(f"T must be >= 0 and finite, got {T}")
    if not 0.0 < quad_dt < np.inf:
        raise ValueError(f"quad_dt must be positive and finite, got {quad_dt}")
    bands = [np.flatnonzero(band_mode_mask(spec, h).ravel()) for h in h_values]
    for h, idx in zip(h_values, bands):
        if len(idx) == 0:
            raise ValueError(f"no lattice mode falls in the h = {h:g} band")
        if len(idx) ** 2 > MAX_BAND_ENTRIES:
            raise ValueError(f"the h = {h:g} band has {len(idx)} modes, over {MAX_BAND_ENTRIES} entries")
    return bands


def gramian_sweep(
    profile: DampingProfile,
    T: float,
    j_values,
    quad_dt: float = 1e-3,
) -> list[GramianReport]:
    """Gramian floors across the scales h = 2^{-j}, every band checked first
    and then built once from the indices check_gramian_sweep returned; both
    extreme eigenvalues come from eigvalsh of the dense closed-form band
    matrix."""
    h_values = [2.0 ** (-j) for j in j_values]
    reports = []
    for h, idx in zip(h_values, check_gramian_sweep(profile.spec, T, h_values, quad_dt)):
        g = BandGramian(profile.spec, profile.compact, T, quad_dt, idx)
        evals = np.linalg.eigvalsh(g.dense())
        reports.append(GramianReport(h=h, band_dim=g.band_dim, T=T, min_eig=float(evals[0]),
                                     max_eig=float(evals[-1])))
    return reports
