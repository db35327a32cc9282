"""Spectral fields and operator algebra on flat tori T^d, d = 1, 2 or 3.

Fields live on [0, 2pi)^d and are stored as coefficients against the
orthonormal exponential basis e_k(x) = exp(i k.x) / (2pi)^{d/2}, with the
frequency lattice {-N/2, ..., N/2-1}^d in ascending ("lattice") order.
With this normalization Parseval is exact: the L^2 norm of a field equals
the Euclidean norm of its coefficient array.

Lattice order and FFT order differ by a cyclic shift of N/2 along each axis
(N is even). The inverse FFT of the lattice array as stored therefore gives
(-1)^{j_1+...+j_d} u(x_j) instead of u(x_j), and the forward FFT of
(-1)^{j_1+...+j_d} g(x_j) gives the lattice-ordered coefficients of g. In a
product with a grid function, a(x) u, and in the phase-covariant map
u -> |u|^{2k} u, the sign goes in with u and comes out with the result, so
those kernels (profile_product, nonlinear_term) and the modulus quadrature of
the energy skip the fftshift/ifftshift copies. The shifted pair
coeffs_to_grid / grid_to_coeffs remains for grid values that a caller sees.

The control weight a (1-Lap)^{-2} (a u) is one kernel operation, sandwich:
the damping operator and the HUM operator both apply it. Dense blocks of a
kernel, M[rows, cols], come from one builder, kernel_rows, which applies
the kernel to KERNEL_BATCH fields per call; the damping operator's Ritz
basis, the HUM operator and the band Gramian are built through it.

Everything downstream (time integrators, control operators, Gramians,
space-time norms) is built from the Fourier multipliers defined here:

    -Laplacian          |k|^2
    bi-Laplacian        |k|^4
    dispersion generator |k|^4 + beta |k|^2
    smoothing (1-Lap)^-m (1 + |k|^2)^-m

All operations are pure; fields are immutable value objects.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .regions import (
    FullRegion,
    Region,
    TWO_PI,
    inside_depth,
    min_feature_size,
    validate_region,
)

SNAPSHOT_MAGIC = b"B4NLS1"
SNAPSHOT_TORUS = 0  # the only manifold kind byte a snapshot may carry


@dataclass(frozen=True)
class ManifoldSpec:
    """Discretized spectral description of the flat torus T^d.

    d in {1, 2, 3}; N even >= 8 modes per dimension; beta >= 0 weighs the
    second-order part of the dispersion |k|^4 + beta |k|^2. Every lattice
    quantity is one broadcast over the d axes, so no code path depends on d.
    """

    d: int
    N: int
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError("beta must be finite and >= 0")
        if self.d not in (1, 2, 3):
            raise ValueError("torus simulation supports d = 1, 2 or 3")
        if self.N % 2 != 0 or self.N < 8:
            raise ValueError("N must be even and >= 8")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def n_modes(self) -> int:
        return self.N**self.d

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one collocation cell, (2pi/N)^d."""
        return (TWO_PI / self.N) ** self.d

    @cached_property
    def k1d(self) -> np.ndarray:
        """Per-dimension frequencies in lattice order: -N/2 ... N/2-1."""
        return np.arange(-(self.N // 2), self.N // 2)

    @cached_property
    def grid1d(self) -> np.ndarray:
        return TWO_PI * np.arange(self.N) / self.N

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the full lattice, shaped (N,)*d: a sum of open meshes."""
        return sum(np.ix_(*[self.k1d.astype(float) ** 2] * self.d))

    @cached_property
    def k_box(self) -> np.ndarray:
        """max_i |k_i| on the full lattice, the norm the mode bands cut by."""
        return reduce(np.maximum, np.ix_(*[np.abs(self.k1d)] * self.d))

    @cached_property
    def dispersion(self) -> np.ndarray:
        """Multiplier of the generator: |k|^4 + beta |k|^2."""
        return self.k_sq**2 + self.beta * self.k_sq

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: modes with every |k_i| <= N/3 are kept."""
        return box_mask(self, self.N // 3)

    def grid_points(self) -> np.ndarray:
        """Collocation points, shape (N,)*d + (d,)."""
        axes = [self.grid1d] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def make_torus(d: int, N: int, beta: float) -> ManifoldSpec:
    return ManifoldSpec(d=d, N=N, beta=beta)


@dataclass(frozen=True)
class SpectralField:
    """One complex field, stored spectrally. Coefficients are read-only."""

    spec: ManifoldSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.spec.shape:
            raise ValueError(f"coeffs shape {c.shape} != lattice {self.spec.shape}")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("non-finite coefficient")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def zero_field(spec: ManifoldSpec) -> SpectralField:
    return SpectralField(spec, np.zeros(spec.shape, dtype=complex))


def _mode_index(spec: ManifoldSpec, k) -> tuple[int, ...]:
    ks = (k,) if np.isscalar(k) else tuple(k)
    if len(ks) != spec.d:
        raise ValueError(f"mode {k} has wrong dimension for d={spec.d}")
    idx = []
    for ki in ks:
        if not -(spec.N // 2) <= ki < spec.N // 2:
            raise ValueError(f"mode {k} outside the lattice")
        idx.append(int(ki) + spec.N // 2)
    return tuple(idx)


def basis_field(spec: ManifoldSpec, k, amplitude: complex = 1.0) -> SpectralField:
    """The basis exponential e_k (optionally scaled)."""
    c = np.zeros(spec.shape, dtype=complex)
    c[_mode_index(spec, k)] = amplitude
    return SpectralField(spec, c)


def random_field(
    spec: ManifoldSpec,
    rng: np.random.Generator,
    decay: float = 0.0,
    band: int | None = None,
) -> SpectralField:
    """Gaussian random field with coefficients ~ (1+|k|^2)^(-decay/2).

    band, if given, truncates the support to max_i |k_i| <= band.
    """
    re = rng.standard_normal(spec.shape)
    im = rng.standard_normal(spec.shape)
    c = (re + 1j * im) * (1.0 + spec.k_sq) ** (-decay / 2.0)
    if band is not None:
        c = np.where(box_mask(spec, band), c, 0.0)
    return SpectralField(spec, c)


# ---------------------------------------------------------------------------
# the spectral kernel: every grid operation of the package
# ---------------------------------------------------------------------------
#
# Each function acts on the trailing d axes, so a leading batch axis (time
# slices, quadrature nodes, trajectory records) passes through one FFT call.

def box_mask(spec: ManifoldSpec, band: int) -> np.ndarray:
    """Modes with every |k_i| <= band."""
    return spec.k_box <= band


# Passing s with axes spares numpy a per-call np.take on the shape, which
# costs more than a small FFT. Only the user-facing pair below reorders the
# lattice; the products after it skip the shift (see the module docstring).

def _axes(spec: ManifoldSpec) -> tuple[int, ...]:
    return tuple(range(-spec.d, 0))


def _grid_scale(spec: ManifoldSpec) -> float:
    """Grid values per unit of the inverse FFT: N^d / (2pi)^{d/2}."""
    return spec.n_modes / TWO_PI ** (spec.d / 2.0)


def coeffs_to_grid(spec: ManifoldSpec, coeffs: np.ndarray) -> np.ndarray:
    """Values on the collocation grid x_j = 2pi j / N of lattice coefficients."""
    axes = _axes(spec)
    shifted = np.fft.ifftshift(coeffs, axes=axes)
    return np.fft.ifftn(shifted, s=spec.shape, axes=axes) * _grid_scale(spec)


def grid_to_coeffs(spec: ManifoldSpec, values: np.ndarray) -> np.ndarray:
    """Lattice coefficients of grid values; inverse of coeffs_to_grid."""
    axes = _axes(spec)
    return np.fft.fftshift(np.fft.fftn(values, s=spec.shape, axes=axes), axes=axes) * (
        TWO_PI ** (spec.d / 2.0) / spec.n_modes
    )


def _signed_grid(spec: ManifoldSpec, coeffs: np.ndarray) -> np.ndarray:
    """(-1)^{j_1+...+j_d} u(x_j) / scale: the inverse FFT of the lattice
    array as it is stored, with neither the shift nor the scale."""
    return np.fft.ifftn(coeffs, s=spec.shape, axes=_axes(spec))


def _signed_coeffs(spec: ManifoldSpec, values: np.ndarray) -> np.ndarray:
    """Lattice coefficients, times the scale, of (-1)^{j_1+...+j_d} values."""
    return np.fft.fftn(values, s=spec.shape, axes=_axes(spec))


def _grid_modulus(spec: ManifoldSpec, coeffs: np.ndarray) -> np.ndarray:
    """|u(x_j)| on the collocation grid, for quadratures that see only the
    modulus; the sign of the unshifted transform drops out."""
    return np.abs(_signed_grid(spec, coeffs)) * _grid_scale(spec)


def nonlinear_term(spec: ManifoldSpec, coeffs: np.ndarray, k: int) -> np.ndarray:
    """Coefficients of |u|^{2k} u, evaluated pointwise on the grid.

    With v the signed, unscaled grid values and s the transform scale, the
    result is s^{2k} times the lattice coefficients of |v|^{2k} v: the signs
    cancel (|v| = |u| / s) and so do the scales.

    No dealiasing mask is applied; the flows apply spec.dealias_mask
    themselves, while the space-time product probes need the full product.
    """
    v = _signed_grid(spec, coeffs)
    return _signed_coeffs(spec, (np.abs(v) ** (2 * k)) * v) * _grid_scale(spec) ** (2 * k)


def profile_product(spec: ManifoldSpec, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of a(x) u for grid values a. The transform scale and its
    inverse cancel around the product, and so do the signs, so neither the
    scale nor the shift is applied."""
    return _signed_coeffs(spec, a * _signed_grid(spec, coeffs))


def sandwich(spec: ManifoldSpec, a: np.ndarray, m: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of a m (a u): the grid product by a, the lattice
    multiplier m, the grid product by a again. With m = (1-Lap)^{-2} this is
    the control weight, the damping operator D and the HUM weight A alike."""
    return profile_product(spec, a, m * profile_product(spec, a, coeffs))


# Fields per kernel call of kernel_rows: the transform temporaries stay the
# size of KERNEL_BATCH fields however many rows a block has.
KERNEL_BATCH = 8


def kernel_rows(
    spec: ManifoldSpec, kernel, x: np.ndarray, cols: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The kernel applied to each row of x, read on the flat lattice indices
    rows.

    A row of x holds a field's coefficients on the flat indices cols (zero
    elsewhere); kernel maps a stack of lattice fields to a stack. Row i of
    the result is (M x_i)[rows] for the matrix M of the kernel, so x the
    identity gives M[rows, cols]^T.
    """
    out = np.empty((len(x), len(rows)), dtype=complex)
    fields = np.zeros((KERNEL_BATCH, spec.n_modes), dtype=complex)
    for i in range(0, len(x), KERNEL_BATCH):
        chunk = x[i:i + KERNEL_BATCH]
        f = fields[:len(chunk)]
        f[:, cols] = chunk
        y = kernel(f.reshape((len(chunk),) + spec.shape))
        out[i:i + len(chunk)] = y.reshape(len(chunk), -1)[:, rows]
    return out


# ---------------------------------------------------------------------------
# norms and multipliers
# ---------------------------------------------------------------------------

def sobolev_weights(spec: ManifoldSpec, s: float) -> np.ndarray:
    return (1.0 + spec.k_sq) ** s


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm ( sum_k (1+|k|^2)^s |c_k|^2 )^{1/2}; s = 0 is Parseval."""
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    w = sobolev_weights(u.spec, s)
    return float(math.sqrt(np.sum(w * np.abs(u.coeffs) ** 2)))


def normalize_sobolev(u: SpectralField, s: float, value: float = 1.0) -> SpectralField:
    n = sobolev_norm(u, s)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    return SpectralField(u.spec, u.coeffs * (value / n))


def smoothing_multiplier(spec: ManifoldSpec, m: int = 2) -> np.ndarray:
    """(1 - Lap)^{-m}, the regularizing factor of the damping feedback."""
    return (1.0 + spec.k_sq) ** (-float(m))


def propagate_free(u: SpectralField, t: float) -> SpectralField:
    """Exact free flow: c_k -> exp(i t (|k|^4 + beta |k|^2)) c_k. Unitary."""
    phase = np.exp(1j * t * u.spec.dispersion)
    return SpectralField(u.spec, phase * u.coeffs)


# ---------------------------------------------------------------------------
# smooth cutoffs
# ---------------------------------------------------------------------------

def _exp_kernel(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    pos = x > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_ramp(x) -> np.ndarray:
    """C-infinity ramp: exactly 0 for x <= 0, exactly 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    f = _exp_kernel(x)
    g = _exp_kernel(1.0 - x)
    with np.errstate(invalid="ignore"):
        r = np.where(f + g > 0.0, f / np.where(f + g > 0.0, f + g, 1.0), 0.0)
    return r


def plateau_bump(s, lo: float, flat_lo: float, flat_hi: float, hi: float) -> np.ndarray:
    """C-infinity bump: 0 outside (lo, hi), 1 on [flat_lo, flat_hi]."""
    s = np.asarray(s, dtype=float)
    rise = smooth_ramp((s - lo) / (flat_lo - lo))
    fall = smooth_ramp((hi - s) / (hi - flat_hi))
    return rise * fall


def band_cutoff(s) -> np.ndarray:
    """The projector profile kappa: support [1/2, 5/2], equal to 1 on [1, 2]."""
    return plateau_bump(s, 0.5, 1.0, 2.0, 2.5)


def band_mode_mask(spec: ManifoldSpec, h: float) -> np.ndarray:
    """Modes with kappa(h^2 |k|^2) > 0 (the active annulus)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return band_cutoff(h * h * spec.k_sq) > 0.0


# ---------------------------------------------------------------------------
# damping / control profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingProfile:
    """Nonnegative smooth weight a(x) sampled on the collocation grid."""

    spec: ManifoldSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.shape:
            raise ValueError("profile values have wrong shape")
        if np.any(v < 0.0):
            raise ValueError("profile must be nonnegative")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def is_constant(self) -> bool:
        return bool(np.ptp(self.values) == 0.0)


def _region_profile(region: Region, pts: np.ndarray, width: float) -> np.ndarray:
    from .regions import Ball, RegionUnion, Strip  # local: avoid name clutter

    if isinstance(region, FullRegion):
        return np.ones(pts.shape[:-1])
    if isinstance(region, RegionUnion):
        # soft union 1 - prod(1 - a_i): stays C-infinity where parts overlap
        acc = np.ones(pts.shape[:-1])
        for p in region.parts:
            acc *= 1.0 - _region_profile(p, pts, width)
        return 1.0 - acc
    if isinstance(region, (Strip, Ball)):
        flat = pts.reshape(-1, pts.shape[-1])
        depth = np.array([inside_depth(region, tuple(p)) for p in flat])
        return smooth_ramp(depth / width).reshape(pts.shape[:-1])
    raise TypeError(f"unknown region {region!r}")


def make_damping_profile(
    spec: ManifoldSpec, region: Region, smoothing_width: float | None = None
) -> DampingProfile:
    """Smoothed indicator: 1 on the region eroded by the width, 0 outside.

    Default width is 5 grid cells; the region must be at least twice the
    width across, or the plateau would vanish.
    """
    validate_region(region, spec.d)
    if smoothing_width is None:
        smoothing_width = 5.0 * TWO_PI / spec.N
    if not smoothing_width > 0.0:
        raise ValueError(f"smoothing width must be positive, got {smoothing_width}")
    feature = min_feature_size(region)
    if not isinstance(region, FullRegion) and feature <= 2.0 * smoothing_width:
        raise ValueError(
            f"region feature size {feature:.4g} too small for smoothing width "
            f"{smoothing_width:.4g}"
        )
    pts = spec.grid_points()
    values = _region_profile(region, pts, smoothing_width)
    return DampingProfile(spec, values)


def constant_profile(spec: ManifoldSpec, value: float) -> DampingProfile:
    if value < 0.0:
        raise ValueError("damping value must be >= 0")
    return DampingProfile(spec, np.full(spec.shape, float(value)))


def multiply_profile(u: SpectralField, a: DampingProfile) -> SpectralField:
    """Pointwise multiplication by a(x), performed on the grid."""
    return SpectralField(u.spec, profile_product(u.spec, a.values, u.coeffs))


# ---------------------------------------------------------------------------
# snapshot persistence
# ---------------------------------------------------------------------------

def save_field(u: SpectralField, path) -> None:
    """Binary snapshot: magic, kind u8, d u8, N u32, beta f64, coeffs c128."""
    spec = u.spec
    header = SNAPSHOT_MAGIC + struct.pack(
        "<BBId", SNAPSHOT_TORUS, spec.d, spec.N, spec.beta
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.coeffs, dtype="<c16").tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        kind_code, d, N, beta = struct.unpack("<BBId", fh.read(14))
        if kind_code != SNAPSHOT_TORUS:
            raise ValueError(f"bad manifold kind byte {kind_code}")
        spec = ManifoldSpec(d=d, N=N, beta=beta)
        raw = fh.read(16 * spec.n_modes)
        if len(raw) != 16 * spec.n_modes:
            raise ValueError("truncated snapshot")
        coeffs = np.frombuffer(raw, dtype="<c16").reshape(spec.shape)
    return SpectralField(spec, coeffs.astype(complex))
