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

A product transforms only the lines it reads and writes. A profile
product transforms along the axes its profile varies on, no others: grid
multiplication by a(x) commutes with the transforms along an axis where a
is constant, so a strip across one axis costs one axis pass each way and a
constant profile none. DampingProfile.compact is the profile with every
constant axis cut to length 1, and profile_product reads the axes from its
array's shape. The dealiased cubic term, dealiased_nonlinear_term, takes
coefficients inside the 2/3-rule box and has two routes, chosen by the work
of one product, coeffs.size * n_modes. Up to DENSE_TERM_WORK = 2^12 complex
multiply-adds (one field at d = 1 with N <= 64, or d2N8) it is two products
with a cached pair of masked transform matrices and no FFT call, about a
third of the FFT route's time, equal to the masked product to roundoff.
Above that, the FFT route is the masked product bit for bit: its inverse
passes skip the lines that are zero outside the box, and its forward passes
compute only the lines the box keeps.

The control weight a (1-Lap)^{-2} (a u) is one kernel operation, sandwich:
the damping operator and the HUM operator both apply it. Dense blocks of a
kernel, M[rows, cols], come from one builder, kernel_rows, which applies
the kernel to KERNEL_BATCH fields per call; the damping operator's
blocks, the HUM operator and the band Gramian are built through it.

Every H^s norm of coefficients is hs_norm, and every free phase e^{itX}
over a dispersion array X is free_phase, except in the oracles
propagate_free and bourgain.tapered_free_solution.

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
from functools import cached_property, lru_cache, reduce

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

    band, if given, truncates the support to max_i |k_i| <= band; a
    negative band would leave no mode and is refused.
    """
    if band is not None and band < 0:
        raise ValueError(f"a mode band must be >= 0, got band = {band}")
    re = rng.standard_normal(spec.shape)
    im = rng.standard_normal(spec.shape)
    c = (re + 1j * im) * sobolev_weights(spec, -decay / 2.0)
    if band is not None:
        c = np.where(box_mask(spec, band), c, 0.0)
    return SpectralField(spec, c)


# ---------------------------------------------------------------------------
# the spectral kernel: every grid operation of the package
# ---------------------------------------------------------------------------
#
# Each function acts on the trailing d axes, so a leading batch axis (time
# slices, quadrature nodes, trajectory records) shares each FFT call.

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


def _ifft_axes(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The inverse FFT along axes. The hot transforms go one axis at a time,
    last axis first, as fftn does inside: the same values bit for bit,
    without fftn's per-call overhead."""
    return reduce(lambda x, axis: np.fft.ifft(x, axis=axis), axes[::-1], x)


def _fft_axes(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The forward FFT along axes, one axis at a time, last axis first."""
    return reduce(lambda x, axis: np.fft.fft(x, axis=axis), axes[::-1], x)


def _signed_grid(spec: ManifoldSpec, coeffs: np.ndarray) -> np.ndarray:
    """(-1)^{j_1+...+j_d} u(x_j) / scale: the inverse FFT of the lattice
    array as it is stored, with neither the shift nor the scale."""
    return _ifft_axes(coeffs, _axes(spec))


def _signed_coeffs(spec: ManifoldSpec, values: np.ndarray) -> np.ndarray:
    """Lattice coefficients, times the scale, of (-1)^{j_1+...+j_d} values."""
    return _fft_axes(values, _axes(spec))


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


def dealias_box(spec: ManifoldSpec) -> slice:
    """The lattice indices N/2 - N/3 ... N/2 + N/3 that spec.dealias_mask
    keeps along each axis, 2 floor(N/3) + 1 of them."""
    return slice(spec.N // 2 - spec.N // 3, spec.N // 2 + spec.N // 3 + 1)


# Complex multiply-adds per product at or below which the dealiased cubic
# term takes the dense route; it also caps each matrix of the pair at
# 2^12 entries, 64 KB.
DENSE_TERM_WORK = 2**12


@lru_cache(maxsize=16)
def _dense_term_pair(spec: ManifoldSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The dealiased cubic term's transforms as n_modes x n_modes matrices,
    tabulated by applying the kernel's own transforms to the identity, as
    kernel_rows tabulates a kernel. Row m of inv is the signed grid of e_m,
    zero for m outside spec.dealias_mask; row j of fwd is the signed
    coefficients of the grid delta at x_j times the scale^(2k), zero in the
    columns outside the mask. Built once per lattice and k, read-only."""
    n = spec.n_modes
    eye = np.eye(n, dtype=complex).reshape((n,) + spec.shape)
    drop = ~spec.dealias_mask.ravel()
    inv = _signed_grid(spec, eye).reshape(n, n)
    inv[drop] = 0.0
    fwd = _signed_coeffs(spec, eye).reshape(n, n) * _grid_scale(spec) ** (2 * k)
    fwd[:, drop] = 0.0
    inv.flags.writeable = fwd.flags.writeable = False
    return inv, fwd


def dealiased_nonlinear_term(spec: ManifoldSpec, coeffs: np.ndarray, k: int) -> np.ndarray:
    """nonlinear_term masked to spec.dealias_mask, for coeffs that vanish
    outside the mask, as the flows' states do. Entries outside the mask are
    exactly 0.0 on either route.

    Dense route, when coeffs.size * n_modes <= DENSE_TERM_WORK: two products
    with the cached pair _dense_term_pair, v = c inv and (|v|^{2k} v) fwd.
    The mask is folded into the matrices, so the route slices and scatters
    nothing, and it makes no FFT call: at a few dozen modes the FFT costs
    its fixed per-call overhead, not its arithmetic. Its sums run in
    another order than the FFT's, so it agrees with the masked
    nonlinear_term to roundoff (within 1e-14 of max |term|), not bit for bit.

    FFT route, everything larger: the masked nonlinear_term bit for bit.
    The mask is the box dealias_box on each axis, a slice of the stored
    array. Before an inverse pass, the axes it has yet to transform still
    hold zeros outside the box, so it transforms only the lines inside;
    each forward pass is cut to the box along its axis, so the next pass
    computes only the lines the mask keeps.

    The rule reads the work of one product, so the bench's d1N32 control
    march takes the dense route and its d2N32/d2N64 flows and hum's (1001, 32)
    batch the FFT route. Time per call, numpy 2.4 and OpenBLAS on one thread
    of a shared 2-core x86-64 VM, k = 1 (best of 5 timeit runs):

        call            work     FFT route   dense route
        d1N32           2^10      18 us        6 us
        d1N64           2^12      18 us        8 us
        d2N8            2^12      32 us        8 us
        d1N128          2^14      22 us       21 us
        d1N256          2^16      31 us       77 us
        (1001, 64)     ~2^22     0.89 ms     1.23 ms

    A single field still gains at d1N96 and breaks even near d1N128; the
    bound stops at 2^12 so that each matrix stays at 64 KB and batches stay
    on the FFT.
    """
    if coeffs.size * spec.n_modes <= DENSE_TERM_WORK:
        inv, fwd = _dense_term_pair(spec, k)
        v = coeffs.reshape(coeffs.shape[:coeffs.ndim - spec.d] + (-1,)) @ inv
        return (((v.real**2 + v.imag**2) ** k * v) @ fwd).reshape(coeffs.shape)
    box = dealias_box(spec)
    v = coeffs
    for done, axis in enumerate(_axes(spec)[::-1]):
        boxed = spec.d - 1 - done  # the leading axes, not yet transformed
        if boxed:
            lines = (Ellipsis,) + (box,) * boxed + (slice(None),) * (done + 1)
            out = np.zeros(v.shape, dtype=complex)
            out[lines] = np.fft.ifft(v[lines], axis=axis)
            v = out
        else:
            v = np.fft.ifft(v, axis=axis)
    w = (np.abs(v) ** (2 * k)) * v
    for axis in _axes(spec)[::-1]:
        w = np.fft.fft(w, axis=axis)[(Ellipsis, box) + (slice(None),) * (-1 - axis)]
    out = np.zeros(coeffs.shape, dtype=complex)
    out[(Ellipsis,) + (box,) * spec.d] = w * _grid_scale(spec) ** (2 * k)
    return out


def profile_product(spec: ManifoldSpec, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of a(x) u for grid values a, shaped (N,)*d or in the
    compact form of DampingProfile.compact. The product transforms only the
    axes along which a has more than one value: along the others it
    commutes with the transform pair. The transform scale and its inverse
    cancel around the product, and so do the signs, so neither the scale
    nor the shift is applied."""
    axes = tuple(axis for axis in _axes(spec) if a.shape[axis] > 1)
    return _fft_axes(a * _ifft_axes(coeffs, axes), axes)


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


def block_layout(profile: DampingProfile, modes: np.ndarray) -> np.ndarray:
    """The flat indices modes of a lattice cube of side m, in lattice order,
    as m^(d-v) rows of m^v: the cube ordered as (the profile's constant
    axes, the v axes it varies on). A kernel of grid products with the
    profile is diagonal in the constant axes' wavenumbers: no row maps
    into another."""
    d = profile.spec.d
    varying = [axis for axis in range(d) if profile.compact.shape[axis] > 1]
    order = [axis for axis in range(d) if axis not in varying] + varying
    m = round(len(modes) ** (1.0 / d))
    return modes.reshape((m,) * d).transpose(order).reshape(-1, m ** len(varying))


def blockwise(blocks: np.ndarray, layout: np.ndarray, c: np.ndarray) -> np.ndarray:
    """blocks[j] applied to c on the flat indices layout[j], for each row j
    of a block_layout; zero off the layout."""
    out = np.zeros(c.shape, dtype=complex)
    out.reshape(-1)[layout] = (blocks @ c.reshape(-1)[layout][..., None])[..., 0]
    return out


# ---------------------------------------------------------------------------
# norms and multipliers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def sobolev_weights(spec: ManifoldSpec, s: float) -> np.ndarray:
    """(1+|k|^2)^s on the lattice, computed once per (spec, s): read-only."""
    w = (1.0 + spec.k_sq) ** s
    w.flags.writeable = False
    return w


def hs_norm(spec: ManifoldSpec, coeffs: np.ndarray, s: float) -> float:
    """H^s norm (sum_k (1+|k|^2)^s |c_k|^2)^{1/2}; NaN stays NaN (no SpectralField)."""
    return math.sqrt(float(np.sum(sobolev_weights(spec, s) * np.abs(coeffs) ** 2)))


def sobolev_norm(u: SpectralField, s: float) -> float:
    """The H^s norm of a field."""
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    return hs_norm(u.spec, u.coeffs, s)


def normalize_sobolev(u: SpectralField, s: float, value: float = 1.0) -> SpectralField:
    """u scaled to H^s norm value; a negative value would flip its sign."""
    if not value >= 0.0:
        raise ValueError(f"a norm must be >= 0, got {value}")
    n = sobolev_norm(u, s)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    return SpectralField(u.spec, u.coeffs * (value / n))


def smoothing_multiplier(spec: ManifoldSpec, m: int = 2) -> np.ndarray:
    """(1 - Lap)^{-m}, the regularizing factor of the damping feedback."""
    return sobolev_weights(spec, -float(m))


def free_phase(t, X: np.ndarray) -> np.ndarray:
    """e^{itX} over a dispersion array X, shaped as X for a scalar time t and
    (len(t),) + X.shape for an array of times; exp runs in place."""
    t = np.asarray(t)
    phase = 1j * t.reshape(t.shape + (1,) * X.ndim) * X
    return np.exp(phase, out=phase)


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

    @cached_property
    def compact(self) -> np.ndarray:
        """The values as an open mesh: every axis along which they are
        exactly equal is cut to length 1, so a strip across axis 0 at d = 2
        is (N, 1), a constant profile (1, 1), a ball (N, N). Grid products
        broadcast it and transform only its long axes (profile_product)."""
        v = self.values
        for axis in range(v.ndim):
            first = v.take([0], axis=axis)
            if np.array_equal(v, np.broadcast_to(first, v.shape)):
                v = first
        v.flags.writeable = False
        return v


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
