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
the energy skip the fftshift/ifftshift copies: no route reorders the lattice.

A product transforms only the lines it reads and writes. A profile
product transforms along the axes its profile varies on, no others: grid
multiplication by a(x) commutes with the transforms along an axis where a
is constant, so a strip across one axis costs one axis pass each way and a
constant profile none. DampingProfile.compact is the profile with every
constant axis cut to length 1, and profile_product reads the axes from its
array's shape.

A flow carries one box array: the m^d coefficients, m = 2 floor(N/3) + 1,
of the 2/3-rule box that spec.dealias_mask keeps, cut from a lattice
array by spec.box and kept in lattice order. Its dealiased cubic term,
dealiased_term_kernel, maps one box array to another, by a separable
dense route on small lattices and an FFT route, the masked product bit
for bit, on the rest, as dense_term_route reads from the lattice alone.
Every route takes |v|^{2k} v from one helper: the cube as v conj(v) v.

The control weight a (1-Lap)^{-2} (a u) is one kernel operation, sandwich,
which owns its multiplier: the damping operator and the HUM operator both
apply it. Other powers of (1 - Lap) are sobolev_weights(spec, -m). A grid
product with a profile maps no mode into one that differs from it on an
axis where the profile is constant, so its matrix falls into blocks: one
type, KernelBlocks, holds them for the damped flow's J and HUM's A and
Lambda, and gathers, scatters and applies them by cuts and transposes of
the band cube. Its blocks and the band Gramian's weight (one group, an
annulus) are tabulated by kernel_blocks, one apply per mode of a group.

Every H^s norm of coefficients is hs_norm, and every free phase e^{itX}
over a dispersion array X is free_phase.

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
import os
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .regions import (
    FullRegion,
    Region,
    RegionUnion,
    TWO_PI,
    inside_depth,
    min_feature_size,
    validate_region,
)

SNAPSHOT_MAGIC = b"B4NLS1"
SNAPSHOT_TORUS = 0  # the only manifold kind byte a snapshot may carry
SNAPSHOT_HEADER = struct.Struct("<BBId")  # after the magic: kind, d, N, beta


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

    @cached_property
    def box(self) -> tuple:
        """Index of the modes dealias_mask keeps, the 2/3-rule box of side
        m = 2 floor(N/3) + 1: c[spec.box] of a lattice array (or a stack of
        them) is its box array, shaped (..., m)*d, in lattice order."""
        return (Ellipsis,) + (dealias_box(self),) * self.d

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
# Each function but dealiased_term_kernel acts on the trailing d axes, so a
# leading batch axis (time slices, quadrature nodes, records) shares each FFT call.

def box_mask(spec: ManifoldSpec, band: int) -> np.ndarray:
    """Modes with every |k_i| <= band."""
    return spec.k_box <= band


# The products below skip the lattice shift (see the module docstring).

def _axes(spec: ManifoldSpec) -> tuple[int, ...]:
    return tuple(range(-spec.d, 0))


def _grid_scale(spec: ManifoldSpec) -> float:
    """Grid values per unit of the inverse FFT: N^d / (2pi)^{d/2}."""
    return spec.n_modes / TWO_PI ** (spec.d / 2.0)


def _ifft_axes(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The inverse FFT along axes. The hot transforms go one axis at a time,
    last axis first, as fftn does inside: the same values bit for bit,
    without fftn's per-call overhead."""
    return reduce(lambda x, axis: np.fft.ifft(x, axis=axis), axes[::-1], x)


def _fft_axes(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The forward FFT along axes, one axis at a time, last axis first."""
    return reduce(lambda x, axis: np.fft.fft(x, axis=axis), axes[::-1], x)


def _grid_modulus(spec: ManifoldSpec, coeffs: np.ndarray) -> np.ndarray:
    """|u(x_j)| on the collocation grid, for quadratures that see only the
    modulus; the sign of the unshifted transform drops out."""
    return np.abs(_ifft_axes(coeffs, _axes(spec))) * _grid_scale(spec)


def _power_term(v: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """|v|^{2k} v pointwise for every term route, into out if given; the
    cube (k = 1) as v conj(v) v, with no modulus: no square root, at about
    half the cost."""
    return np.multiply(v * v.conj() if k == 1 else np.abs(v) ** (2 * k), v, out=out)


def nonlinear_term(spec: ManifoldSpec, coeffs: np.ndarray, k: int) -> np.ndarray:
    """Coefficients of |u|^{2k} u, evaluated pointwise on the grid.

    With v = (-1)^{j_1+...+j_d} u(x_j) / s the signed, unscaled grid values,
    the inverse FFT of the lattice array as it is stored, and s the
    transform scale, the result is s^{2k} times the lattice coefficients of
    |v|^{2k} v: the signs cancel (|v| = |u| / s) and so do the scales.

    No dealiasing mask is applied; the flows apply spec.dealias_mask
    themselves, while the space-time product probes need the full product.
    """
    axes = _axes(spec)
    v = _ifft_axes(coeffs, axes)
    return _fft_axes(_power_term(v, k), axes) * _grid_scale(spec) ** (2 * k)


def dealias_box(spec: ManifoldSpec) -> slice:
    """The lattice indices N/2 - N/3 ... N/2 + N/3 that spec.dealias_mask
    keeps along each axis, 2 floor(N/3) + 1 of them."""
    return slice(spec.N // 2 - spec.N // 3, spec.N // 2 + spec.N // 3 + 1)


def dense_term_route(spec: ManifoldSpec) -> bool:
    """Whether dealiased_term_kernel takes its dense route on spec's
    lattice: whether N is at most the break-even of one field at spec.d,
    the last even N at which the dense call beat the FFT's (the table in
    dealiased_term_kernel's docstring)."""
    return spec.N <= {1: 158, 2: 38, 3: 26}[spec.d]


@lru_cache(maxsize=16)
def _dense_term_axis(spec: ManifoldSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense route's transforms along one axis, tabulated by applying
    the kernel's own one-axis transforms to the identity: row i of the
    (m, N) matrix inv is the inverse FFT of the box's i-th line, row j of
    the (N, m) matrix fwd the box's entries of the forward FFT of the grid
    delta at x_j, times (N / sqrt(2pi))^(2k), one axis's share of the
    scale^(2k). Every axis shares them. Built once per lattice and k,
    read-only."""
    eye = np.eye(spec.N, dtype=complex)
    lines = dealias_box(spec)
    inv = np.fft.ifft(eye[lines], axis=-1)
    fwd = np.fft.fft(eye, axis=-1)[:, lines] * (spec.N / math.sqrt(TWO_PI)) ** (2 * k)
    inv.flags.writeable = fwd.flags.writeable = False
    return inv, fwd


def _dense_term(spec: ManifoldSpec, k: int):
    """The dense route. Each pass is one matmul along one axis: the last
    axis as x @ inv, every other as inv.T @ x on x reshaped to (..., m,
    N^j), the axes after it already on the grid, so the inverse ends on
    (N, N^(d-1)). The forward passes run first axis first, the last axis
    last as w @ fwd, which leaves the box array. At d = 1 both loops are
    empty: two products and the pointwise power."""
    inv, fwd = _dense_term_axis(spec, k)
    N, d, m = spec.N, spec.d, len(inv)
    to_grid = [(m,) * (d - 1 - j) + (m, N**j) for j in range(1, d)]
    to_box = [(m,) * i + (N, N ** (d - 1 - i)) for i in range(d - 1)]
    inv_t, fwd_t = inv.T, fwd.T

    def dense(box: np.ndarray) -> np.ndarray:
        v = box @ inv
        for grouping in to_grid:
            v = inv_t @ v.reshape(grouping)
        w = _power_term(v, k)
        for grouping in to_box:
            w = fwd_t @ w.reshape(grouping)
        return w @ fwd

    return dense


def _fft_term(spec: ManifoldSpec, k: int):
    """The FFT route, with every buffer made here. Inverse pass j
    transforms axis -1 - j of a buffer that holds the box along the axes
    still to transform and zeros around it on the N lines of the others;
    it writes straight into the box lines of the next pass's buffer, and
    the last pass into the grid. Forward pass j writes into its own
    buffer, whose box lines along its axis are the next pass's input. A
    call copies the box in, and its result out."""
    N, d, m = spec.N, spec.d, 2 * (spec.N // 3) + 1
    at = [(Ellipsis, dealias_box(spec)) + (slice(None),) * j for j in range(d)]
    pads = [np.zeros((m,) * (d - 1 - j) + (N,) * (j + 1), dtype=complex) for j in range(d)]
    grid = np.empty((N,) * d, dtype=complex)
    inv_out = [pad[lines] for pad, lines in zip(pads[1:], at[1:])] + [grid]
    fwd_out = [np.empty((N,) * (d - j) + (m,) * j, dtype=complex) for j in range(d)]
    first = pads[0][at[0]]
    axes = _axes(spec)[::-1]
    scale = _grid_scale(spec) ** (2 * k)

    def fft(box: np.ndarray) -> np.ndarray:
        first[...] = box
        for pad, out, axis in zip(pads, inv_out, axes):
            np.fft.ifft(pad, axis=axis, out=out)
        w = _power_term(grid, k)
        for out, lines, axis in zip(fwd_out, at, axes):
            w = np.fft.fft(w, axis=axis, out=out)[lines]
        return w * scale

    return fft


def dealiased_term_kernel(spec: ManifoldSpec, k: int):
    """nonlinear_term masked to spec.dealias_mask, as a map of one box
    array to another: the coefficients of the 2/3-rule box, c[spec.box] of
    a lattice array c, shaped (m,)*d. A flow's state and its term live
    there. The route is the one dense_term_route picks, with its matrices
    or buffers fetched once, here: a march builds it before its loop and
    calls it at every stage.

    Dense route, when dense_term_route says so: separable products with
    one cached pair of one-axis matrices, v = c inv along each axis onto
    the grid and (|v|^{2k} v) fwd along each axis back onto the box. It
    makes no FFT call: at a few thousand grid points the FFT's calls cost
    their fixed overhead, not their arithmetic. Its sums run in another
    order than the FFT's, so it agrees with the masked nonlinear_term to
    roundoff (within 1e-14 of max |term|), not bit for bit.

    FFT route, everything larger: the masked nonlinear_term bit for bit.
    Each inverse pass pads its input with zeros to the N lines of its axis,
    which is where the box sits in the lattice, and transforms only the
    lines inside the box along the axes still to transform; each forward
    pass is cut to the box along its axis, so the next pass computes only
    the lines the mask keeps, and the last leaves the box array itself.

    The rule sends the bench's fields at d1N32 (control) and d2N32
    (stabilize, control) to the dense route, d2N64 (simulate) to the FFT
    route. Time per call of a kernel built once, on one box array, numpy
    2.4 and OpenBLAS on one thread of a shared 2-core x86-64 VM, k = 1
    (best of 7 timeit runs, the lowest of 3 interleaved sets):

        call             FFT route   dense route   route
        d1N32 (21,)         11 us         3 us      dense
        d1N128 (85,)        13 us        10 us      dense
        d1N158 (105,)       20 us        13 us      dense
        d1N160 (107,)       14 us        14 us      FFT
        d1N220 (147,)       15 us        23 us      FFT
        d2N8 (5, 5)         20 us         8 us      dense
        d2N32 (21, 21)      35 us        30 us      dense
        d2N38 (25, 25)      61 us        42 us      dense
        d2N40 (27, 27)      42 us        45 us      FFT
        d2N64 (43, 43)      74 us       123 us      FFT
        d3N16 (11,)*3      106 us       102 us      dense
        d3N24 (17,)*3      338 us       303 us      dense
        d3N26 (17,)*3      554 us       378 us      dense
        d3N28 (19,)*3      448 us       468 us      FFT

    An N with a large prime factor slows the FFT: the last dense lattices,
    d1N158, d2N38 and d3N26, are 2 x 79, 2 x 19 and 2 x 13.
    """
    return (_dense_term if dense_term_route(spec) else _fft_term)(spec, k)


def profile_product(spec: ManifoldSpec, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of a(x) u for grid values a, shaped (N,)*d or in the
    compact form of DampingProfile.compact. The product transforms only the
    axes along which a has more than one value: along the others it
    commutes with the transform pair. The transform scale and its inverse
    cancel around the product, and so do the signs, so neither the scale
    nor the shift is applied."""
    axes = tuple(axis for axis in _axes(spec) if a.shape[axis] > 1)
    return _fft_axes(a * _ifft_axes(coeffs, axes), axes)


def sandwich(spec: ManifoldSpec, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of a (1-Lap)^{-2} (a u), the control weight: the grid
    product by a, the lattice multiplier (1 + |k|^2)^{-2}, the grid product
    by a again. The damping operator D and the HUM weight A alike."""
    return profile_product(spec, a, sobolev_weights(spec, -2.0) * profile_product(spec, a, coeffs))


# Fields per kernel call of kernel_blocks: the transform temporaries stay the
# size of KERNEL_BATCH fields however wide a block is.
KERNEL_BATCH = 8

# Entries of one stack of blocks (64 MiB of complex), the one cap on what a
# kernel's blocks may hold, checked by KernelBlocks before it probes: the
# damped flow's J and its inverse, HUM's A and Lambda. Near it, on a 2-core
# Xeon VM with one BLAS thread: a d2N64 ball damping operator, one block of
# 43^2 modes, takes 2.2 s to build and 13 ms per ETDRK4 step; unbanded
# d1N2048 control, one block of 2048 (cond 5.8e11 on the default strip),
# 1.1 s to build and 11-14 s for its eigh.
MAX_BLOCK_ENTRIES = 2**22


def check_block_entries(entries: int, what: str, advice: str) -> None:
    """ValueError if a stack of blocks would hold over MAX_BLOCK_ENTRIES."""
    if entries > MAX_BLOCK_ENTRIES:
        raise ValueError(f"{what} need {entries} entries ({32 * entries} bytes for two "
                         f"stacks), above the cap of {MAX_BLOCK_ENTRIES}; {advice}")


def kernel_blocks(spec: ManifoldSpec, kernel, layout: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The stack of blocks M[rows[j], layout[j]] of the matrix M of a kernel
    (a map of stacks of lattice fields) that maps the flat indices layout[j]
    of each group j into rows[j] alone. Probe field i is 1 on layout[j, i]
    for every j, so layout.shape[1] applies, KERNEL_BATCH fields per call,
    give every block."""
    size = layout.shape[1]
    out = np.empty(rows.shape + (size,), dtype=complex)
    for i in range(0, size, KERNEL_BATCH):
        probe = layout[:, i:i + KERNEL_BATCH].T
        fields = np.zeros((len(probe), spec.n_modes), dtype=complex)
        fields[np.arange(len(probe))[:, None], probe] = 1.0
        y = kernel(fields.reshape((len(probe),) + spec.shape)).reshape(len(probe), -1)
        out[..., i:i + len(probe)] = np.moveaxis(y[:, rows], 0, -1)
    return out


def _moved(lead: int, axes: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose that permutes the axes after the first lead by axes."""
    return tuple(range(lead)) + tuple(lead + axis for axis in axes)


class KernelBlocks:
    """The blocks of a kernel of grid products with a profile (the control
    weight, say) on the modes with every |k_i| <= band, all for None.

    In block order, the profile's constant axes first, the band cube (side
    m) falls into groups of m^v modes that share their wavenumbers there (v
    varying axes), and the kernel maps each group into its rows, the n^v
    modes that share them; stack holds M[rows, columns] per group, (groups,
    n^v, m^v). Arrays are lattice arrays, or box arrays with box=True.
    gather cuts an array, or a stack of them, to the columns (or rows),
    transposes it into block order and reshapes it to (..., groups, m^v);
    scatter undoes that, into zeros, or as the transposed view when the cut
    is the whole array. The constructor refuses blocks above
    MAX_BLOCK_ENTRIES, then tabulates kernel, if given, by kernel_blocks.
    """

    def __init__(self, profile: DampingProfile, band: int | None = None, box: bool = False,
                 kernel=None):
        spec, shape = profile.spec, profile.compact.shape
        self.axes = tuple(sorted(range(spec.d), key=lambda axis: shape[axis] > 1))
        self.back = tuple(np.argsort(self.axes).tolist())
        n = 2 * (spec.N // 3) + 1 if box else spec.N
        self.shape, self.constant = (n,) * spec.d, shape.count(1)
        whole = band is None or band >= n // 2
        cube = slice(None) if whole else slice(n // 2 - band, n // 2 + band + 1)
        self._cuts = {}  # entries of a group -> (index, sides in block order)
        for cut in ((cube,) * spec.d, tuple(cube if side == 1 else slice(None) for side in shape)):
            sides = tuple(len(range(n)[cut[axis]]) for axis in self.axes)
            self._cuts[math.prod(sides[self.constant:])] = ((Ellipsis,) + cut, sides)
        self.groups = math.prod(sides[:self.constant])
        self.width, self.height = min(self._cuts), max(self._cuts)
        self.entries = self.groups * self.height * self.width  # of one stack
        check_block_entries(self.entries, "the operator's blocks",
                            "use a profile constant along more axes, or a smaller N"
                            + ("" if box else ", or a narrower band"))
        self.stack = None
        if kernel is not None:
            modes = np.arange(spec.n_modes).reshape(spec.shape)
            modes = modes[spec.box] if box else modes
            self.stack = kernel_blocks(spec, kernel, self.gather(modes),
                                       self.gather(modes, rows=True))

    def gather(self, x: np.ndarray, rows: bool = False) -> np.ndarray:
        """x's columns (or rows) by groups, (..., groups, m^v (or n^v))."""
        length = self.height if rows else self.width
        lead = x.ndim - len(self.shape)
        x = x[self._cuts[length][0]].transpose(_moved(lead, self.axes))
        return x.reshape(x.shape[:lead] + (-1, length))

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """The arrays of y, given by groups on the columns or on the rows
        (as its last axis says), zero elsewhere."""
        index, sides = self._cuts[y.shape[-1]]
        lead = y.ndim - 2
        x = y.reshape(y.shape[:lead] + sides).transpose(_moved(lead, self.back))
        if x.shape[lead:] == self.shape:
            return x
        out = np.zeros(y.shape[:lead] + self.shape, dtype=complex)
        out[index] = x
        return out

    def apply(self, stack: np.ndarray, w: np.ndarray) -> np.ndarray:
        """stack (the kernel's blocks or any on its groups) applied to w,
        (..., groups, m^v), and scattered: one vector as (groups, n^v, m^v)
        @ (groups, m^v, 1), a stack of L as (groups, L, m^v) @ stack^T.
        Blocks of one mode (a constant profile) are an elementwise product,
        by einsum, whose complex products round as matmul's do."""
        if self.height == self.width == 1:
            return self.scatter(np.einsum("gi,...gi->...gi", stack[..., 0], w))
        if w.ndim == 2:
            return self.scatter((stack @ w[..., None])[..., 0])
        lead = w.shape[:-2]
        y = np.moveaxis(w, -2, 0).reshape(self.groups, -1, w.shape[-1]) @ np.swapaxes(stack, 1, 2)
        return self.scatter(np.moveaxis(y.reshape((self.groups,) + lead + (-1,)), 0, -2))

    def own(self, stack: np.ndarray) -> np.ndarray:
        """The rows of each block in its own columns, M[S, S]'s blocks for S
        the cube: a view of stack unless the band cuts two varying axes."""
        if self.height == self.width:
            return stack
        (index, _), (_, sides), c = self._cuts[self.width], self._cuts[self.height], self.constant
        rows = stack.reshape((self.groups,) + sides[c:] + (self.width,))
        rows = rows[(slice(None),) + tuple(index[1 + axis] for axis in self.axes[c:])]
        return rows.reshape(self.groups, self.width, self.width)


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


def free_phase(t, X: np.ndarray) -> np.ndarray:
    """e^{itX} over a dispersion array X, shaped as X for a scalar time t and
    (len(t),) + X.shape for an array of times; exp runs in place."""
    t = np.asarray(t)
    phase = 1j * t.reshape(t.shape + (1,) * X.ndim) * X
    return np.exp(phase, out=phase)


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
    if isinstance(region, RegionUnion):
        # soft union 1 - prod(1 - a_i): stays C-infinity where parts overlap
        acc = np.ones(pts.shape[:-1])
        for p in region.parts:
            acc *= 1.0 - _region_profile(p, pts, width)
        return 1.0 - acc
    return smooth_ramp(inside_depth(region, pts) / width)  # the full torus's depth is inf: 1


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
    return DampingProfile(spec, _region_profile(region, spec.grid_points(), smoothing_width))


# ---------------------------------------------------------------------------
# snapshot persistence
# ---------------------------------------------------------------------------

def save_field(u: SpectralField, path) -> None:
    """Binary snapshot: magic, kind u8, d u8, N u32, beta f64, coeffs c128."""
    spec = u.spec
    header = SNAPSHOT_MAGIC + SNAPSHOT_HEADER.pack(SNAPSHOT_TORUS, spec.d, spec.N, spec.beta)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.coeffs, dtype="<c16").tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        header = fh.read(SNAPSHOT_HEADER.size)
        if len(header) != SNAPSHOT_HEADER.size:
            raise ValueError(f"truncated snapshot header: {len(header)} of "
                             f"{SNAPSHOT_HEADER.size} bytes after the magic")
        kind_code, d, N, beta = SNAPSHOT_HEADER.unpack(header)
        if kind_code != SNAPSHOT_TORUS:
            raise ValueError(f"bad manifold kind byte {kind_code}")
        spec = ManifoldSpec(d=d, N=N, beta=beta)
        # the header's size is checked against the file before any read
        if os.fstat(fh.fileno()).st_size - fh.tell() < 16 * spec.n_modes:
            raise ValueError("truncated snapshot")
        coeffs = np.frombuffer(fh.read(16 * spec.n_modes), dtype="<c16").reshape(spec.shape)
    return SpectralField(spec, coeffs.astype(complex))
