import ast
import itertools
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import b4nls as b
from b4nls.cli import _build_spec, _load_config
from b4nls.dynamics import energy
from b4nls.hum import multiplication_matrix
from b4nls.regions import contains, inside_depth
from b4nls.spectral import (
    KERNEL_BATCH,
    KernelBlocks,
    SNAPSHOT_HEADER,
    _fft_axes,
    _ifft_axes,
    band_cutoff,
    band_mode_mask,
    box_mask,
    _mode_index,
    _power_term,
    dealiased_term_kernel,
    dense_term_route,
    free_phase,
    hs_norm,
    kernel_blocks,
    nonlinear_term,
    profile_product,
    sandwich,
    smooth_ramp,
    sobolev_weights,
)
from oracles import coeffs_to_grid, grid_to_coeffs, operator_layout, propagate_free

PI = math.pi


def dealiased_nonlinear_term(spec, box, k):
    """The dealiased cubic term of a box array, by a kernel built for its lattice."""
    return dealiased_term_kernel(spec, k)(box)


def rand_field(spec, seed, decay=2.0):
    return b.random_field(spec, np.random.default_rng(seed), decay=decay)


def coeff(c, spec, k):
    """The coefficient of mode k in a lattice array."""
    return complex(c[_mode_index(spec, k)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_torus_1d():
    spec = b.make_torus(1, 64, 1.0)
    assert spec.n_modes == 64
    assert spec.k1d[0] == -32 and spec.k1d[-1] == 31


def test_make_torus_2d_multiplier():
    spec = b.make_torus(2, 16, 0.0)
    assert spec.n_modes == 256
    assert np.allclose(spec.dispersion, spec.k_sq**2)


def test_make_torus_rejects_odd_n():
    with pytest.raises(ValueError, match="even"):
        b.make_torus(1, 7, 1.0)


def test_make_torus_rejects_small_and_negative():
    with pytest.raises(ValueError):
        b.make_torus(1, 6, 1.0)
    with pytest.raises(ValueError):
        b.make_torus(1, 64, -0.5)
    with pytest.raises(ValueError):
        b.make_torus(4, 16, 1.0)
    with pytest.raises(ValueError):
        b.make_torus(0, 16, 1.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_sobolev_basis_mode():
    spec = b.make_torus(1, 64, 1.0)
    e1 = b.basis_field(spec, 1)
    assert b.sobolev_norm(e1, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_sobolev_zero_is_parseval():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 0)
    assert b.sobolev_norm(u, 0.0) == pytest.approx(
        float(np.linalg.norm(u.coeffs)), rel=1e-12
    )


def test_sobolev_two_modes():
    spec = b.make_torus(1, 64, 1.0)
    u = b.SpectralField(
        spec, b.basis_field(spec, 0).coeffs + b.basis_field(spec, 2).coeffs
    )
    assert b.sobolev_norm(u, 1.0) == pytest.approx(math.sqrt(6.0), rel=1e-14)


@pytest.mark.parametrize("s", [-2.0, 0.0, 2.0])
def test_coefficient_norm_is_the_field_norm_and_keeps_nan(s):
    spec = b.make_torus(2, 16, 1.0)
    u = rand_field(spec, 7)
    assert hs_norm(spec, u.coeffs, s) == b.sobolev_norm(u, s)
    # a NaN or inf state reaches the flows' blow-up guard as a norm, not as
    # the ValueError of a SpectralField
    bad = u.coeffs.copy()
    bad[3, 4] = np.nan
    assert math.isnan(hs_norm(spec, bad, s))
    bad[3, 4] = np.inf
    assert hs_norm(spec, bad, s) == math.inf


def test_sobolev_weights_are_cached_read_only_and_norms_unchanged():
    # the weights are computed once per (spec, s); the norm is the sum it
    # was when hs_norm computed them on every call, bit for bit
    for d, N in [(1, 32), (2, 16), (3, 8)]:
        spec = b.make_torus(d, N, 1.0)
        for s in (-2.0, 0.5, 2.0):
            w = sobolev_weights(spec, s)
            assert sobolev_weights(spec, s) is w
            with pytest.raises(ValueError, match="read-only"):
                w[(0,) * d] = 0.0
            u = rand_field(spec, d)
            expect = math.sqrt(float(np.sum((1.0 + spec.k_sq) ** s * np.abs(u.coeffs) ** 2)))
            assert hs_norm(spec, u.coeffs, s) == expect


def test_normalize_sobolev_refuses_a_negative_norm():
    # a negative value scaled the field by a negative factor: its norm was
    # |value| and its sign flipped; zero gives the zero field
    u = rand_field(b.make_torus(1, 32, 1.0), 0)
    with pytest.raises(ValueError, match="must be >= 0"):
        b.normalize_sobolev(u, 2.0, -1.0)
    assert not np.any(b.normalize_sobolev(u, 2.0, 0.0).coeffs)


def test_random_field_refuses_a_negative_band():
    # it drew the zero field, which the CLI then failed to normalize
    with pytest.raises(ValueError, match="band must be >= 0"):
        b.random_field(b.make_torus(1, 32, 1.0), np.random.default_rng(0), band=-1)


@st.composite
def _fields(draw, entry=st.complex_numbers(allow_nan=False, allow_infinity=False)):
    """A field on a drawn lattice, d in {1, 2, 3} and even N <= 16, with
    hypothesis-drawn coefficients."""
    d = draw(st.integers(1, 3))
    N = draw(st.sampled_from([8, 10, 12, 14, 16]))
    beta = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    coeffs = draw(arrays(np.complex128, (N,) * d, elements=entry, fill=entry))
    return b.SpectralField(b.make_torus(d, N, beta), coeffs)


# squares of the entries stay clear of overflow and of the subnormal range
@settings(max_examples=60, deadline=None)
@given(_fields(st.just(0j) | st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e100)))
def test_parseval_grid_quadrature(u):
    vals = coeffs_to_grid(u.spec, u.coeffs)
    quad = float(np.sum(np.abs(vals) ** 2) * u.spec.cell_volume)
    norm_sq = float(np.linalg.norm(u.coeffs) ** 2)
    assert abs(quad - norm_sq) <= 1e-12 * norm_sq


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_dispersion_on_basis_mode():
    spec = b.make_torus(1, 64, 1.0)
    out = spec.dispersion * b.basis_field(spec, 1).coeffs
    assert coeff(out, spec, 1) == pytest.approx(2.0)


def test_smoothing_on_basis_mode():
    spec = b.make_torus(1, 64, 1.0)
    out = sobolev_weights(spec, -2) * b.basis_field(spec, 1).coeffs
    assert coeff(out, spec, 1) == pytest.approx(0.25)


def test_dispersion_kills_zero_mode():
    spec = b.make_torus(1, 64, 1.0)
    out = spec.dispersion * b.basis_field(spec, 0).coeffs
    assert np.linalg.norm(out) == 0.0


def test_gradient_energy():
    spec = b.make_torus(1, 64, 0.0)
    c = b.basis_field(spec, 1).coeffs + 2.0 * b.basis_field(spec, 3).coeffs
    # integral of |grad u|^2 = sum |k|^2 |c_k|^2
    assert float(np.sum(spec.k_sq * np.abs(c) ** 2)) == pytest.approx(1.0 + 4.0 * 9.0)


def test_multiplier_self_adjointness():
    spec = b.make_torus(1, 32, 1.0)
    u, v = rand_field(spec, 2), rand_field(spec, 3)
    lhs = np.vdot(v.coeffs, spec.dispersion * u.coeffs)  # <Lu, v>
    rhs = np.vdot(spec.dispersion * v.coeffs, u.coeffs)  # <u, Lv>
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# ---------------------------------------------------------------------------
# free propagation
# ---------------------------------------------------------------------------

def test_propagate_basis_beta0():
    spec = b.make_torus(1, 64, 0.0)
    out = propagate_free(b.basis_field(spec, 1), PI)
    assert coeff(out.coeffs, spec, 1) == pytest.approx(-1.0, abs=1e-14)


def test_propagate_identity_at_zero():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 4)
    assert np.array_equal(propagate_free(u, 0.0).coeffs, u.coeffs)


def test_propagate_basis_beta1():
    spec = b.make_torus(1, 64, 1.0)
    out = propagate_free(b.basis_field(spec, 1), PI / 2)
    assert coeff(out.coeffs, spec, 1) == pytest.approx(-1.0, abs=1e-14)


def test_propagate_unitary():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 5)
    n0 = np.linalg.norm(u.coeffs)
    n1 = np.linalg.norm(propagate_free(u, 0.731).coeffs)
    assert abs(n1 - n0) <= 1e-13 * n0


def test_propagate_group_law():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 6)
    a = propagate_free(propagate_free(u, 0.3), 0.45)
    c = propagate_free(u, 0.75)
    assert np.abs(a.coeffs - c.coeffs).max() <= 1e-12 * np.linalg.norm(u.coeffs)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_free_phase_is_the_free_group(d, N):
    # against the oracle propagate_free, bit for bit, at a scalar time, a
    # stack of times (forward and backward) and the flat values of a support
    spec = b.make_torus(d, N, 1.0)
    u = rand_field(spec, 8)
    X = spec.dispersion
    assert np.array_equal(free_phase(0.37, X) * u.coeffs, propagate_free(u, 0.37).coeffs)
    ts = np.array([0.0, 0.2, -0.45, 1.3])
    stack = free_phase(ts, X)
    assert stack.shape == (len(ts),) + spec.shape
    for t, phase in zip(ts, stack):
        assert np.array_equal(phase * u.coeffs, propagate_free(u, t).coeffs)
    support = np.flatnonzero(box_mask(spec, 3))
    flat = free_phase(ts, X.ravel()[support])
    assert np.array_equal(flat, stack.reshape(len(ts), -1)[:, support])


# ---------------------------------------------------------------------------
# band projector
# ---------------------------------------------------------------------------

def test_band_project_plateau_and_gap():
    spec = b.make_torus(1, 64, 1.0)
    kappa = band_cutoff(spec.k_sq)  # the projector kappa(h^2 |k|^2) at h = 1
    out = kappa * b.basis_field(spec, 1).coeffs  # h^2 k^2 = 1: on the plateau
    assert coeff(out, spec, 1) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(kappa * b.basis_field(spec, 0).coeffs) == 0.0


def test_band_cutoff_golden_midpoint():
    # kappa(2.25) sits midway down the fall (by the ramp's symmetry)
    assert float(band_cutoff(np.array(2.25))) == pytest.approx(0.5, abs=1e-14)


def test_band_project_idempotent_on_plateau():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 7)
    h = 0.5  # plateau h^2 k^2 in [1, 2] holds the modes k = +-2
    kappa = band_cutoff(h * h * spec.k_sq)
    once = kappa * u.coeffs
    twice = kappa * once
    plateau = (h * h * spec.k_sq >= 1.0) & (h * h * spec.k_sq <= 2.0)
    assert plateau.sum() == 2
    assert np.abs((twice - once)[plateau]).max() == 0.0


def test_band_mode_mask_annulus():
    spec = b.make_torus(1, 64, 1.0)
    mask = band_mode_mask(spec, 0.25)
    ks = spec.k1d[mask]
    inside = (0.5 < 0.0625 * ks.astype(float) ** 2) & (
        0.0625 * ks.astype(float) ** 2 < 2.5
    )
    assert inside.all()


# ---------------------------------------------------------------------------
# region depth
# ---------------------------------------------------------------------------

def _circle_distance(x: float, y: float) -> float:
    return abs(math.remainder(x - y, 2 * PI))


def _depth_oracle(region, point) -> float:
    """inside_depth at one point, in Python floats: the distance to a
    strip's nearer edge, r minus the least distance to the 3^d nearest
    images of a ball's center, the max over a union's parts."""
    point = [float(x) for x in point]
    if isinstance(region, b.FullRegion):
        return math.inf
    if isinstance(region, b.RegionUnion):
        return max(_depth_oracle(p, point) for p in region.parts)
    if isinstance(region, b.Strip):
        x, lo, hi = point[region.axis], region.lo, region.hi
        if not (x - lo) % (2 * PI) < (hi - lo) % (2 * PI):  # on the arc from lo up to hi
            return 0.0
        return min(_circle_distance(x, lo), _circle_distance(x, hi))
    wrapped = [x % (2 * PI) for x in point]
    center = [c % (2 * PI) for c in region.center]
    images = itertools.product(*[[c + 2 * PI * k for k in (-1, 0, 1)] for c in center])
    return region.radius - min(math.dist(wrapped, image) for image in images)


def _regions(d):
    last = d - 1
    strips = [b.Strip(PI / 2, 3 * PI / 2, 0), b.Strip(5.0, 1.0, last), b.Strip(-0.5, 1.7, last)]
    balls = [b.Ball((PI,) * d, 2.0), b.Ball(tuple(0.3 + k for k in range(d)), 1.2)]
    unions = [b.RegionUnion((strips[1], balls[1])), b.RegionUnion((strips[0], strips[2]))]
    return strips + balls + unions + [b.FullRegion()]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_inside_depth_matches_a_per_point_oracle(d):
    # points of shape (4, 25, d), spread over several periods
    points = np.random.default_rng(40 + d).uniform(-10.0, 10.0, size=(4, 25, d))
    for region in _regions(d):
        depth = inside_depth(region, points)
        assert depth.shape == (4, 25)
        expect = np.array([[_depth_oracle(region, p) for p in row] for row in points])
        if isinstance(region, b.FullRegion):
            assert np.all(depth == math.inf) and np.all(expect == math.inf)
        else:
            assert np.abs(depth - expect).max() <= 1e-12, region
        # a one-point call gives a value that contains turns into a bool
        one = inside_depth(region, tuple(points[0, 0]))
        assert np.shape(one) == () and one == depth[0, 0]
        member = contains(region, tuple(points[0, 0]))
        assert type(member) is bool and member == (expect[0, 0] > 0.0)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32), (3, 16)])
def test_damping_profile_is_the_ramp_of_the_depth(d, N):
    # a strip's or a ball's profile is smooth_ramp(depth / width) on the grid
    spec = b.make_torus(d, N, 1.0)
    grid = spec.grid_points()
    for region in _regions(d)[:5]:
        expect = smooth_ramp(
            np.array([_depth_oracle(region, p) for p in grid.reshape(-1, d)]) / 0.3
        ).reshape(spec.shape)
        got = b.make_damping_profile(spec, region, 0.3).values
        assert np.abs(got - expect).max() <= 1e-12, region


# ---------------------------------------------------------------------------
# damping profiles
# ---------------------------------------------------------------------------

def test_full_profile_is_one():
    spec = b.make_torus(1, 64, 1.0)
    a = b.make_damping_profile(spec, b.FullRegion())
    assert np.all(a.values == 1.0)


def test_strip_profile_plateau_and_support():
    spec = b.make_torus(1, 256, 1.0)
    a = b.make_damping_profile(spec, b.Strip(PI / 2, 3 * PI / 2), 0.1)
    x = spec.grid1d
    inner = (x >= PI / 2 + 0.1 + 1e-9) & (x <= 3 * PI / 2 - 0.1 - 1e-9)
    outer = (x <= PI / 2) | (x >= 3 * PI / 2)
    assert np.all(a.values[inner] == 1.0)
    assert np.all(a.values[outer] == 0.0)
    assert np.all(a.values >= 0.0)


def test_empty_region_rejected():
    spec = b.make_torus(1, 64, 1.0)
    with pytest.raises(ValueError):
        b.make_damping_profile(spec, b.Ball((PI,), 0.0), 0.05)
    with pytest.raises(ValueError):
        b.make_damping_profile(spec, b.RegionUnion(()), 0.05)


@pytest.mark.parametrize(
    "region,width",
    [(b.Strip(math.nan, 3.0), 0.1), (b.Ball((PI,), math.nan), 0.1), (b.Strip(1.0, 3.0), math.nan)],
    ids=["strip-lo", "ball-radius", "width"],
)
def test_a_nan_region_or_width_is_rejected(region, width):
    # NaN fails every comparison, so a `<= 0` guard let these through to an
    # all-zero profile; make_damping_profile checks the region through
    # validate_region, which GeodesicQuery and the GCC scan share
    spec = b.make_torus(1, 64, 1.0)
    with pytest.raises(ValueError, match="not finite|must be positive"):
        b.make_damping_profile(spec, region, width)


def test_region_too_small_for_width():
    spec = b.make_torus(1, 64, 1.0)
    with pytest.raises(ValueError, match="too small"):
        b.make_damping_profile(spec, b.Strip(0.0, 0.3), 0.2)


def test_union_gated_by_thinnest_part():
    # at the default width (5 cells, ~0.98) the 0.3-wide part would get no
    # plateau, so the union must be rejected like the part alone
    spec = b.make_torus(2, 32, 1.0)
    union = b.RegionUnion((b.Strip(0.0, 3.0, 0), b.Strip(1.0, 1.3, 1)))
    with pytest.raises(ValueError, match="too small"):
        b.make_damping_profile(spec, union)


def test_union_profile_smooth_max():
    spec = b.make_torus(2, 32, 1.0)
    region = b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1)))
    a = b.make_damping_profile(spec, region, 0.15)
    assert a.values.max() == pytest.approx(1.0)
    assert np.all(a.values >= 0.0) and np.all(a.values <= 1.0 + 1e-15)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_fields())
def test_snapshot_roundtrip(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.b4f")
        b.save_field(u, path)
        v = b.load_field(path)
    assert v.spec == u.spec
    assert v.coeffs.tobytes() == u.coeffs.tobytes()  # bit for bit, -0.0 included


def test_snapshot_header_layout(tmp_path):
    spec = b.make_torus(1, 8, 0.5)
    u = b.basis_field(spec, 1)
    path = tmp_path / "f.b4f"
    b.save_field(u, path)
    raw = path.read_bytes()
    assert raw[:6] == b"B4NLS1"
    assert raw[6] == 0 and raw[7] == 1  # torus, d = 1
    assert len(raw) == 6 + 1 + 1 + 4 + 8 + 16 * 8


def test_snapshot_rejects_other_kind_byte(tmp_path):
    spec = b.make_torus(1, 8, 0.5)
    path = tmp_path / "f.b4f"
    b.save_field(b.basis_field(spec, 1), path)
    raw = bytearray(path.read_bytes())
    raw[6] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="kind byte 1"):
        b.load_field(path)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "junk.b4f"
    path.write_bytes(b"NOTB4N" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        b.load_field(path)


@pytest.mark.parametrize("kept", [6, 7, 19, 20, 147])
def test_a_truncated_snapshot_is_refused(tmp_path, kept):
    # the magic is 6 bytes, the header after it 14 (kind, d, N, beta), the
    # d1N8 coefficients 128: a cut anywhere after the magic is a ValueError
    path = tmp_path / "f.b4f"
    b.save_field(b.basis_field(b.make_torus(1, 8, 0.5), 1), path)
    path.write_bytes(path.read_bytes()[:kept])
    with pytest.raises(ValueError, match="truncated snapshot"):
        b.load_field(path)


@pytest.mark.parametrize("d,N", [(3, 2**32 - 2), (2, 2**20), (1, 8)])
def test_a_snapshot_is_refused_when_its_header_claims_more_than_the_file_holds(tmp_path, d, N):
    # the payload is 7 coefficients, one short of d1N8; the larger headers
    # claim 16 N^d bytes that no read size can hold (d3, N = 2^32 - 2) or
    # 16 TiB (d2, N = 2^20). The header is checked against the file's size,
    # so the refusal reads and allocates nothing of the payload.
    path = tmp_path / "f.b4f"
    path.write_bytes(b"B4NLS1" + SNAPSHOT_HEADER.pack(0, d, N, 0.5) + bytes(16 * 7))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated snapshot"):
            b.load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_grid_roundtrip():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 9)
    v = grid_to_coeffs(spec, coeffs_to_grid(spec, u.coeffs))
    assert np.abs(v - u.coeffs).max() <= 1e-13


@pytest.mark.parametrize("batch", [(), (3,)], ids=["field", "stack"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_per_axis_transforms_equal_fftn_bit_for_bit(d, batch):
    spec = b.make_torus(d, 16 if d < 3 else 8, 1.0)
    rng = np.random.default_rng(d)
    x = rng.standard_normal(batch + spec.shape) + 1j * rng.standard_normal(batch + spec.shape)
    axes = tuple(range(-d, 0))
    assert np.array_equal(_ifft_axes(x, axes), np.fft.ifftn(x, axes=axes))
    assert np.array_equal(_fft_axes(x, axes), np.fft.fftn(x, axes=axes))


def test_basis_field_point_values():
    spec = b.make_torus(1, 64, 1.0)
    vals = coeffs_to_grid(spec, b.basis_field(spec, 3).coeffs)
    x = spec.grid1d
    expect = np.exp(3j * x) / math.sqrt(2 * PI)
    assert np.abs(vals - expect).max() <= 1e-13


def test_smoothing_multiplier_values():
    spec = b.make_torus(1, 64, 2.0)
    m = sobolev_weights(spec, -1)
    k = spec.k1d.astype(float)
    assert np.allclose(m, 1.0 / (1.0 + k**2))


# ---------------------------------------------------------------------------
# the spectral kernel
# ---------------------------------------------------------------------------

def test_kernel_ops_pass_a_batch_axis_through():
    spec = b.make_torus(2, 16, 1.0)
    rng = np.random.default_rng(10)
    batch = rng.standard_normal((3,) + spec.shape) + 1j * rng.standard_normal((3,) + spec.shape)
    a = rng.uniform(0.0, 1.0, spec.shape)
    grid = coeffs_to_grid(spec, batch)
    back = grid_to_coeffs(spec, grid)
    cubic = nonlinear_term(spec, batch, 1)
    weighted = profile_product(spec, a, batch)
    for i in range(3):
        vals = coeffs_to_grid(spec, batch[i])
        assert np.abs(grid[i] - vals).max() <= 1e-13
        assert np.abs(back[i] - batch[i]).max() <= 1e-13
        ref = grid_to_coeffs(spec, np.abs(vals) ** 2 * vals)
        assert np.abs(cubic[i] - ref).max() <= 1e-12 * np.abs(ref).max()
        ref = grid_to_coeffs(spec, a * vals)
        assert np.abs(weighted[i] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("d,N", [(1, 8), (1, 32), (2, 8), (2, 32)])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_shift_free_products_match_the_shifted_route(d, N, k, batch):
    # the products skip fftshift/ifftshift because the sign (-1)^{sum j} of
    # the unshifted transform cancels; the oracle goes through the grid
    # values that a caller sees
    spec = b.make_torus(d, N, 1.0)
    rng = np.random.default_rng(100 * d + N + k)
    shape = batch + spec.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = rng.uniform(0.0, 1.0, spec.shape)
    u = coeffs_to_grid(spec, c)

    def rel(x, ref):
        return np.abs(x - ref).max() / np.abs(ref).max()

    assert rel(profile_product(spec, a, c), grid_to_coeffs(spec, a * u)) <= 1e-13
    ref = grid_to_coeffs(spec, np.abs(u) ** (2 * k) * u)
    assert rel(nonlinear_term(spec, c, k), ref) <= 1e-13
    kinetic = 0.5 * np.sum(spec.dispersion * np.abs(c) ** 2, axis=tuple(range(-d, 0)))
    potential = np.sum(np.abs(u) ** (2 * k + 2), axis=tuple(range(-d, 0)))
    expect = kinetic + potential * spec.cell_volume / (2 * k + 2)
    assert rel(np.asarray(energy(spec, c, k)), expect) <= 1e-13


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("kernel", ["product", "sandwich"])
def test_kernel_blocks_match_the_dense_oracle(d, N, kernel):
    # the package's three tabulations on a strip across the last axis and on
    # a ball: D's blocks (layout, layout), HUM's A (layout, rows) and the band
    # Gramian's weight (one group, here a random third of the lattice against
    # the dealiasing box). The box's block widths, 21 and 11 (strips) and
    # 21, 121 and 125 (balls), are no multiple of KERNEL_BATCH
    spec = b.make_torus(d, N, 1.0)
    s2 = sobolev_weights(spec, -2)
    rng = np.random.default_rng(d)
    some = np.sort(rng.choice(spec.n_modes, spec.n_modes // 3, replace=False))
    box = np.flatnonzero(spec.dealias_mask)
    for region in (b.Strip(PI / 2, 3 * PI / 2, d - 1), b.Ball((PI,) * d, 2.5)):
        phi = b.make_damping_profile(spec, region, 0.6)
        a = phi.compact
        M = multiplication_matrix(spec, phi.values)
        apply, dense = {
            "product": (lambda f: profile_product(spec, a, f), M),
            "sandwich": (lambda f: sandwich(spec, a, f), (M * s2.ravel()) @ M),
        }[kernel]
        scale = np.abs(dense).max()
        layout, rows = operator_layout(phi, N // 3)
        box_modes = np.arange(spec.n_modes).reshape(spec.shape)[spec.box]
        assert np.array_equal(layout, KernelBlocks(phi, box=True).gather(box_modes))
        assert layout.shape[1] % KERNEL_BATCH != 0
        for r in (layout, rows):
            ref = np.stack([dense[np.ix_(rj, lj)] for rj, lj in zip(r, layout)])
            assert np.abs(kernel_blocks(spec, apply, layout, r) - ref).max() <= 1e-13 * scale
        # the block type keeps each group's rows in lattice order
        ref = np.stack([dense[np.ix_(rj, lj)] for rj, lj in zip(np.sort(rows, axis=1), layout)])
        assert np.abs(KernelBlocks(phi, N // 3, kernel=apply).stack - ref).max() <= 1e-13 * scale
        one = kernel_blocks(spec, apply, box[None], some[None])
        assert one.shape == (1, len(some), len(box))
        assert np.abs(one[0] - dense[np.ix_(some, box)]).max() <= 1e-13 * scale


def _block_profiles(spec):
    """A strip across each axis, the cross (two strips on axis 0 at d = 1,
    on axes 0 and 1 above), a ball and a constant profile."""
    d = spec.d
    cross = (b.RegionUnion((b.Strip(0.0, 1.0), b.Strip(PI, PI + 1.0))) if d == 1
             else b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1))))
    regions = [b.Strip(1.0, 3.0, axis) for axis in range(d)] + [cross, b.Ball((PI,) * d, 2.5)]
    return ([b.make_damping_profile(spec, region, 0.4) for region in regions]
            + [b.DampingProfile(spec, np.full(spec.shape, 0.8))])


@pytest.mark.parametrize("d, N", [(1, 16), (2, 12), (3, 8)])
@pytest.mark.parametrize("band", [None, 0, 2, "box", "half", "above"])
def test_kernel_blocks_gather_scatter_and_apply_are_fancy_indexing_on_the_oracle_layout(d, N, band):
    # the block type cuts, transposes and reshapes; the oracle's flat
    # layout and rows say where each entry goes. "box" is band N // 3 on
    # box arrays, where the rows of every group are its columns; "half"
    # and "above" are bands N / 2 and N, every lattice mode
    spec = b.make_torus(d, N, 1.0)
    rng = np.random.default_rng(d)
    box = band == "box"
    lattice_band = {"box": N // 3, "half": N // 2, "above": N}.get(band, band)
    for prof in _block_profiles(spec):
        blocks = KernelBlocks(prof, lattice_band, box=box)
        layout, rows = operator_layout(prof, lattice_band)
        rows = np.sort(rows, axis=1)
        shape = spec.shape
        if box:  # flat indices of the box array: its modes in lattice order
            layout = rows = np.searchsorted(np.flatnonzero(spec.dealias_mask), layout)
            shape = (2 * (N // 3) + 1,) * d
        assert (blocks.groups, blocks.height, blocks.width) == rows.shape + layout.shape[1:]
        x = rng.standard_normal((3, 2) + shape) + 1j * rng.standard_normal((3, 2) + shape)
        flat = x.reshape(3, 2, -1)
        assert np.array_equal(blocks.gather(x), flat[..., layout])
        assert np.array_equal(blocks.gather(x, rows=True), flat[..., rows])
        assert np.array_equal(blocks.gather(x[1, 0]), flat[1, 0, layout])
        for index in (layout, rows):
            y = rng.standard_normal((3, 2) + index.shape) + 0j
            ref = np.zeros(flat.shape, dtype=complex)
            ref[..., index] = y
            assert np.array_equal(blocks.scatter(y), ref.reshape(x.shape))
        stack = rng.standard_normal(rows.shape + layout.shape[1:]) + 0j
        own = np.isin(rows[0], layout[0])
        assert np.array_equal(blocks.own(stack), stack[:, own])
        for w in (flat[..., layout], flat[0, 1, layout]):  # a stack with leading axes, one vector
            ref = np.zeros(w.shape[:-2] + flat.shape[-1:], dtype=complex)
            ref[..., rows] = np.einsum("gij,...gj->...gi", stack, w)
            got = blocks.apply(stack, w)
            assert got.shape == w.shape[:-2] + shape
            assert np.abs(got.reshape(ref.shape) - ref).max() <= 1e-13 * np.abs(ref).max()


def _profile_cases():
    """(d, region, compact shape) for strips on each axis, a ball, a union
    of two crossing strips and the full region, at d = 1, 2, 3."""
    cases = []
    for d in (1, 2, 3):
        for axis in range(d):
            cases.append((d, b.Strip(1.0, 3.0, axis), tuple(-1 if i == axis else 1 for i in range(d))))
        cases.append((d, b.Ball((PI,) * d, 1.5), (-1,) * d))
        cases.append((d, b.FullRegion(), (1,) * d))
        if d > 1:  # the union varies on axes 0 and 1 only
            union = b.RegionUnion((b.Strip(1.0, 3.0, 0), b.Strip(1.0, 3.0, 1)))
            cases.append((d, union, (-1, -1) + (1,) * (d - 2)))
    return cases


@pytest.mark.parametrize("d,region,shape", _profile_cases())
def test_a_compact_profile_transforms_only_the_axes_it_varies_on(d, region, shape):
    # -1 marks a full axis: the compact form keeps an axis iff the values
    # vary along it, and its product is the full-grid product and the
    # dense oracle's to roundoff
    N = {1: 32, 2: 16, 3: 8}[d]
    spec = b.make_torus(d, N, 1.0)
    prof = b.make_damping_profile(spec, region, None if isinstance(region, b.FullRegion) else 0.6)
    assert prof.compact.shape == tuple(N if n < 0 else n for n in shape)
    assert np.array_equal(np.broadcast_to(prof.compact, spec.shape), prof.values)
    assert (prof.compact.size == 1) == isinstance(region, b.FullRegion)
    rng = np.random.default_rng(d)
    c = rng.standard_normal((3,) + spec.shape) + 1j * rng.standard_normal((3,) + spec.shape)
    dense = c.reshape(3, -1) @ multiplication_matrix(spec, prof.values).T
    compact = profile_product(spec, prof.compact, c)
    scale = np.abs(dense).max()
    assert np.abs(compact - profile_product(spec, prof.values, c)).max() <= 1e-13 * scale
    assert np.abs(compact.reshape(3, -1) - dense).max() <= 1e-13 * scale


@st.composite
def _ball_coeffs(draw):
    # N reaches 256 at d = 1 and 30 at d = 3, so that both routes draw
    # fields at every d
    d = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.sampled_from([n for n in range(8, {1: 257, 2: 65, 3: 31}[d], 2)]))
    spec = b.make_torus(d, N, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    c = scale * (rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    return spec, np.where(spec.dealias_mask, c, 0.0), draw(st.sampled_from([1, 2]))


@settings(max_examples=80, deadline=None)
@given(_ball_coeffs().filter(lambda case: not dense_term_route(case[0])))
def test_the_dealiased_kernel_is_the_masked_cubic_term_bit_for_bit(case):
    # the pruned passes transform each kept line as the full ones do, so
    # the flows may call it in place of the masked product
    spec, c, k = case
    expect = nonlinear_term(spec, c, k)[spec.box]
    assert np.array_equal(dealiased_nonlinear_term(spec, c[spec.box], k), expect)


@settings(max_examples=80, deadline=None)
@given(_ball_coeffs().filter(lambda case: dense_term_route(case[0])))
def test_the_dense_route_is_the_masked_cubic_term_to_roundoff(case):
    # the dense products sum in another order than the FFT: within a few
    # 1e-15 of max |term| up to d1N158, d2N38 and d3N26, k in {1, 2}
    spec, c, k = case
    expect = nonlinear_term(spec, c, k)[spec.box]
    got = dealiased_nonlinear_term(spec, c[spec.box], k)
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def _count_ffts(monkeypatch):
    """A list that grows by one name per numpy.fft transform call."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(*args, _name=name, _f=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _ball(spec, seed):
    """A random box array."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return c[spec.box]


_ROUTES = [
    # the bench's calls: control (d1N32), stabilize (d2N32), simulate (d2N64)
    ("d1N32", 1, 32, True), ("d2N32", 2, 32, True), ("d2N64", 2, 64, False),
    # around them
    ("d1N64", 1, 64, True), ("d1N76", 1, 76, True), ("d1N78", 1, 78, True),
    ("d1N128", 1, 128, True), ("d1N220", 1, 220, False), ("d1N222", 1, 222, False),
    ("d1N256", 1, 256, False), ("d2N8", 2, 8, True), ("d2N10", 2, 10, True),
    ("d3N16", 3, 16, True), ("d3N18", 3, 18, True),
    # the last dense and first FFT lattice at each d
    ("d1N158", 1, 158, True), ("d1N160", 1, 160, False),
    ("d2N38", 2, 38, True), ("d2N40", 2, 40, False),
    ("d3N26", 3, 26, True), ("d3N28", 3, 28, False),
]


@pytest.mark.parametrize("d,N,dense", [row[1:] for row in _ROUTES],
                         ids=[row[0] for row in _ROUTES])
def test_the_dealiased_term_routes_by_its_work(monkeypatch, d, N, dense):
    # the dense route makes no FFT call once its matrices are built; the
    # FFT route is the masked cubic term bit for bit, d transforms each
    # way; both take and return box arrays
    spec = b.make_torus(d, N, 1.0)
    c = _ball(spec, N)
    assert dense_term_route(spec) == dense
    dealiased_nonlinear_term(spec, c, 1)  # builds the dense matrices once per N
    calls = _count_ffts(monkeypatch)
    got = dealiased_nonlinear_term(spec, c, 1)
    assert len(calls) == (0 if dense else 2 * d)
    monkeypatch.undo()
    assert got.shape == c.shape
    full = np.zeros(spec.shape, dtype=complex)
    full[spec.box] = c
    expect = nonlinear_term(spec, full, 1)[spec.box]
    if dense:
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    else:
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("kind,dense", [("simulate", False), ("stabilize", True),
                                        ("control-linear", True), ("control-nonlinear", True)])
def test_the_bench_flows_keep_their_term_routes(kind, dense):
    # the lattice each bench config's [manifold] names, read as a run reads it
    config = Path(__file__).resolve().parents[1] / "bench" / "configs" / f"{kind}.ini"
    assert dense_term_route(_build_spec(_load_config(str(config)))) == dense


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.0, 1e-40, 1.0, 1e40], ids=["zero", "tiny", "unit", "large"])
def test_the_pointwise_power_is_the_modulus_form(k, scale):
    # the cube as v conj(v) v drops the modulus's square root: within 4
    # ulp of max |v|^(2k+1) of |v|^(2k) v, on each part
    rng = np.random.default_rng(k)
    v = scale * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    expect = np.abs(v) ** (2 * k) * v
    got = _power_term(v, k)
    bound = 4 * np.spacing(np.abs(v).max() ** (2 * k + 1))
    assert np.abs(got.real - expect.real).max() <= bound
    assert np.abs(got.imag - expect.imag).max() <= bound


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d,N", [(1, 32), (2, 64)], ids=["dense", "fft"])
def test_a_non_finite_state_keeps_a_non_finite_term(d, N, k):
    # a NaN or inf coefficient leaves the term non-finite on either route,
    # so the march's H^2 guard, which fails on NaN, still sees it
    v = np.array([1.0 + 1.0j, np.nan, np.inf, np.inf * (1.0 - 1.0j)])
    spec = b.make_torus(d, N, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isfinite(_power_term(v, k)).tolist() == [True, False, False, False]
        for bad in (np.nan, np.inf):
            c = _ball(spec, k)
            c[(1,) * d] = bad
            assert dense_term_route(spec) == (d == 1)
            assert not np.all(np.isfinite(dealiased_nonlinear_term(spec, c, k)))


def test_the_sampled_duality_integral_lives_in_one_function():
    # a time integral over samples is hum.backward_forced_initial; the
    # dissipation audit's integral of the scalar flux is the one other
    src = Path(b.__file__).parent
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}"
            elif isinstance(child, ast.Call) and "trapezoid" in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)
            ):
                callers.append(owner)
            visit(child, name)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(callers) == ["dynamics.audit_dissipation", "hum.backward_forced_initial"]


def test_grid_operations_live_only_in_the_kernel():
    # bourgain's time-axis ifft and the forward fftn of the dense
    # multiplication matrix stay where they are; the patterns miss them. That
    # matrix is the test oracle of the grid products and of the block
    # builder: nothing in the package calls it. No module reorders the
    # lattice or takes an n-d inverse transform: the kernel's products skip
    # the shift, and a sum over frequencies needs no fftshift.
    src = Path(b.__file__).parent
    two_pi_defs = 0
    dense_calls = 0
    dense_callers = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        two_pi_defs += text.count("TWO_PI =")
        dense_calls += text.count("multiplication_matrix(") - text.count(
            "def multiplication_matrix("
        )
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                dense_callers += [
                    f"{path.stem}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "multiplication_matrix"
                ]
        # the benchmark traces FFTs through the numpy.fft module attributes
        assert "from numpy.fft import" not in text, path.name
        for pattern in ("ifftn(", "fftshift(", "logical_and.outer"):
            assert pattern not in text, f"{path.name} writes out {pattern}"
    assert two_pi_defs == 1
    assert dense_calls == 0
    assert dense_callers == []


def test_every_kernel_tabulation_goes_through_the_block_builder():
    # the damped flow's J, HUM's A and the band Gramian's weight: kernel_blocks
    # has two callers, the block type's constructor (J and A) and the band
    # Gramian, whose band is an annulus; neither hum nor observability
    # tabulates a kernel on an identity, and the block cap has one caller
    src = Path(b.__file__).parent
    callers = {"kernel_blocks": [], "check_block_entries": []}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for name, found in callers.items():
            found += [
                f"{path.stem}.{fn.name}"
                for fn in ast.walk(ast.parse(text)) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            ]
        if path.name in ("hum.py", "observability.py"):
            assert "np.eye(" not in text, path.name
    assert sorted(callers["kernel_blocks"]) == ["observability.dense", "spectral.__init__"]
    assert callers["check_block_entries"] == ["spectral.__init__"]


def _takes_a_phase(nodes):
    """A function that calls np.exp and writes an imaginary literal."""
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exp"
        for node in nodes
    ) and any(isinstance(node, ast.Constant) and isinstance(node.value, complex) for node in nodes)


def _is_weighted_square_sum(node):
    """A product with np.abs(...) ** 2 as a factor."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            isinstance(f, ast.BinOp) and isinstance(f.op, ast.Pow)
            and getattr(getattr(f.left, "func", None), "attr", None) == "abs"
            for f in (node.left, node.right)
        )
    )


def test_each_numerical_rule_has_one_owner():
    # the step grid n = max(1, round(T / dt)) is dynamics.step_grid, and a
    # straight-line fit is np.polyfit: no other round of a quotient, no lstsq.
    # The free phase e^{itX} is spectral.free_phase, the gain probe's
    # e^{iwt} tables included, and the Sobolev-weighted square sum is
    # spectral.hs_norm.
    src = Path(b.__file__).parent
    rounders, phases, sobolev_sums = [], set(), set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "lstsq" not in text, path.name
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                name = f"{path.stem}.{fn.name}"
                nodes = list(ast.walk(fn))
                rounders += [
                    name
                    for node in nodes
                    if isinstance(node, ast.Call)
                    and "round" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    and node.args
                    and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Div)
                ]
                if _takes_a_phase(nodes):
                    phases.add(name)
                if any(map(_is_weighted_square_sum, nodes)) and any(
                    getattr(node, "id", None) == "sobolev_weights" for node in nodes
                ):
                    sobolev_sums.add(name)
    assert rounders == ["dynamics.step_grid"]
    assert sorted(phases) == ["spectral.free_phase"]
    assert sorted(sobolev_sums) == ["spectral.hs_norm"]
