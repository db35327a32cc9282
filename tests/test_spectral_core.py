import ast
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import b4nls as b
from b4nls.dynamics import energy
from b4nls.hum import multiplication_matrix
from b4nls.spectral import (
    KERNEL_BATCH,
    band_cutoff,
    band_mode_mask,
    _mode_index,
    coeffs_to_grid,
    grid_to_coeffs,
    kernel_rows,
    nonlinear_term,
    profile_product,
    sandwich,
    smoothing_multiplier,
)

PI = math.pi


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
    out = smoothing_multiplier(spec, 2) * b.basis_field(spec, 1).coeffs
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
    out = b.propagate_free(b.basis_field(spec, 1), PI)
    assert coeff(out.coeffs, spec, 1) == pytest.approx(-1.0, abs=1e-14)


def test_propagate_identity_at_zero():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 4)
    assert np.array_equal(b.propagate_free(u, 0.0).coeffs, u.coeffs)


def test_propagate_basis_beta1():
    spec = b.make_torus(1, 64, 1.0)
    out = b.propagate_free(b.basis_field(spec, 1), PI / 2)
    assert coeff(out.coeffs, spec, 1) == pytest.approx(-1.0, abs=1e-14)


def test_propagate_unitary():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 5)
    n0 = np.linalg.norm(u.coeffs)
    n1 = np.linalg.norm(b.propagate_free(u, 0.731).coeffs)
    assert abs(n1 - n0) <= 1e-13 * n0


def test_propagate_group_law():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 6)
    a = b.propagate_free(b.propagate_free(u, 0.3), 0.45)
    c = b.propagate_free(u, 0.75)
    assert np.abs(a.coeffs - c.coeffs).max() <= 1e-12 * np.linalg.norm(u.coeffs)


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


def test_grid_roundtrip():
    spec = b.make_torus(1, 64, 1.0)
    u = rand_field(spec, 9)
    v = grid_to_coeffs(spec, coeffs_to_grid(spec, u.coeffs))
    assert np.abs(v - u.coeffs).max() <= 1e-13


def test_basis_field_point_values():
    spec = b.make_torus(1, 64, 1.0)
    vals = coeffs_to_grid(spec, b.basis_field(spec, 3).coeffs)
    x = spec.grid1d
    expect = np.exp(3j * x) / math.sqrt(2 * PI)
    assert np.abs(vals - expect).max() <= 1e-13


def test_smoothing_multiplier_values():
    spec = b.make_torus(1, 64, 2.0)
    m = smoothing_multiplier(spec, 1)
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
def test_kernel_rows_match_the_dense_oracle(d, N, kernel):
    # cols is the dealiasing ball (21, 121 and 125 modes, no multiple of
    # KERNEL_BATCH), rows a random third of the lattice, so rows != cols
    spec = b.make_torus(d, N, 1.0)
    rng = np.random.default_rng(d)
    w = rng.uniform(0.0, 1.0, spec.shape)
    s2 = smoothing_multiplier(spec, 2)
    M = multiplication_matrix(spec, w)
    apply, dense = {
        "product": (lambda f: profile_product(spec, w, f), M),
        "sandwich": (lambda f: sandwich(spec, w, s2, f), (M * s2.ravel()) @ M),
    }[kernel]
    cols = np.flatnonzero(spec.dealias_mask)
    assert len(cols) % KERNEL_BATCH != 0
    rows = np.sort(rng.choice(spec.n_modes, spec.n_modes // 3, replace=False))
    block = dense[rows][:, cols]
    scale = np.abs(block).max()
    eye = kernel_rows(spec, apply, np.eye(len(cols), dtype=complex), cols, rows)
    assert np.abs(eye - block.T).max() <= 1e-13 * scale
    # a non-identity x, as the Ritz build passes: row i is block @ x_i
    x = rng.standard_normal((13, len(cols))) + 1j * rng.standard_normal((13, len(cols)))
    out = kernel_rows(spec, apply, x, cols, rows)
    assert np.abs(out - x @ block.T).max() <= 1e-13 * scale * np.abs(x).sum(axis=1).max()


def _functions_calling(tree, names):
    """Names of the top-level functions of a module that call any of names."""
    return {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in names
    }


def test_grid_operations_live_only_in_the_kernel():
    # the time-axis ifft/fftshift(axes=0) of bourgain and the forward fftn of
    # the dense multiplication matrix stay where they are; the patterns miss
    # them. That matrix is the test oracle of the grid products and of the
    # block builder: nothing in the package calls it.
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
        if path.name == "spectral.py":
            # only the user-facing transform pair reorders the lattice
            shifters = _functions_calling(ast.parse(text), {"fftshift", "ifftshift"})
            assert shifters == {"coeffs_to_grid", "grid_to_coeffs"}
            continue
        for pattern in ("ifftn(", "ifftshift(", "logical_and.outer"):
            assert pattern not in text, f"{path.name} writes out {pattern}"
    assert two_pi_defs == 1
    assert dense_calls == 0
    assert dense_callers == []
