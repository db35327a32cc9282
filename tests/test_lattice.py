"""The lattice is one broadcast over d: kernel oracles at d = 1, 2 and 3, and
the embedding of a d = 1 run as an x_1-only field of T^2 and T^3."""

import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import b4nls as b
from b4nls.dynamics import SolverConfig, evolve_damped, evolve_nonlinear
from b4nls.hum import multiplication_matrix
from b4nls.regions import TWO_PI
from b4nls.spectral import box_mask, nonlinear_term, profile_product
from oracles import coeffs_to_grid, grid_to_coeffs

DIMS = [1, 2, 3]


def rand_coeffs(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("d", DIMS)
def test_lattice_arrays_match_an_enumeration(d):
    spec = b.make_torus(d, 8, 0.5)
    for idx in itertools.product(range(8), repeat=d):
        k = [i - 4 for i in idx]
        assert spec.k_sq[idx] == sum(ki * ki for ki in k)
        assert box_mask(spec, 2)[idx] == (max(abs(ki) for ki in k) <= 2)
        assert spec.dealias_mask[idx] == (max(abs(ki) for ki in k) <= 8 // 3)
    assert spec.k_sq.shape == spec.k_box.shape == spec.shape
    assert spec.grid_points().shape == spec.shape + (d,)


@pytest.mark.parametrize("d", DIMS)
def test_parseval_and_plane_wave(d):
    spec = b.make_torus(d, 16, 1.0)
    u = b.random_field(spec, np.random.default_rng(d), decay=2.0)
    quad = float(np.sum(np.abs(coeffs_to_grid(spec, u.coeffs)) ** 2) * spec.cell_volume)
    assert quad == pytest.approx(np.linalg.norm(u.coeffs) ** 2, rel=1e-12)
    k = (3, -2, 1)[:d]
    vals = coeffs_to_grid(spec, b.basis_field(spec, k).coeffs)
    x = spec.grid_points()
    expect = np.exp(1j * (x @ np.array(k, dtype=float))) / TWO_PI ** (d / 2.0)
    assert np.abs(vals - expect).max() <= 1e-13


@pytest.mark.parametrize("d", DIMS)
def test_kernel_products_match_the_grid_route(d):
    spec = b.make_torus(d, 8, 1.0)
    c = rand_coeffs((2,) + spec.shape, 10 + d)
    a = np.random.default_rng(d).uniform(0.0, 1.0, spec.shape)
    u = coeffs_to_grid(spec, c)
    assert rel(grid_to_coeffs(spec, u), c) <= 1e-14
    assert rel(profile_product(spec, a, c), grid_to_coeffs(spec, a * u)) <= 1e-13
    assert rel(nonlinear_term(spec, c, 1), grid_to_coeffs(spec, np.abs(u) ** 2 * u)) <= 1e-13
    M = multiplication_matrix(spec, a)
    assert M.shape == (spec.n_modes, spec.n_modes)
    flat = (M @ c[0].ravel()).reshape(spec.shape)
    assert rel(flat, profile_product(spec, a, c[0])) <= 1e-13


def test_snapshot_roundtrip_d3(tmp_path):
    spec = b.make_torus(3, 8, 0.25)
    u = b.random_field(spec, np.random.default_rng(3))
    b.save_field(u, tmp_path / "f.b4f")
    v = b.load_field(tmp_path / "f.b4f")
    assert v.spec == spec
    assert np.array_equal(v.coeffs, u.coeffs)


def test_no_dimension_branch_in_the_lattice():
    text = (Path(b.__file__).parent / "spectral.py").read_text()
    text += inspect.getsource(multiplication_matrix)
    assert not re.search(r"\bd\s*==", text)


# ---------------------------------------------------------------------------
# embedding oracle: a field of x_1 alone evolves as on T^1
# ---------------------------------------------------------------------------

def _embed(c1, spec):
    """Coefficients on T^d of the field u(x_1): the e_k normalization puts
    (2pi)^{(d-1)/2} on every (k, 0, ..., 0) mode."""
    c = np.zeros(spec.shape, dtype=complex)
    c[(slice(None),) + (spec.N // 2,) * (spec.d - 1)] = c1 * TWO_PI ** ((spec.d - 1) / 2.0)
    return c


@pytest.mark.parametrize("damped", [False, True], ids=["nonlinear", "damped"])
@pytest.mark.parametrize("d", [2, 3])
def test_an_x1_field_evolves_as_the_d1_run(d, damped):
    N, T = 16, 0.05
    cfg = SolverConfig(dt=1e-3, record_stride=10)
    spec1 = b.make_torus(1, N, 1.0)
    u1 = b.normalize_sobolev(b.random_field(spec1, np.random.default_rng(7), band=5), 2.0, 20.0)
    spec = b.make_torus(d, N, 1.0)
    ud = b.SpectralField(spec, _embed(u1.coeffs, spec))
    if damped:
        strip = b.Strip(1.0, 3.0, 0)
        ref = evolve_damped(u1, b.make_damping_profile(spec1, strip, 0.6), T, cfg)
        run = evolve_damped(ud, b.make_damping_profile(spec, strip, 0.6), T, cfg)
    else:
        ref = evolve_nonlinear(u1, T, cfg)
        run = evolve_nonlinear(ud, T, cfg)
    assert np.array_equal(run.times, ref.times)
    expect = np.stack([_embed(c, spec) for c in ref.states])
    assert rel(run.states, expect) <= 1e-12
    assert np.abs(ref.states[-1] - ref.states[0]).max() > 1e-3 * np.abs(ref.states[0]).max()
