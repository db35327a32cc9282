import math

import numpy as np
import pytest

import b4nls as b
from b4nls.linalg import lanczos_extreme
from b4nls.observability import BandGramian
from b4nls.spectral import band_mode_mask

PI = math.pi
TWO_PI = 2.0 * PI

STRIP = b.Strip(PI / 2, 3 * PI / 2)


def strip_profile(spec):
    return b.make_damping_profile(spec, STRIP)


def band_gramian(profile, h):
    """The T = 1 Gramian of a profile on the h band, for the Lanczos route:
    the matrix-free trapezoid apply against eigvalsh of the dense matrix,
    whose eigenvalues lie in [0, 1]."""
    idx = np.flatnonzero(band_mode_mask(profile.spec, h))
    return BandGramian(profile.spec, profile.values, 1.0, 1e-3, idx)


# ---------------------------------------------------------------------------
# Gramian basics
# ---------------------------------------------------------------------------

def test_full_region_gramian_is_T_identity():
    spec = b.make_torus(1, 64, 1.0)
    full = b.make_damping_profile(spec, b.FullRegion())
    rep = b.band_gramian_min_eig(full, 1.0, 0.25)
    assert rep.min_eig == pytest.approx(1.0, abs=1e-10)
    assert rep.max_eig == pytest.approx(1.0, abs=1e-10)
    g = band_gramian(full, 0.25)
    lo, hi, _ = lanczos_extreme(g.apply, g.band_dim)
    evals = np.linalg.eigvalsh(g.dense())
    assert lo == pytest.approx(evals[0], abs=1e-6) and hi == pytest.approx(evals[-1], abs=1e-6)


def test_gramian_zero_horizon():
    spec = b.make_torus(1, 64, 1.0)
    rep = b.band_gramian_min_eig(strip_profile(spec), 0.0, 0.25)
    assert rep.min_eig == 0.0 and rep.max_eig == 0.0


def test_gramian_empty_band_rejected():
    spec = b.make_torus(1, 16, 1.0)
    # the default width of 5 cells is too wide for the strip at N = 16
    profile = b.make_damping_profile(spec, STRIP, 0.5)
    with pytest.raises(ValueError, match="band"):
        b.band_gramian_min_eig(profile, 1.0, 1e-4)


def test_gramian_hermitian_and_bounded_by_T():
    spec = b.make_torus(1, 64, 1.0)
    profile = b.make_damping_profile(spec, STRIP)
    idx = np.flatnonzero(band_mode_mask(spec, 0.25).ravel())
    g = BandGramian(spec, profile.values, 1.0, 1e-3, idx)
    G = g.dense()
    assert np.abs(G - G.conj().T).max() <= 1e-12
    evals = np.linalg.eigvalsh(G)
    assert evals[0] >= -1e-12
    assert evals[-1] <= 1.0 + 1e-10


def test_single_pair_band_closed_form():
    # h chosen so the annulus holds exactly the modes k = -2, 2; with equal
    # phases their 2x2 Gramian is T [[m0, m(-4)], [m(4), m0]], eigenvalues
    # T (m0 +- |m4|)
    spec = b.make_torus(1, 64, 1.0)
    h = math.sqrt(0.4)
    mask = band_mode_mask(spec, h)
    assert spec.k1d[mask].tolist() == [-2, 2]
    profile = b.make_damping_profile(spec, STRIP)
    idx = np.flatnonzero(mask.ravel())
    T = 1.0
    g = BandGramian(spec, profile.values, T, 1e-3, idx)
    G = g.dense()
    mhat = np.fft.fft(profile.values) / spec.N
    m0, m4 = float(np.real(mhat[0])), mhat[4]
    eigs = np.linalg.eigvalsh(G)
    assert eigs[0] == pytest.approx(T * (m0 - abs(m4)), abs=1e-10)
    assert eigs[-1] == pytest.approx(T * (m0 + abs(m4)), abs=1e-10)
    assert 0.0 < eigs[0] < T
    # symmetry under k <-> -k: the diagonal entries agree
    assert abs(G[0, 0] - G[1, 1]) <= 1e-10


def test_single_pair_matches_quadrature_oracle():
    # brute-force time quadrature of <G e_k, e_l> against the dense entry
    spec = b.make_torus(1, 64, 1.0)
    profile = b.make_damping_profile(spec, STRIP)
    idx = np.flatnonzero(band_mode_mask(spec, math.sqrt(0.4)).ravel())
    T, dt = 1.0, 1e-3
    g = BandGramian(spec, profile.values, T, dt, idx)
    G = g.dense()
    n = round(T / dt)
    ts = np.linspace(0.0, T, n + 1)
    wts = np.full(n + 1, dt)
    wts[0] = wts[-1] = dt / 2
    for a, ka in enumerate(idx):
        for c, kc in enumerate(idx):
            ek = np.zeros(spec.shape, dtype=complex)
            ek.ravel()[kc] = 1.0
            acc = 0.0j
            for t, w in zip(ts, wts):
                vt = b.propagate_free(b.SpectralField(spec, ek), float(t))
                mv = b.multiply_profile(vt, profile)
                back = b.propagate_free(mv, -float(t))
                acc += w * back.coeffs.ravel()[ka]
            assert abs(acc - G[a, c]) <= 1e-9


def test_lanczos_matches_dense_across_bands():
    spec = b.make_torus(1, 128, 1.0)
    for j in (2, 3, 4):
        g = band_gramian(strip_profile(spec), 2.0 ** (-j))
        lo, hi, _ = lanczos_extreme(g.apply, g.band_dim)
        evals = np.linalg.eigvalsh(g.dense())
        assert lo == pytest.approx(evals[0], abs=1e-6)
        assert hi == pytest.approx(evals[-1], abs=1e-6)


def test_monotone_in_horizon():
    spec = b.make_torus(1, 64, 1.0)
    mins = [
        b.band_gramian_min_eig(strip_profile(spec), T, 0.25, quad_dt=1e-3).min_eig
        for T in (0.5, 1.0, 2.0)
    ]
    assert mins[0] <= mins[1] + 1e-12 and mins[1] <= mins[2] + 1e-12


def test_monotone_in_region():
    spec = b.make_torus(1, 64, 1.0)
    inner = b.Strip(PI / 2 + 0.3, 3 * PI / 2 - 0.3)
    outer = b.Strip(PI / 2, 3 * PI / 2)
    width = 0.15
    m_in = b.band_gramian_min_eig(b.make_damping_profile(spec, inner, width), 1.0, 0.25)
    m_out = b.band_gramian_min_eig(b.make_damping_profile(spec, outer, width), 1.0, 0.25)
    assert m_in.min_eig <= m_out.min_eig + 1e-12


def test_gramian_sweep_reports():
    spec = b.make_torus(1, 128, 1.0)
    reports = b.gramian_sweep(strip_profile(spec), 1.0, [2, 3])
    assert [r.h for r in reports] == [0.25, 0.125]
    assert all(r.min_eig > 0.0 for r in reports)
    assert all(r.quadrature_nodes == 1001 for r in reports)
