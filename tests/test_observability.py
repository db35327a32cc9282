import math

import numpy as np
import pytest

import b4nls as b
from b4nls.linalg import lanczos_extreme
from b4nls.observability import BandGramian
from b4nls.spectral import band_mode_mask, profile_product
from oracles import propagate_free

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
    rep = b.gramian_sweep(full, 1.0, [2])[0]
    assert rep.min_eig == pytest.approx(1.0, abs=1e-10)
    assert rep.max_eig == pytest.approx(1.0, abs=1e-10)
    g = band_gramian(full, 0.25)
    lo, hi, _ = lanczos_extreme(g.apply, g.band_dim)
    evals = np.linalg.eigvalsh(g.dense())
    assert lo == pytest.approx(evals[0], abs=1e-6) and hi == pytest.approx(evals[-1], abs=1e-6)


def test_gramian_zero_horizon():
    spec = b.make_torus(1, 64, 1.0)
    rep = b.gramian_sweep(strip_profile(spec), 0.0, [2])[0]
    assert rep.min_eig == 0.0 and rep.max_eig == 0.0


def test_gramian_empty_band_rejected():
    spec = b.make_torus(1, 16, 1.0)
    # the default width of 5 cells is too wide for the strip at N = 16
    profile = b.make_damping_profile(spec, STRIP, 0.5)
    with pytest.raises(ValueError, match="band"):
        b.gramian_sweep(profile, 1.0, [13])


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
                vt = propagate_free(b.SpectralField(spec, ek), float(t))
                mv = b.SpectralField(spec, profile_product(spec, profile.values, vt.coeffs))
                back = propagate_free(mv, -float(t))
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
        b.gramian_sweep(strip_profile(spec), T, [2], quad_dt=1e-3)[0].min_eig
        for T in (0.5, 1.0, 2.0)
    ]
    assert mins[0] <= mins[1] + 1e-12 and mins[1] <= mins[2] + 1e-12


def test_monotone_in_region():
    spec = b.make_torus(1, 64, 1.0)
    inner = b.Strip(PI / 2 + 0.3, 3 * PI / 2 - 0.3)
    outer = b.Strip(PI / 2, 3 * PI / 2)
    width = 0.15
    m_in = b.gramian_sweep(b.make_damping_profile(spec, inner, width), 1.0, [2])[0]
    m_out = b.gramian_sweep(b.make_damping_profile(spec, outer, width), 1.0, [2])[0]
    assert m_in.min_eig <= m_out.min_eig + 1e-12


def test_gramian_sweep_reports():
    # the sweep builds each band once, from the indices its check returned;
    # a sweep of one band builds its own and reports the same
    spec = b.make_torus(1, 128, 1.0)
    reports = b.gramian_sweep(strip_profile(spec), 1.0, [2, 3])
    assert [r.h for r in reports] == [0.25, 0.125]
    assert all(r.min_eig > 0.0 for r in reports)
    assert reports == [b.gramian_sweep(strip_profile(spec), 1.0, [j])[0] for j in (2, 3)]


@pytest.mark.parametrize("T,quad_dt", [(1.0, -1e-3), (1.0, 0.0), (-1.0, 1e-3)])
def test_gramian_refuses_a_bad_horizon_or_step(T, quad_dt):
    # a negative step used to run one trapezoid step of length T
    spec = b.make_torus(1, 64, 1.0)
    with pytest.raises(ValueError, match="T must be >= 0|quad_dt must be positive"):
        b.gramian_sweep(strip_profile(spec), T, [2], quad_dt=quad_dt)


@pytest.mark.parametrize("T,quad_dt,message", [
    (math.inf, 1e-3, "T must be >= 0 and finite"),
    (1.0, math.inf, "quad_dt must be positive and finite"),
])
@pytest.mark.parametrize("entry", ["sweep"])
def test_gramian_refuses_an_infinite_horizon_or_step(T, quad_dt, message, entry):
    # an infinite T raised OverflowError in step_grid; an infinite quad_dt
    # returned the floors of a single trapezoid step
    spec = b.make_torus(1, 64, 1.0)
    with pytest.raises(ValueError, match=message):
        b.gramian_sweep(strip_profile(spec), T, [2, 3], quad_dt=quad_dt)


def test_gramian_sweep_checks_every_band_before_the_first(monkeypatch):
    spec = b.make_torus(1, 64, 1.0)
    monkeypatch.setattr(BandGramian, "dense", lambda self: pytest.fail("a band was built"))
    with pytest.raises(ValueError, match="no lattice mode falls in the h = 1.81899e-12 band"):
        b.gramian_sweep(strip_profile(spec), 1.0, [2, 3, 39])


@pytest.mark.parametrize("d, N, j_values", [(2, 64, (2, 3)), (3, 16, (1, 2, 4))])
def test_strip_band_gramian_is_the_one_dimensional_gramian_by_blocks(d, N, j_values):
    # an x-strip is constant along the other axes, so on the modes that share
    # their wavenumbers q there, |k|^4 + beta |k|^2 = k_x^4 + (beta + 2|q|^2)
    # k_x^2 + const: the band Gramian's block is the d = 1 Gramian at the
    # shifted beta on the block's k_x modes, weighted by the profile's 1-D
    # slice, and the floor is the least of the d = 1 floors
    beta, T, quad_dt = 1.0, 1.0, 1e-3
    spec = b.make_torus(d, N, beta)
    profile = b.make_damping_profile(spec, STRIP, 0.4)
    q_sq = spec.k_sq.reshape(N, -1)[N // 2]  # |q|^2, read at k_x = 0
    for j in j_values:
        idx = np.flatnonzero(band_mode_mask(spec, 2.0**-j))
        G = BandGramian(spec, profile.compact, T, quad_dt, idx).dense()
        kx, q = np.divmod(idx, N ** (d - 1))
        floors = []
        for group in np.unique(q):
            on = q == group
            one = b.make_torus(1, N, beta + 2.0 * q_sq[group])
            G1 = BandGramian(one, profile.compact.reshape(N), T, quad_dt, kx[on]).dense()
            assert np.abs(G[np.ix_(on, on)] - G1).max() <= 1e-15 * np.abs(G1).max()
            assert not G[np.ix_(on, ~on)].any()
            floors.append(np.linalg.eigvalsh(G1)[0])
        assert np.linalg.eigvalsh(G)[0] == pytest.approx(min(floors), rel=0.0, abs=1e-13)
