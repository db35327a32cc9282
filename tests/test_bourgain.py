import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

import b4nls as b
from b4nls import bourgain
from b4nls.cli import main
from b4nls.bourgain import (
    SpaceTimeField,
    _hb_norm,
    _probe_signal,
    _time_weight,
    duhamel_gain_probe,
    hb_hs_norm,
    random_spacetime_field,
    trilinear_constant_probe,
    xsb_norm,
)
from b4nls.spectral import box_mask, plateau_bump, sobolev_weights
from oracles import l2hs_norm, tapered_free_solution, time_sobolev_norm_quadrature

TWO_PI = 2.0 * math.pi


def band_limited(spec, rng, band):
    noise = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return np.where(box_mask(spec, band), noise, 0.0)


def hs_norm(spec, coeffs, s):
    return math.sqrt(float(np.sum(sobolev_weights(spec, s) * np.abs(coeffs) ** 2)))


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_xsb_at_b_zero_is_l2hs(d, N):
    # the interaction frame is unitary slice by slice and <tau>^0 = 1
    spec = b.make_torus(d, N, 1.0)
    f = random_spacetime_field(spec, np.random.default_rng(3), TWO_PI, 64, 4, 8)
    for s in (0.0, 2.0):
        assert xsb_norm(f, s, 0.0) == pytest.approx(l2hs_norm(f, s), rel=1e-12)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
@pytest.mark.parametrize("s,bb", [(2.0, 0.6), (0.0, 0.3), (1.0, 0.9)])
def test_tapered_free_solution_norm_factorizes(d, N, s, bb):
    # || psi e^{itL} v0 ||_{X^{s,b}} = || psi ||_{H^b} || v0 ||_{H^s}: exactly
    # for the window's own H^b of the taper, and to the window discretization
    # (0.33% at b = 0.6) for the H^b(R) norm by oversampled quadrature
    spec = b.make_torus(d, N, 1.0)
    v0 = band_limited(spec, np.random.default_rng(1), 3)
    g = tapered_free_solution(v0, spec, TWO_PI, 128)
    lhs = xsb_norm(g, s, bb)
    one = np.zeros((128,) + spec.shape)
    one[(slice(None),) + (0,) * d] = g.taper  # the taper on the zero mode
    window_hb = hb_hs_norm(SpaceTimeField(spec, TWO_PI, one, g.taper), 0.0, bb)
    assert lhs == pytest.approx(window_hb * hs_norm(spec, v0, s), rel=1e-12)
    line_hb = time_sobolev_norm_quadrature(g.taper, TWO_PI, bb)
    assert lhs == pytest.approx(line_hb * hs_norm(spec, v0, s), rel=5e-3)


def test_xsb_needs_a_tapered_field():
    spec = b.make_torus(1, 16, 1.0)
    f = random_spacetime_field(spec, np.random.default_rng(0), TWO_PI, 32, 2, 4)
    bare = SpaceTimeField(spec, TWO_PI, f.values, None)
    with pytest.raises(ValueError, match="tapered"):
        xsb_norm(bare, 1.0, 0.5)
    assert hb_hs_norm(bare, 1.0, 0.5) > 0.0  # the plain norm takes any field


@pytest.mark.parametrize("time_band", [0, -1, 16, 40])
def test_random_field_rejects_a_time_band_out_of_range(time_band):
    spec = b.make_torus(1, 16, 1.0)
    with pytest.raises(ValueError, match="time band"):
        random_spacetime_field(spec, np.random.default_rng(0), TWO_PI, 32, 2, time_band)


@pytest.mark.parametrize("bb", [0, 1, 2])
def test_hb_norm_of_a_gaussian_is_its_closed_form(bb):
    # f = exp(-t^2 / (2 sigma^2)) on the gain probe's grid: ||f||^2 = sigma
    # sqrt(pi), ||f'||^2 = sqrt(pi) / (2 sigma), ||f''||^2 = 3 sqrt(pi) /
    # (4 sigma^3), and (1 + tau^2)^b expands into them. The same samples on
    # one mode of a field give its H^b L^2 norm.
    sigma, rp = 0.5, math.sqrt(math.pi)
    exact = [sigma * rp, sigma * rp + rp / (2 * sigma),
             sigma * rp + rp / sigma + 3 * rp / (4 * sigma**3)][bb]
    t = np.linspace(-4.0, 4.0, 8192, endpoint=False)
    f = np.exp(-(t**2) / (2 * sigma**2))
    dt = t[1] - t[0]
    norm = _hb_norm(f, dt, _time_weight(len(t), dt, bb))
    assert norm**2 == pytest.approx(exact, rel=1e-14, abs=0)
    spec = b.make_torus(1, 8, 1.0)
    values = np.zeros((len(t),) + spec.shape)
    values[:, 0] = f
    field = SpaceTimeField(spec, 8.0, values, None)
    assert hb_hs_norm(field, 0.0, bb) ** 2 == pytest.approx(exact, rel=1e-14, abs=0)


@pytest.mark.parametrize("w", [0.25, 1.0, 8.0, 31.7, 48.0])
def test_probe_phase_table_is_the_direct_exponential(w):
    # 48 = 12 / T at T = 1/4 is the probe's largest frequency: |wt| reaches 192
    t = np.linspace(-4.0, 4.0, 8192, endpoint=False)
    table = _probe_signal(t, np.array([w]), np.ones(1))
    assert np.abs(table - np.exp(1j * w * t)).max() <= 2e-13


def _hb_norm_per_call(f, dt, b):
    """The H^b norm of a scalar signal as the probe computed it per signal,
    time frequencies and weight included."""
    n = len(f)
    F = np.fft.ifft(f) * n * dt / math.sqrt(TWO_PI)
    tau = TWO_PI * np.fft.fftfreq(n, d=dt)
    return math.sqrt(float(np.sum((1.0 + tau**2) ** b * np.abs(F) ** 2)) * TWO_PI / (n * dt))


def _gain_probe_loop(b, b_prime, n_samples, rng):
    """The gain probe signal by signal, each e^{iwt} by np.exp on the whole
    grid: the oracle of duhamel_gain_probe."""
    T_values = (1.0, 0.5, 0.25)
    t = np.linspace(-4.0, 4.0, 8192, endpoint=False)
    dt = t[1] - t[0]
    max_ratios = []
    for T in T_values:
        chi = plateau_bump(t / T, -2.0, -1.0, 1.0, 2.0)
        best = 0.0
        freqs = [0.5 / T, 1.0 / T, 2.0 / T, 4.0 / T, 8.0 / T]
        for i in range(n_samples):
            if i < len(freqs):
                f = chi * np.exp(1j * freqs[i] * t)
            elif i == len(freqs):
                f = np.zeros_like(t, dtype=complex)
            else:
                w = rng.uniform(0.25 / T, 12.0 / T, size=3)
                amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                f = chi * sum(a * np.exp(1j * wi * t) for a, wi in zip(amps, w))
            denom = _hb_norm_per_call(f, dt, -b_prime)
            if denom == 0.0:
                continue
            prim = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * dt)])
            prim = prim - prim[np.searchsorted(t, 0.0)]
            best = max(best, _hb_norm_per_call(chi * prim, dt, b) / denom)
        max_ratios.append(best)
    slope = float(np.polyfit(np.log(T_values), np.log(max_ratios), 1)[0])
    return max_ratios, slope


@pytest.mark.parametrize("seed", range(16))
def test_gain_probe_matches_the_per_signal_loop(seed):
    # 20 samples is the bench's count; 3 leaves out the zero signal and 7
    # draws one random signal. The rng must end where the loop leaves it,
    # since the trilinear probe draws from it next.
    for n_samples in (3, 7, 20):
        rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = duhamel_gain_probe(0.55, 0.45, n_samples, rng)
        ratios, slope = _gain_probe_loop(0.55, 0.45, n_samples, rng_loop)
        assert got.max_ratios == pytest.approx(ratios, rel=1e-12, abs=0)
        assert got.fitted_exponent == pytest.approx(slope, rel=1e-12, abs=0)
        assert rng.random() == rng_loop.random()


def test_probe_outputs_of_the_bench_config_are_pinned(tmp_path):
    # bench/configs/bourgain-probe.ini at seed 0: d1N32, every sweep default
    path = tmp_path / "probe.ini"
    path.write_text("[experiment]\nkind = bourgain-probe\nseed = 0\n[manifold]\nd = 1\nN = 32\n")
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "probe.csv", newline="") as fh:
        values = {row["name"]: float(row["value"]) for row in csv.DictReader(fh)}
    assert values["gain_fitted_exponent"] == pytest.approx(0.13356836717034523, rel=1e-8)
    assert values["trilinear_max_ratio"] == pytest.approx(1.3982438625183091e-05, rel=1e-8)


@pytest.mark.parametrize(
    "kwargs,message",
    [({"space_band": -1}, "space_band must be >= 0"),
     ({"n_samples": 0}, "samples >= 1"),
     ({"M_t": 8}, "M_t must be even and > 8"),
     ({"M_t": 33}, "M_t must be even and > 8"),
     ({"time_band": 64}, "time band out of range"),
     ({"s": math.nan}, "s must be finite"),
     ({"s": math.inf}, "s must be finite")],
)
def test_trilinear_probe_refuses_inputs_it_cannot_run(kwargs, message):
    # a negative band or no sample returned 0.0, with no field drawn; a NaN
    # s made every ratio NaN, which max(0.0, nan) dropped, and reported 0.0
    args = {"s": 2.0, "n_samples": 4, "M_t": 128, "space_band": None, "time_band": 8, **kwargs}
    with pytest.raises(ValueError, match=message):
        trilinear_constant_probe(
            b.make_torus(1, 32, 1.0), args.pop("s"), 0.45, args.pop("n_samples"),
            np.random.default_rng(0), **args,
        )


def test_gain_probe_refuses_zero_samples():
    # it fitted a line through log 0
    with pytest.raises(ValueError, match="samples >= 1"):
        duhamel_gain_probe(0.55, 0.45, 0, np.random.default_rng(0))


@pytest.mark.parametrize("d,N", [(2, 32), (3, 16)])
def test_the_probe_size_bound_is_the_traced_peak_of_the_probe(monkeypatch, d, N):
    # the default window, M_t = 128: 128 N^d space-time entries, 13 MB at
    # d2N32 and 50 MB at d3N16, the estimate within 10% of the tracemalloc
    # peak. Two samples, as a run draws at least four: each field after the
    # first is drawn once the last one and its cubic product are freed.
    spec = b.make_torus(d, N, 1.0)

    def probe():
        return trilinear_constant_probe(spec, 2.0, 0.45, 2, np.random.default_rng(0))

    probe()  # builds the kernel caches
    tracemalloc.start()
    try:
        probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(bourgain, "MAX_TRACE_BYTES", 0)
    with pytest.raises(ValueError, match=f"a probe of M_t = 128 times at d = {d}, N = {N}") as exc:
        probe()
    need = int(re.search(r"needs about (\d+) bytes", str(exc.value)).group(1))
    assert 0.9 * peak <= need <= 1.1 * peak
