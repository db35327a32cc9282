"""Discrete dispersive space-time norms.

A space-time field on [0, T_w] x T^d is sampled on a uniform periodic time
grid and stored as spectral coefficients per time slice. The dispersive
norm of smoothness (s, b) weights the time-frequency content by distance
to the dispersion surface tau = -(|k|^4 + beta |k|^2):

    ||u||^2 = sum_k (1+|k|^2)^s sum_m <tau_m + |k|^4 + beta|k|^2>^{2b}
              |u_hat_k(tau_m)|^2  dtau.

The discrete realization works in the interaction frame: multiplying slice
t by exp(-it(|k|^4 + beta|k|^2)) recenters each mode's spectrum on its
dispersion surface, after which the plain <tau>^{2b} weight applies. This
is exact (no spectral leakage from the recentering) and is simultaneously
the second form of the definition, the weighted transform of the profile
e^{-itL} u(t).

Fields must be tapered: the window taper has to vanish at both window ends
so the periodic time transform sees a smooth periodic signal. Every H^b time
norm is one kernel, `_hb_norm`, summed in FFT order (a sum needs no
fftshift): the space-time norms weight it by `_time_weight` times the
spatial Sobolev weight, the gain probe by two time weights built per call.

The module also carries two measured-constant probes: the window-averaged
time-integration gain (the T^{1-b-b'} smoothing of the Duhamel integral on
scalar signals) and the cubic product bound in these norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MAX_TRACE_BYTES
from .regions import TWO_PI
from .spectral import (
    ManifoldSpec,
    box_mask,
    free_phase,
    nonlinear_term,
    plateau_bump,
    sobolev_weights,
)


@dataclass(frozen=True)
class SpaceTimeField:
    """Time-sampled spectral field on one periodic time window."""

    spec: ManifoldSpec
    T_w: float
    values: np.ndarray  # (M_t,) + lattice shape, coefficients per slice
    taper: np.ndarray | None  # taper samples on the time grid, or None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if self.T_w <= 0.0:
            raise ValueError("time window must be positive")
        if v.ndim != self.spec.d + 1 or v.shape[1:] != self.spec.shape:
            raise ValueError("values must be (M_t,) + lattice shaped")
        m = v.shape[0]
        check_probe_inputs(None, 1, m, None, None)
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("non-finite sample")
        if self.taper is not None:
            t = np.asarray(self.taper, dtype=float)
            if t.shape != (m,):
                raise ValueError("taper must have one sample per time")
            if max(abs(t[0]), abs(t[-1])) > 1e-12:
                raise ValueError("taper must vanish at the window ends")
            t = t.copy()
            t.flags.writeable = False
            object.__setattr__(self, "taper", t)
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def M_t(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.T_w * np.arange(self.M_t) / self.M_t


def make_taper(T_w: float, M_t: int) -> np.ndarray:
    """Smooth plateau window on [0, T_w], rising and falling over a quarter
    of the window each, exactly zero at both end samples (the support is
    inset by two grid steps)."""
    check_probe_inputs(None, 1, M_t, None, None)
    t = T_w * np.arange(M_t) / M_t
    e = 0.25 * T_w
    margin = 2.0 * T_w / M_t
    return plateau_bump(t, margin, e, T_w - e, T_w - margin)


def random_spacetime_field(
    spec: ManifoldSpec,
    rng: np.random.Generator,
    T_w: float,
    M_t: int,
    space_band: int,
    time_band: int,
) -> SpaceTimeField:
    """Tapered random field, band-limited in both space and time frequency."""
    check_probe_inputs(None, 1, M_t, space_band, time_band)
    taper = make_taper(T_w, M_t)
    spectrum = np.zeros((M_t,) + spec.shape, dtype=complex)
    sl = np.zeros(M_t, dtype=bool)
    sl[: time_band + 1] = True
    sl[-time_band:] = True
    shape = (int(np.sum(sl)),) + spec.shape
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectrum[sl] = block * box_mask(spec, space_band)
    vals = np.fft.ifft(spectrum, axis=0) * M_t
    vals = taper.reshape((-1,) + (1,) * spec.d) * vals
    return SpaceTimeField(spec, T_w, vals, taper)


# ---------------------------------------------------------------------------
# transforms and norms
# ---------------------------------------------------------------------------

def _time_weight(n: int, dt: float, b: float) -> np.ndarray:
    """(1 + tau^2)^b over the time frequencies of n samples at step dt, in FFT order."""
    return (1.0 + (TWO_PI * np.fft.fftfreq(n, d=dt)) ** 2) ** b


def _hb_norm(samples: np.ndarray, dt: float, weight: float | np.ndarray) -> float:
    """(sum_tau weight |F(tau)|^2 dtau)^{1/2} over the time frequencies of
    samples at step dt along axis 0, in FFT order, with F(tau) = (2 pi)^{-1/2}
    sum_j f(t_j) e^{i tau t_j} dt; the weight has a `_time_weight` factor."""
    n = samples.shape[0]
    F = np.fft.ifft(samples, axis=0) * (n * dt / math.sqrt(TWO_PI))
    return math.sqrt(float(np.sum(weight * np.abs(F) ** 2)) * (TWO_PI / (n * dt)))


def interaction_frame(f: SpaceTimeField) -> SpaceTimeField:
    """The profile e^{-itL} u(t): each slice demodulated by the free flow."""
    phases = free_phase(-f.times, f.spec.dispersion)
    return SpaceTimeField(f.spec, f.T_w, phases * f.values, f.taper)


def hb_hs_norm(f: SpaceTimeField, s: float, b: float) -> float:
    """Plain H^b_t H^s_x norm of the sampled field (no dispersion weight)."""
    dt = f.T_w / f.M_t
    time_weight = _time_weight(f.M_t, dt, b).reshape((-1,) + (1,) * f.spec.d)
    return _hb_norm(f.values, dt, time_weight * sobolev_weights(f.spec, s))


def xsb_norm(f: SpaceTimeField, s: float, b: float) -> float:
    """Dispersive (s, b) norm; requires a tapered field."""
    if f.taper is None:
        raise ValueError("dispersive norms need a tapered field")
    return hb_hs_norm(interaction_frame(f), s, b)


def cubic_product(f: SpaceTimeField) -> SpaceTimeField:
    """|u|^2 u evaluated pointwise on the space-time collocation grid.

    Unmasked: the product keeps its full spectrum up to grid aliasing."""
    return SpaceTimeField(f.spec, f.T_w, nonlinear_term(f.spec, f.values, 1), f.taper)


# ---------------------------------------------------------------------------
# the time-integration gain probe (scalar signals)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainProbeResult:
    T_values: tuple[float, ...]
    max_ratios: tuple[float, ...]
    fitted_exponent: float


# bytes per space-time entry (M_t N^d) at the peak of trilinear_constant_probe,
# a few complex stacks of one sample: 80 by tracemalloc at d2N32 and d3N16
# (M_t = 32 to 256, one to four samples), 89 at d1N64.
_PROBE_ENTRY_BYTES = 80


def check_probe_inputs(spec: ManifoldSpec | None, n_samples: int, M_t: int | None,
                       space_band: int | None, time_band: int | None) -> None:
    """Raise ValueError unless a probe can draw n_samples >= 1 signals on a
    window of M_t times, even and > 8 (the taper's edges need more than 8),
    with 0 < time_band < M_t / 2 and space_band >= 0, and its space-time
    stacks on spec's lattice fit under MAX_TRACE_BYTES, the cap of every
    time-sampled field stack. A None argument is not checked: the gain probe
    has no window or lattice, a field no bands, and a None space_band is the
    probe's default."""
    if n_samples < 1:
        raise ValueError(f"need samples >= 1, got {n_samples}")
    if M_t is not None and (M_t % 2 or M_t <= 8):
        raise ValueError(f"M_t must be even and > 8 for the taper, got {M_t}")
    if time_band is not None and not 0 < time_band < M_t // 2:
        raise ValueError(f"time band out of range: need 0 < time_band < {M_t // 2}, got {time_band}")
    if space_band is not None and space_band < 0:
        raise ValueError(f"space_band must be >= 0, got {space_band}")
    if spec is not None:
        need = _PROBE_ENTRY_BYTES * M_t * spec.n_modes
        if need > MAX_TRACE_BYTES:
            raise ValueError(
                f"a probe of M_t = {M_t} times at d = {spec.d}, N = {spec.N} needs about "
                f"{need} bytes, more than the {MAX_TRACE_BYTES} a time-sampled stack may "
                "hold; lower M_t or N"
            )


def check_gain_exponents(b: float, b_prime: float) -> None:
    """Raise ValueError outside the range of the gain estimate."""
    if not (0.0 < b_prime < 0.5 < b and b + b_prime <= 1.0):
        raise ValueError("need 0 < b' < 1/2 < b and b + b' <= 1")


def _probe_signal(t: np.ndarray, w: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """sum_k amps[k] e^{i w[k] t} over a uniform grid t of 64 m times, with
    e^{iwt_{64c+f}} = e^{iwt_{64c}} e^{iw(t_f - t_0)}: m + 64 exponentials per w[k]."""
    return ((free_phase(t[::64], w) * amps) @ free_phase(t[:64] - t[0], w).T).ravel()


def duhamel_gain_probe(
    b: float,
    b_prime: float,
    n_samples: int,
    rng: np.random.Generator,
) -> GainProbeResult:
    """Measured gain || Psi(t/T) int_0^t f || _{H^b} / || f ||_{H^{-b'}}
    over scalar test signals on 8192 points of [-4, 4), swept over the
    window lengths T = 1, 1/2, 1/4 (the estimate is for T <= 1) to expose
    the T^{1-b-b'} scaling.

    Valid parameter range 0 < b' < 1/2 < b, b + b' <= 1. The zero signal
    among them is skipped (its ratio is 0/0).
    """
    check_gain_exponents(b, b_prime)
    check_probe_inputs(None, n_samples, None, None, None)
    T_values = (1.0, 0.5, 0.25)
    t = np.linspace(-4.0, 4.0, 8192, endpoint=False)
    dt = t[1] - t[0]
    i0 = np.searchsorted(t, 0.0)
    weight_num, weight_den = _time_weight(len(t), dt, b), _time_weight(len(t), dt, -b_prime)
    max_ratios = []
    for T in T_values:
        # one bump is both the signal cutoff and the window Psi(t/T)
        chi = plateau_bump(t / T, -2.0, -1.0, 1.0, 2.0)
        best = 0.0
        freqs = [0.5 / T, 1.0 / T, 2.0 / T, 4.0 / T, 8.0 / T]
        for i in range(n_samples):
            if i < len(freqs):
                w, amps = np.array([freqs[i]]), np.ones(1)
            elif i == len(freqs):
                continue  # the zero signal
            else:
                w = rng.uniform(0.25 / T, 12.0 / T, size=3)
                amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = chi * _probe_signal(t, w, amps)
            denom = _hb_norm(f, dt, weight_den)
            prim = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * dt)])
            best = max(best, _hb_norm(chi * (prim - prim[i0]), dt, weight_num) / denom)
        max_ratios.append(best)
    slope = float(np.polyfit(np.log(T_values), np.log(max_ratios), 1)[0])
    return GainProbeResult(
        T_values=T_values, max_ratios=tuple(max_ratios), fitted_exponent=slope
    )


def trilinear_constant_probe(
    spec: ManifoldSpec,
    s: float,
    b_prime: float,
    n_samples: int,
    rng: np.random.Generator,
    M_t: int = 128,
    space_band: int | None = None,
    time_band: int = 8,
) -> float:
    """Largest observed ||  |u|^2 u ||_{X^{s,-b'}} / ||u||^3_{X^{s,b'}} over
    random tapered band-limited fields on the window [0, 2pi]."""
    if not 0.0 < b_prime < 0.5:
        raise ValueError("need 0 < b' < 1/2")
    if not math.isfinite(s):  # a NaN ratio would lose to max(0.0, .) unseen
        raise ValueError(f"s must be finite, got {s}")
    if space_band is None:
        space_band = spec.N // 8
    check_probe_inputs(spec, n_samples, M_t, space_band, time_band)
    best = 0.0
    for _ in range(n_samples):
        u = random_spacetime_field(spec, rng, TWO_PI, M_t, space_band, time_band)
        nu = xsb_norm(u, s, b_prime)
        if nu > 0.0:
            best = max(best, xsb_norm(cubic_product(u), s, -b_prime) / nu**3)
        del u  # one field and its cube at a time: both go before the next draw
    return best
