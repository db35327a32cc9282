"""Independent routes that the tests hold the package's run paths against.

Nothing in `src/b4nls` calls these. Each is written out from the package's
public names and the definitions in its module docstrings, so it shares no
private helper with the route it checks. verify_certificate is the one
exception: it recomputes a certificate's residual by hum's own two
verifiers, on a fresh operator.
"""

import math
from fractions import Fraction

import numpy as np

from b4nls.bourgain import SpaceTimeField, make_taper
from b4nls.hum import HumOperator, _verify_closed_form, _verify_integrator
from b4nls.regions import TWO_PI
from b4nls.resonance import ResonanceError
from b4nls.spectral import SpectralField, box_mask, sobolev_weights


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def propagate_free(u: SpectralField, t: float) -> SpectralField:
    """Exact free flow: c_k -> exp(i t (|k|^4 + beta |k|^2)) c_k. Unitary."""
    phase = np.exp(1j * t * u.spec.dispersion)
    return SpectralField(u.spec, phase * u.coeffs)


def coeffs_to_grid(spec, coeffs: np.ndarray) -> np.ndarray:
    """Values on the collocation grid x_j = 2pi j / N of lattice coefficients:
    the lattice shifted into FFT order, inverse-transformed over the last d
    axes and scaled by N^d / (2pi)^{d/2}."""
    axes = tuple(range(-spec.d, 0))
    shifted = np.fft.ifftshift(coeffs, axes=axes)
    scale = spec.n_modes / TWO_PI ** (spec.d / 2.0)
    return np.fft.ifftn(shifted, s=spec.shape, axes=axes) * scale


def grid_to_coeffs(spec, values: np.ndarray) -> np.ndarray:
    """Lattice coefficients of grid values; inverse of coeffs_to_grid."""
    axes = tuple(range(-spec.d, 0))
    return np.fft.fftshift(np.fft.fftn(values, s=spec.shape, axes=axes), axes=axes) * (
        TWO_PI ** (spec.d / 2.0) / spec.n_modes
    )


# ---------------------------------------------------------------------------
# bourgain
# ---------------------------------------------------------------------------

def tapered_free_solution(v0_coeffs: np.ndarray, spec, T_w: float, M_t: int) -> SpaceTimeField:
    """psi(t) e^{itL} v0 on the window grid."""
    taper = make_taper(T_w, M_t)
    t = T_w * np.arange(M_t) / M_t
    phases = np.exp(1j * t.reshape((-1,) + (1,) * spec.d) * spec.dispersion)
    vals = taper.reshape((-1,) + (1,) * spec.d) * phases * v0_coeffs
    return SpaceTimeField(spec, T_w, vals, taper)


def l2hs_norm(f: SpaceTimeField, s: float) -> float:
    """Discrete L^2_t H^s_x on the window (rectangle rule, exact for the
    periodic grid)."""
    ws = sobolev_weights(f.spec, s)
    dt = f.T_w / f.M_t
    return math.sqrt(float(np.sum(ws * np.abs(f.values) ** 2)) * dt)


def time_sobolev_norm_quadrature(taper: np.ndarray, T_w: float, b: float) -> float:
    """H^b(R) norm of the taper by direct quadrature on an 8x oversampled
    grid padded to 4 windows; the independent oracle for the free-solution
    identity."""
    oversample, pad = 8, 4
    m = len(taper) * oversample
    # resample by trigonometric interpolation of the smooth taper
    spec_c = np.fft.fft(taper)
    half = len(taper) // 2
    padded = np.zeros(m, dtype=complex)
    padded[:half] = spec_c[:half]
    padded[-half:] = spec_c[-half:]
    fine = np.real(np.fft.ifft(padded) * oversample)
    # embed in a window pad times longer so the frequency grid refines
    big = np.zeros(m * pad)
    big[:m] = fine
    W = T_w * pad
    F = np.fft.ifft(big) * len(big) * (W / len(big)) / math.sqrt(TWO_PI)
    tau = (TWO_PI / W) * np.fft.fftfreq(len(big)) * len(big)
    dtau = TWO_PI / W
    return math.sqrt(float(np.sum((1.0 + tau**2) ** b * np.abs(F) ** 2) * dtau))


# ---------------------------------------------------------------------------
# resonance
# ---------------------------------------------------------------------------

def _check_beta(p: int, q: int) -> None:
    if q < 1:
        raise ResonanceError("beta denominator must be >= 1")
    if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
        raise ResonanceError("beta must be given in lowest terms")


def lambda4(k: int, p: int, q: int) -> Fraction:
    """Exact quartic phase [k(k+4)]^2 + (p/q) k(k+4) of the k-th cluster."""
    if k < 1:
        raise ResonanceError("cluster index k must be >= 1")
    _check_beta(p, q)
    a = k * (k + 4)
    return Fraction(a * a) + Fraction(p, q) * a


def enumerate_pairs(K: int, L: int, tau: Fraction, p: int, q: int) -> list[tuple[int, int]]:
    """All (k, l) with K <= k < 2K, L <= l < 2L and lam_k^4 + lam_l^4 = tau,
    by exact brute-force scan of the dyadic box."""
    if K > L:
        raise ResonanceError("dyadic ranges must satisfy K <= L")
    _check_beta(p, q)
    tau = Fraction(tau)
    out = []
    for k in range(K, 2 * K):
        rest = tau - lambda4(k, p, q)
        for l in range(L, 2 * L):
            if lambda4(l, p, q) == rest:
                out.append((k, l))
    return out


# ---------------------------------------------------------------------------
# hum
# ---------------------------------------------------------------------------

def operator_layout(phi, band):
    """(layout, rows) in flat lattice indices: the support S a dual datum
    may occupy, the modes with every |k_i| <= band or every mode when band
    is None, as m^(d-v) groups of m^v modes (phi varies along v axes): the
    cube of S with its axes permuted so that phi's constant axes come
    first. For each group, rows holds the N^v modes with its wavenumbers on
    the constant axes, the group's own first, then the others in lattice
    order."""
    spec, shape = phi.spec, phi.compact.shape
    axes = sorted(range(spec.d), key=lambda axis: shape[axis] > 1)
    v = sum(n > 1 for n in shape)

    def grouped(modes):
        m = round(len(modes) ** (1.0 / spec.d))
        return modes.reshape((m,) * spec.d).transpose(axes).reshape(-1, m**v)

    full = grouped(np.arange(spec.n_modes))
    layout = full if band is None else grouped(np.flatnonzero(box_mask(spec, band)))
    rows = full[np.isin(full, layout).any(axis=1)]
    own = np.isin(rows[0], layout[0])  # the same places in every group
    return layout, np.concatenate([rows[:, own], rows[:, ~own]], axis=1)


def verify_certificate(prob, cert) -> float:
    """Recompute the terminal residual of a certificate from a fresh
    operator, a nonlinear one by a fresh ETDRK4 forward solve and a linear
    one by the exact closed form e^{iTL} (u0 - i Lambda v0); must reproduce
    the stored value."""
    op = HumOperator(prob.spec, prob.phi, prob.T, band=prob.control_band)
    if cert.kind == "nonlinear":
        return _verify_integrator(prob, op, cert.dual_datum)
    return _verify_closed_form(prob, op, cert.dual_datum)
