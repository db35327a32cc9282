"""Exact resonance arithmetic for the quartic sphere spectrum.

On the five-sphere the relevant phases are lam_k^4 = [k(k+4)]^2 + beta
k(k+4) with beta = p/q rational. Interactions are governed by how many
index pairs (k, l) in a dyadic box share the same phase sum

    tau = lam_k^4 + lam_l^4.

The counts come from exact integer keys: with A = k(k+4), B = l(l+4), the
pair (k, l) has q tau = q(A^2 + B^2) + p(A + B), so pairs share a phase sum
exactly when they share that integer. Why the counts grow slowly is the
sum-of-two-squares identity

    4 q^2 tau + 2 p^2 = (2qA + p)^2 + (2qB + p)^2,

which bounds a bucket by the representations r2(n) of one integer n.

Everything in this module is exact integer / rational arithmetic; the only
floating point is the growth-exponent fit in the dyadic sweep summary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# bytes the last block's K_max^2 keys may take at the peak of `_max_bucket`:
# 28 B per int64 key (tracemalloc, K = 1024 and 2048), so K_max = 2048 (0.12
# GB) is admitted and 4096 (0.47 GB) is not. An exact key is a Python int
# whose size grows with beta's terms; per key the peak is at most
# sys.getsizeof of the largest key plus _EXACT_KEY_BYTES (tracemalloc, K =
# 128 and 256, q of 16 to 1,001 digits: 36-40 B above the largest key's
# size, 512 B per key at 1,001 digits).
MAX_SWEEP_BYTES = 350_000_000
_INT64_KEY_BYTES = 28
_EXACT_KEY_BYTES = 40


class ResonanceError(ValueError):
    pass


def _top_key(K: int, p: int, q: int) -> int:
    """A bound on |key| over the K x K box: the largest A = k(k+4) in
    q(A^2 + B^2) + |p|(A + B)."""
    a_top = (2 * K - 1) * (2 * K + 3)
    return q * 2 * a_top * a_top + abs(p) * 2 * a_top


def _check_beta(p: int, q: int) -> None:
    if q < 1:
        raise ResonanceError("beta denominator must be >= 1")
    if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
        raise ResonanceError("beta must be given in lowest terms")


@dataclass(frozen=True)
class ResonanceTable:
    """Phase-sum buckets of one dyadic box, exact."""

    buckets: dict  # Fraction tau -> list[(k, l)]
    max_count: int


def build_table(K: int, L: int, p: int, q: int) -> ResonanceTable:
    if K > L:
        raise ResonanceError("dyadic ranges must satisfy K <= L")
    _check_beta(p, q)
    # integer key m = q(A^2 + B^2) + p(A + B), tau = m/q
    avals = [k * (k + 4) for k in range(K, 2 * K)]
    bvals = [l * (l + 4) for l in range(L, 2 * L)]
    buckets: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(avals):
        base = q * a * a + p * a
        for j, b in enumerate(bvals):
            m = base + q * b * b + p * b
            buckets.setdefault(m, []).append((K + i, L + j))
    out = {Fraction(m, q): v for m, v in buckets.items()}
    mx = max(len(v) for v in out.values())
    return ResonanceTable(buckets=out, max_count=mx)


# ---------------------------------------------------------------------------
# the dyadic sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    dyadic_K: tuple[int, ...]
    max_counts: tuple[int, ...]
    growth_exponent: float
    rows: tuple  # (K, tau_numerator, tau_denominator, count) at the max per K


def _max_bucket(K: int, p: int, q: int) -> tuple[int, int]:
    """(max count, key m) of the fullest phase-sum bucket of the K x K box.

    The keys m = q(A^2 + B^2) + p(A + B) of `build_table` are sorted once and
    counted by run length. Of the fullest buckets, the one `build_table`'s
    dict lists first wins: it holds the first key, row by row, that a fullest
    bucket holds. The keys are int64 unless they could reach 2^63, and exact
    Python ints then.
    """
    exact = _top_key(K, p, q) >= 2**63
    a = np.array([k * (k + 4) for k in range(K, 2 * K)], dtype=object if exact else np.int64)
    half = q * a * a + p * a
    keys = half[:, None] + half[None, :]
    s = np.sort(keys, axis=None)
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    counts = np.diff(starts, append=s.size)
    fullest = s[starts[counts == counts.max()]]
    # row i holds the key f when f - half[i] is in half: the first row that
    # holds fullest[0] bounds the first hit, and the rows up to it are
    # tested at once
    head = keys[:np.isin(fullest[0] - half, half).argmax() + 1].ravel()
    hit = fullest[np.searchsorted(fullest, head).clip(max=len(fullest) - 1)] == head
    return int(counts.max()), int(head[hit.argmax()])


def check_sweep(K_max: int, p: int, q: int) -> None:
    """Raise ResonanceError unless `counting_sweep` can run these arguments."""
    if K_max < 1 or K_max & (K_max - 1) != 0:
        raise ResonanceError(f"K_max must be a power of two, got {K_max}")
    _check_beta(p, q)
    top = _top_key(K_max, p, q)
    exact = top >= 2**63
    need = K_max * K_max * (sys.getsizeof(top) + _EXACT_KEY_BYTES if exact else _INT64_KEY_BYTES)
    if need > MAX_SWEEP_BYTES:
        raise ResonanceError(
            f"K_max = {K_max}, beta = {p}/{q}: the last block's {K_max * K_max} "
            f"{'exact' if exact else 'int64'} phase-sum keys need about {need} bytes, more "
            f"than the {MAX_SWEEP_BYTES} a sweep may hold; use a smaller K_max or a beta "
            "with shorter terms"
        )


def counting_sweep(K_max: int, p: int, q: int) -> SweepResult:
    """Max resonance multiplicity per dyadic block K = 1, 2, ..., K_max and
    the fitted growth exponent of max count against K.

    Equal to reading `build_table(K, K, p, q)` for the max count and its
    first maximal bucket, which stays as the test oracle."""
    check_sweep(K_max, p, q)
    ks = []
    counts = []
    rows = []
    K = 1
    while K <= K_max:
        count, m = _max_bucket(K, p, q)
        tau = Fraction(m, q)
        ks.append(K)
        counts.append(count)
        rows.append((K, tau.numerator, tau.denominator, count))
        K *= 2
    slope = float(np.polyfit(np.log(ks), np.log(counts), 1)[0]) if len(ks) > 1 else 0.0
    return SweepResult(
        dyadic_K=tuple(ks), max_counts=tuple(counts), growth_exponent=slope, rows=tuple(rows)
    )
