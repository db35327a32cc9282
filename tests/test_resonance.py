import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from b4nls import resonance as rz
from oracles import enumerate_pairs, lambda4


# ---------------------------------------------------------------------------
# quartic phases
# ---------------------------------------------------------------------------

def test_lambda4_values():
    assert lambda4(1, 0, 1) == 25
    assert lambda4(2, 1, 1) == 156
    assert lambda4(1, 1, 2) == Fraction(55, 2)


def test_lambda4_rejects_bad_input():
    with pytest.raises(rz.ResonanceError):
        lambda4(0, 0, 1)
    with pytest.raises(rz.ResonanceError):
        lambda4(1, 2, 4)  # not lowest terms
    with pytest.raises(rz.ResonanceError):
        lambda4(1, 1, 0)


# ---------------------------------------------------------------------------
# dyadic enumeration
# ---------------------------------------------------------------------------

def test_enumerate_unit_box():
    assert enumerate_pairs(1, 1, Fraction(50), 0, 1) == [(1, 1)]
    assert enumerate_pairs(1, 1, Fraction(51), 0, 1) == []


def test_enumerate_mixed_box_beta_one():
    # lam_1^4 = 25 + 5 = 30, lam_2^4 = 144 + 12 = 156
    assert enumerate_pairs(1, 2, Fraction(186), 1, 1) == [(1, 2)]


def test_enumerate_requires_ordered_ranges():
    with pytest.raises(rz.ResonanceError):
        enumerate_pairs(4, 2, Fraction(50), 0, 1)


def test_build_table_is_exhaustive():
    table = rz.build_table(2, 2, 0, 1)
    total = sum(len(v) for v in table.buckets.values())
    assert total == 4  # the whole 2x2 dyadic box
    for tau, pairs in table.buckets.items():
        for k, l in pairs:
            assert lambda4(k, 0, 1) + lambda4(l, 0, 1) == tau


def test_monotone_embedding_in_dyadic_ranges():
    # enlarging the box never loses pairs: compare the dyadic enumeration
    # against a wider brute-force box [K, 2K) x [L, 4L)
    p, q = 1, 2
    for tau, pairs in rz.build_table(2, 2, p, q).buckets.items():
        wide = [
            (k, l)
            for k in range(2, 4)
            for l in range(2, 8)
            if lambda4(k, p, q) + lambda4(l, p, q) == tau
        ]
        assert set(pairs) <= set(wide)


def test_table_buckets_equal_enumeration_small():
    # every bucket of the integer-key table is the brute-force enumeration of
    # its phase sum, pair for pair and in order; each pair satisfies the
    # sum-of-two-squares identity of the module docstring
    for p, q in [(0, 1), (1, 2)]:
        K = 1
        while K <= 16:
            for tau, pairs in rz.build_table(K, K, p, q).buckets.items():
                assert pairs == enumerate_pairs(K, K, tau, p, q)
                n = 4 * q * q * tau + 2 * p * p
                for k, l in pairs:
                    x, y = 2 * q * k * (k + 4) + p, 2 * q * l * (l + 4) + p
                    assert n == x * x + y * y
            K *= 2


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_counting_sweep_small():
    sweep = rz.counting_sweep(8, 0, 1)
    assert sweep.dyadic_K == (1, 2, 4, 8)
    assert sweep.max_counts[0] == 1
    assert all(c >= 1 for c in sweep.max_counts)
    assert len(sweep.rows) == 4


def test_counting_sweep_requires_power_of_two():
    with pytest.raises(rz.ResonanceError):
        rz.counting_sweep(24, 0, 1)


def _sweep_from_tables(K_max, p, q):
    """counting_sweep's rows and max counts read off build_table: the max
    count and the first maximal bucket in the table's order."""
    rows, counts = [], []
    K = 1
    while K <= K_max:
        table = rz.build_table(K, K, p, q)
        tau, pairs = max(table.buckets.items(), key=lambda kv: len(kv[1]))
        rows.append((K, tau.numerator, tau.denominator, len(pairs)))
        counts.append(table.max_count)
        K *= 2
    return tuple(rows), tuple(counts)


def test_counting_sweep_keeps_exact_keys_past_int64(monkeypatch):
    # q 2 A^2 + |p| 2 A reaches 2^63 at K = 8 (A = 15 * 19), so int64 keys
    # would wrap; the sweep must fall back to exact integers, which take the
    # same sort and run-length count as int64 keys
    p, q, K_max = 1, 10**15 + 1, 8
    a_top = (2 * K_max - 1) * (2 * K_max + 3)
    assert q * 2 * a_top**2 + abs(p) * 2 * a_top >= 2**63
    sorted_dtypes = []
    sort = np.sort

    def spy(a, *args, **kwargs):
        sorted_dtypes.append(a.dtype)
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(rz.np, "sort", spy)
    sweep = rz.counting_sweep(K_max, p, q)
    monkeypatch.undo()
    assert sorted_dtypes[-1] == object and len(sorted_dtypes) == 4
    assert (sweep.rows, sweep.max_counts) == _sweep_from_tables(K_max, p, q)


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1)])
def test_counting_sweep_equals_the_table_oracle_at_K_256(p, q):
    # past the property test's K_max <= 32: at K = 256 the max count is 2
    # and tens of thousands of buckets tie for it, so the row is the first
    # pair's bucket in the table's order, not just any fullest bucket
    sweep = rz.counting_sweep(256, p, q)
    assert (sweep.rows, sweep.max_counts) == _sweep_from_tables(256, p, q)
    assert sweep.max_counts[-1] == 2
    assert sum(len(v) == 2 for v in rz.build_table(256, 256, p, q).buckets.values()) > 30000


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (1, 2), (-3, 7), (5, 1), (-33, 1),
                                 (1, 10**15 + 1)])
def test_counting_sweep_equals_the_table_oracle_to_K_64(p, q):
    # past the property test's K_max <= 32 at several beta: -33/1 gives
    # k = 2 and 3 one half-key (A + B = 33), and 1/(10^15 + 1) takes the
    # exact (object) keys from K = 4 on
    sweep = rz.counting_sweep(64, p, q)
    assert (sweep.rows, sweep.max_counts) == _sweep_from_tables(64, p, q)


@st.composite
def _betas(draw):
    q = draw(st.one_of(st.integers(1, 60), st.integers(10**14, 10**17)))
    p = draw(st.integers(-60, 60).filter(lambda p: math.gcd(p, q) == 1))
    return p, q


@settings(max_examples=40, deadline=None)
@given(_betas(), st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_counting_sweep_equals_the_table_oracle(beta, K_max):
    p, q = beta
    sweep = rz.counting_sweep(K_max, p, q)
    assert (sweep.rows, sweep.max_counts) == _sweep_from_tables(K_max, p, q)
