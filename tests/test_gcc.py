import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import b4nls as b
from b4nls.gcc import GeodesicQuery, check_torus_scan, closing_length, farey_directions
from b4nls.regions import contains, inside_depth

PI = math.pi
TWO_PI = 2.0 * math.pi


def torus_query(start, direction, region, **kw):
    return GeodesicQuery(start=start, direction=direction, region=region, **kw)


# ---------------------------------------------------------------------------
# first entry times
# ---------------------------------------------------------------------------

def test_strip_head_on_hit():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0, 0.0), (1.0, 0.0), region, t_max=10.0)
    t = b.first_hit_time(q)
    assert t == pytest.approx(PI / 2, abs=1e-12)


def test_strip_parallel_miss():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0, 0.0), (0.0, 1.0), region, t_max=50.0)
    assert b.first_hit_time(q) is None


def test_start_inside_is_zero():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((PI,), (1.0,), region, t_max=10.0)
    assert b.first_hit_time(q) == 0.0
    # inside a ball's image that the ray leaves, while the image nearest the
    # ray's first window (center 0.5 + 2 pi) lies ahead of it
    q = torus_query((2.1,), (1.0,), b.Ball((0.5,), 2.0), t_max=10.0)
    assert b.first_hit_time(q) == 0.0


def test_oblique_strip_hit_time():
    # unit direction at angle theta reaches x1 = pi/2 at t = (pi/2)/cos(theta)
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    th = 0.4
    q = torus_query((0.0, 1.0), (math.cos(th), math.sin(th)), region, t_max=20.0)
    t = b.first_hit_time(q)
    assert t == pytest.approx((PI / 2) / math.cos(th), abs=1e-12)


# ---------------------------------------------------------------------------
# sampled control times
# ---------------------------------------------------------------------------

def test_full_region_t0_zero():
    scan = b.torus_gcc_time(b.FullRegion(), 1, t_max=5.0)
    assert scan.holds_on_sample and scan.t0 == 0.0


def test_two_strips_control_time_bound():
    # any unit direction has max(|v1|, |v2|) >= 1/sqrt(2), so the matching
    # coordinate sweeps its circle within 2 pi sqrt(2)
    region = b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1)))
    scan = b.torus_gcc_time(
        region, 2, t_max=15.0, starts_per_dim=6, farey_max_den=4, n_angles=16
    )
    assert scan.holds_on_sample
    assert scan.t0 <= 2 * PI * math.sqrt(2.0)


def test_small_ball_yields_witness():
    region = b.Ball((PI, PI), 0.3)
    scan = b.torus_gcc_time(
        region, 2, t_max=30.0, starts_per_dim=4, farey_max_den=3, n_angles=8
    )
    assert not scan.holds_on_sample
    w = scan.witness
    assert w is not None
    # the witness really avoids the ball: its line keeps distance > radius
    for t in np.linspace(0.0, w.t_max, 4001):
        p = [(s + t * v) % (2 * PI) for s, v in zip(w.start, w.direction)]
        d = math.hypot(
            min(abs(p[0] - PI), 2 * PI - abs(p[0] - PI)),
            min(abs(p[1] - PI), 2 * PI - abs(p[1] - PI)),
        )
        assert d >= 0.3


def test_horizontal_line_avoids_center_ball():
    # the closed geodesic x2 = 0 stays at distance pi from (pi, pi)
    region = b.Ball((PI, PI), 0.3)
    q = torus_query((0.0, 0.0), (1.0, 0.0), region, t_max=100.0)
    assert b.first_hit_time(q) is None


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_refinement_monotonicity():
    # T0 is a supremum over the sampled family, so refining the family (4 of
    # the 8 starts per axis, Farey denominators to 3 of 6, 8 of the 32
    # angles) can only raise it; the two angle grids agree to an ulp
    region = b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1)))
    coarse = b.torus_gcc_time(region, 2, 20.0, starts_per_dim=4, farey_max_den=3, n_angles=8)
    fine = b.torus_gcc_time(region, 2, 20.0, starts_per_dim=8, farey_max_den=6, n_angles=32)
    assert coarse.t0 <= fine.t0 + 1e-12


def test_translation_equivariance():
    shift = 1.234
    region1 = b.Strip(PI / 2, 3 * PI / 2, 0)
    region2 = b.Strip(PI / 2 + shift, 3 * PI / 2 + shift, 0)
    q1 = torus_query((0.3, 0.5), (0.8, 0.6), region1, t_max=20.0)
    q2 = torus_query((0.3 + shift, 0.5), (0.8, 0.6), region2, t_max=20.0)
    t1, t2 = b.first_hit_time(q1), b.first_hit_time(q2)
    assert abs(t1 - t2) <= 1e-12


def test_direction_normalization_and_validation():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0,), (2.0,), region)
    assert q.direction == (1.0,)
    with pytest.raises(ValueError):
        torus_query((0.0,), (0.0,), region)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_ball_with_a_non_finite_center_is_refused(bad):
    # a NaN center used to pass: the scan reported a witness and the
    # damping profile came out all zero
    with pytest.raises(ValueError, match="ball center must be finite"):
        b.torus_gcc_time(b.Ball((bad, 1.0), 0.5), 2, 10.0)
    with pytest.raises(ValueError, match="ball center must be finite"):
        b.make_damping_profile(b.make_torus(1, 32, 1.0), b.Ball((bad,), 0.5), 0.1)


def test_farey_directions_contain_adversaries():
    dirs = farey_directions(4)
    arr = np.array(dirs)
    norms = np.linalg.norm(arr, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    s2 = 1.0 / math.sqrt(2.0)
    has = lambda v: any(abs(a - v[0]) < 1e-12 and abs(bb - v[1]) < 1e-12 for a, bb in dirs)
    assert has((1.0, 0.0)) and has((0.0, 1.0)) and has((s2, s2)) and has((s2, -s2))
    # each closes on its primitive integer vector (q, p)
    assert all(closing_length(v, 4) is not None for v in dirs)
    assert closing_length((s2, -s2), 4) == pytest.approx(TWO_PI * math.sqrt(2.0), rel=1e-15)
    assert closing_length((math.cos(0.3), math.sin(0.3)), 4) is None


def _farey_loop(max_den):
    """The Farey family one pair at a time, the oracle of the array build:
    round of a numpy float64 is numpy's rounding, which np.round repeats."""
    dirs = {(1.0, 0.0), (0.0, 1.0)}
    for qden in range(1, max_den + 1):
        for pnum in range(0, max_den + 1):
            if math.gcd(pnum, qden) != 1:
                continue
            for sp in (1.0, -1.0):
                v = np.array([qden, sp * pnum], dtype=float)
                v /= np.linalg.norm(v)
                dirs.add((round(v[0], 15), round(v[1], 15)))
                dirs.add((round(v[1], 15), round(v[0], 15)))
    return sorted(dirs)


@pytest.mark.parametrize("max_den", [0, 1, 6, 15, 64])
def test_farey_directions_are_the_pair_loop_bit_for_bit(max_den):
    # the bits too: a -0.0 would equal 0.0 in the list comparison
    dirs = farey_directions(max_den)
    oracle = _farey_loop(max_den)
    assert dirs == oracle
    assert np.array_equal(np.array(dirs).view(np.int64), np.array(oracle, dtype=float).view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.floats(-1e6, 1e6)] * d))
       .filter(lambda v: math.hypot(*v) > 1e-6))
def test_a_normalized_direction_passes_through_unchanged(direction):
    region = b.FullRegion()
    q = GeodesicQuery(start=(0.0,) * len(direction), direction=direction, region=region)
    assert abs(math.hypot(*q.direction) - 1.0) <= 1e-15
    again = GeodesicQuery(start=q.start, direction=q.direction, region=region)
    assert again.direction == q.direction


def test_union_scan_resolves_thin_part():
    # a union is entered at its first part's entry, however thin that part
    thin = b.Strip(1.0, 1.02, 1)
    union = b.RegionUnion((b.Strip(0.0, 3.0, 0), thin))
    t_union = b.first_hit_time(torus_query((4.0, 0.0), (0.0, 1.0), union, t_max=10.0))
    t_thin = b.first_hit_time(torus_query((4.0, 0.0), (0.0, 1.0), thin, t_max=10.0))
    assert t_thin == pytest.approx(1.0, abs=1e-12)
    assert t_union == t_thin


def test_scan_rejects_a_nonpositive_horizon_tolerance_or_sample():
    # the ball entry marches over [0, t_max], so the horizon must be finite
    # as well as positive
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    for t_max in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            b.torus_gcc_time(region, 2, t_max=t_max)
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            check_torus_scan(region, 2, t_max, 8, 6, 32)
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            torus_query((0.0,), (1.0,), region, t_max=t_max)
    # an empty family would report the condition as holding
    with pytest.raises(ValueError, match="starts_per_dim"):
        b.torus_gcc_time(region, 2, t_max=5.0, starts_per_dim=0)


def test_scan_at_the_float_spacing_returns():
    region = b.Strip(1.0, 1.5, 0)
    scan = b.torus_gcc_time(region, 1, t_max=40.0, starts_per_dim=1)
    assert scan.holds_on_sample
    assert scan.t0 == pytest.approx(2 * PI - 1.5, abs=1e-12)
    q = torus_query((0.0,), (-1.0,), region, t_max=40.0)
    assert b.first_hit_time(q) == scan.hit_times[0, 1] == scan.t0
    # a start one float spacing below the edge enters within that spacing,
    # and a start on the edge enters at once
    below = math.nextafter(1.0, 0.0)
    assert 0.0 <= b.first_hit_time(torus_query((below,), (1.0,), region)) <= 2 * (1.0 - below)
    assert b.first_hit_time(torus_query((1.0,), (1.0,), region)) == 0.0


# ---------------------------------------------------------------------------
# the closed form against a sampling oracle
# ---------------------------------------------------------------------------

TOL = 1e-9  # the oracle's resolution, in depth and in time


def _on_boundary(region, point):
    """Whether a step of TOL along some axis changes membership."""
    steps = [tuple(x + s * TOL * (i == k) for i, x in enumerate(point))
             for k in range(len(point)) for s in (-1.0, 1.0)]
    return len({contains(region, p) for p in [point] + steps}) > 1


def assert_first_hit(region, start, direction, t_max, hit):
    """Hold a reported first hit (None for a miss) against `contains` and
    `inside_depth` alone:
    - after the start, the geodesic is on the boundary at the hit;
    - it is inside at the hit or just after, unless the hit is at a start
      on the boundary, which roundoff may count in or out;
    - sampling [0, hit), or all of [0, t_max] for a miss, finds no point
      deeper inside than TOL."""
    def at(t):
        return tuple(s + t * v for s, v in zip(start, direction))

    times = np.arange(0.0, t_max, 0.01)
    if hit is not None:
        assert 0.0 <= hit <= t_max
        if hit > 0.0:
            assert abs(inside_depth(region, at(hit))) <= TOL
        assert any(contains(region, at(hit + eta)) for eta in (0.0, 1e-9, 1e-7, 1e-5)) or (
            hit == 0.0 and _on_boundary(region, at(0.0))
        )
        times = np.concatenate([times[times < hit - TOL], hit - np.array([1e-7, 1e-5, 1e-3])])
    for t in times[times >= 0.0]:
        assert inside_depth(region, at(t)) <= TOL, t


def _strips(d):
    return st.builds(
        lambda lo, width, axis: b.Strip(lo, lo + width, axis),
        st.floats(-7.0, 7.0), st.floats(0.01, 6.2), st.integers(0, d - 1),
    )


def _balls(d):
    return st.builds(
        b.Ball,
        st.tuples(*[st.floats(0.0, 2 * PI)] * d), st.floats(0.05, 2.0),
    )


@st.composite
def _hit_cases(draw):
    d = draw(st.integers(1, 2))
    part = st.one_of(_strips(d), _balls(d))
    region = draw(st.one_of(
        part, st.builds(lambda ps: b.RegionUnion(tuple(ps)), st.lists(part, min_size=1, max_size=3))
    ))
    coord = st.floats(-10.0, 10.0)
    # each direction component is 0 or at least 1e-3 in size, so that the
    # oracle's step of 1e-5 past a hit moves every moving coordinate by far
    # more than its float spacing
    component = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    geodesics = draw(st.lists(
        st.tuples(st.tuples(*[coord] * d), st.tuples(*[component] * d))
        .filter(lambda g: math.hypot(*g[1]) > 0.1),
        min_size=1, max_size=4,
    ))
    t_max = draw(st.floats(0.5, 12.0))
    return region, geodesics, t_max


@settings(max_examples=60, deadline=None)
@given(_hit_cases())
def test_first_hit_time_passes_the_sampling_oracle(case):
    region, geodesics, t_max = case
    for s, v in geodesics:
        q = GeodesicQuery(start=s, direction=v, region=region, t_max=t_max)
        assert_first_hit(region, q.start, q.direction, t_max, b.first_hit_time(q))


def test_family_records_pass_the_sampling_oracle():
    # the family stops at the first start with a miss; starts with x in
    # {0, pi/2} lie in the strip, and x = pi is the first to miss. The hit
    # times of the last two starts, misses included, pass the oracle
    region = b.RegionUnion((b.Strip(-0.5, 1.7, 0), b.Ball((4.0, 4.0), 0.5)))
    scan = b.torus_gcc_time(region, 2, t_max=12.0, starts_per_dim=4, farey_max_den=3,
                            n_angles=6)
    angles = np.linspace(0.0, PI, 6, endpoint=False)
    raw = farey_directions(3) + [(math.cos(a), math.sin(a)) for a in angles]
    n_dir = len(raw)
    assert not scan.holds_on_sample
    assert scan.starts.shape == (9, 2)
    assert scan.directions.shape == (n_dir, 2) and scan.hit_times.shape == (9, n_dir)
    missed = np.flatnonzero(np.isnan(scan.hit_times[-1]))
    assert missed.size and not np.isnan(scan.hit_times[:-1]).any()
    assert scan.witness.start == tuple(scan.starts[-1])
    assert scan.witness.direction == tuple(scan.directions[missed[-1]])
    for i in (-2, -1):
        for v, unit, t in zip(raw, scan.directions, scan.hit_times[i]):
            # each direction is normalized as GeodesicQuery normalizes it
            q = GeodesicQuery(start=tuple(scan.starts[i]), direction=v, region=region, t_max=12.0)
            assert q.direction == tuple(unit)
            hit = None if np.isnan(t) else float(t)
            assert b.first_hit_time(q) == hit
            assert_first_hit(region, q.start, q.direction, 12.0, hit)



def test_queries_from_the_scan_directions_reproduce_its_hit_times_bit_for_bit():
    # the family of the test above: a query built from a scan's unit
    # direction keeps it, so its first_hit_time is the scan's hit time
    region = b.RegionUnion((b.Strip(-0.5, 1.7, 0), b.Ball((4.0, 4.0), 0.5)))
    scan = b.torus_gcc_time(region, 2, t_max=12.0, starts_per_dim=4, farey_max_den=3,
                            n_angles=6)
    for start, times in zip(scan.starts, scan.hit_times):
        for unit, t in zip(scan.directions, times):
            q = GeodesicQuery(start=tuple(start), direction=tuple(unit), region=region, t_max=12.0)
            assert q.direction == tuple(unit)
            assert b.first_hit_time(q) == (None if np.isnan(t) else float(t))


# a strip union with a strip on every axis: its regions, the upper edges
# (a_i) that open each axis's widest gap, and the gap lengths L_i
GAP_BOXES = {
    "bench-two-strips": (b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(0.0, 1.0, 1))),
                         (1.0, 1.0), (2 * PI - 1.0, 2 * PI - 1.0)),
    "one-strip-d1": (b.Strip(0.0, 1.0, 0), (1.0,), (2 * PI - 1.0,)),
    # axis 0 has gaps of 2 and 2 pi - 3.5; axis 1 one gap of 2 pi - 0.5
    "three-strips": (b.RegionUnion((b.Strip(0.0, 1.0, 0), b.Strip(3.0, 3.5, 0),
                                    b.Strip(2.0, 2.5, 1))),
                     (3.5, 2.5), (2 * PI - 3.5, 2 * PI - 0.5)),
}


@pytest.mark.parametrize("name", sorted(GAP_BOXES))
def test_the_gap_box_diagonal_hits_at_the_exact_control_time(name):
    # a geodesic avoids every strip only while each coordinate stays in one
    # gap, so none misses for longer than sqrt(sum L_i^2), and the diagonal
    # of the widest gap box misses for exactly that long
    region, corner, gaps = GAP_BOXES[name]
    control_time = math.hypot(*gaps)
    q = torus_query(corner, gaps, region, t_max=20.0)
    assert abs(b.first_hit_time(q) - control_time) <= 1e-12
    scan = b.torus_gcc_time(region, len(corner), t_max=20.0)
    assert scan.holds_on_sample
    assert scan.t0 <= control_time
    if name == "bench-two-strips":
        assert round(control_time, 3) == 7.472


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-6, 1e-3])
def test_a_start_at_a_ball_edge_enters_only_moving_in(gap):
    # starts on or just outside the sphere, with directions at angle theta
    # to the outward normal and to the inward one: moving out, even almost
    # tangentially, they miss (no other image is within reach of t_max = 1),
    # and moving straight in they enter after the gap. A start on the
    # sphere is in or out by roundoff, so only the oracle holds it
    region = b.Ball((PI, PI), 1.0)
    for angle in np.linspace(0.0, 2 * PI, 7, endpoint=False):
        start = (PI + (1.0 + gap) * math.cos(angle), PI + (1.0 + gap) * math.sin(angle))
        for theta in (0.0, 1.0, 1.5688):
            for sign in (1.0, -1.0):
                direction = (sign * math.cos(angle + theta), sign * math.sin(angle + theta))
                hit = b.first_hit_time(torus_query(start, direction, region, t_max=1.0))
                assert_first_hit(region, start, direction, 1.0, hit)
                if gap > 0.0 and sign > 0.0:
                    assert hit is None
                if gap > 0.0 and sign < 0.0 and theta == 0.0:
                    assert hit == pytest.approx(gap, abs=1e-12)
