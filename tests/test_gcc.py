import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import b4nls as b
from b4nls.gcc import (
    GeodesicQuery,
    _default_scan_dt,
    _scan_hit_times,
    check_torus_scan,
    farey_directions,
)
from b4nls.regions import contains, contains_points

PI = math.pi


def torus_query(start, direction, region, **kw):
    return GeodesicQuery(start=start, direction=direction, region=region, **kw)


# ---------------------------------------------------------------------------
# first entry times
# ---------------------------------------------------------------------------

def test_strip_head_on_hit():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0, 0.0), (1.0, 0.0), region, t_max=10.0, eps_t=1e-6)
    t = b.first_hit_time(q)
    assert t == pytest.approx(PI / 2, abs=1e-6)


def test_strip_parallel_miss():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0, 0.0), (0.0, 1.0), region, t_max=50.0)
    assert b.first_hit_time(q) is None


def test_start_inside_is_zero():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((PI,), (1.0,), region, t_max=10.0)
    assert b.first_hit_time(q) == 0.0


def test_oblique_strip_hit_time():
    # unit direction at angle theta reaches x1 = pi/2 at t = (pi/2)/cos(theta)
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    th = 0.4
    q = torus_query(
        (0.0, 1.0), (math.cos(th), math.sin(th)), region, t_max=20.0, eps_t=1e-7
    )
    t = b.first_hit_time(q)
    assert t == pytest.approx((PI / 2) / math.cos(th), abs=1e-6)


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
        region, 2, t_max=15.0, starts_per_dim=6, farey_max_den=4, n_angles=16,
        eps_t=1e-4,
    )
    assert scan.holds_on_sample
    assert scan.t0 <= 2 * PI * math.sqrt(2.0) + 1e-3


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
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    coarse = torus_query((0.1,), (1.0,), region, t_max=10.0, eps_t=1e-3)
    fine = torus_query((0.1,), (1.0,), region, t_max=10.0, eps_t=5e-4)
    t_c = b.first_hit_time(coarse)
    t_f = b.first_hit_time(fine)
    assert t_c - t_f <= 1e-3 + 1e-12


def test_translation_equivariance():
    shift = 1.234
    region1 = b.Strip(PI / 2, 3 * PI / 2, 0)
    region2 = b.Strip(PI / 2 + shift, 3 * PI / 2 + shift, 0)
    q1 = torus_query((0.3, 0.5), (0.8, 0.6), region1, t_max=20.0, eps_t=1e-7)
    q2 = torus_query((0.3 + shift, 0.5), (0.8, 0.6), region2, t_max=20.0, eps_t=1e-7)
    t1, t2 = b.first_hit_time(q1), b.first_hit_time(q2)
    assert abs(t1 - t2) <= 1e-12


def test_direction_normalization_and_validation():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0,), (2.0,), region)
    assert q.direction == (1.0,)
    with pytest.raises(ValueError):
        torus_query((0.0,), (0.0,), region)


def test_farey_directions_contain_adversaries():
    dirs = farey_directions(4)
    arr = np.array(dirs)
    norms = np.linalg.norm(arr, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    s2 = 1.0 / math.sqrt(2.0)
    has = lambda v: any(abs(a - v[0]) < 1e-12 and abs(bb - v[1]) < 1e-12 for a, bb in dirs)
    assert has((1.0, 0.0)) and has((0.0, 1.0)) and has((s2, s2)) and has((s2, -s2))


def test_union_scan_resolves_thin_part():
    # the scan step must follow the thinnest part: the wide strip alone would
    # let the scan step over the 0.02-wide one
    thin = b.Strip(1.0, 1.02, 1)
    union = b.RegionUnion((b.Strip(0.0, 3.0, 0), thin))
    t_union = b.first_hit_time(torus_query((4.0, 0.0), (0.0, 1.0), union, t_max=10.0))
    t_thin = b.first_hit_time(torus_query((4.0, 0.0), (0.0, 1.0), thin, t_max=10.0))
    assert t_thin == pytest.approx(1.0, abs=1e-5)
    assert t_union == pytest.approx(t_thin, abs=1e-5)


# ---------------------------------------------------------------------------
# the array scan against the scalar oracle
# ---------------------------------------------------------------------------

def test_scan_records_are_the_scalar_hit_times():
    # every record of the family scan, misses included, is first_hit_time of
    # its geodesic; the family stops at the first start with a miss
    # starts with x in {0, pi/2} lie in the strip; x = pi is the first to miss
    region = b.RegionUnion((b.Strip(-0.5, 1.7, 0), b.Ball((4.0, 4.0), 0.5)))
    scan = b.torus_gcc_time(region, 2, t_max=12.0, starts_per_dim=4, farey_max_den=3,
                            n_angles=6, eps_t=1e-6)
    n_dir = len(farey_directions(3)) + 6
    assert not scan.holds_on_sample
    assert len(scan.records) == 9 * n_dir
    last_start = scan.records[-n_dir:]
    missed = [r for r in last_start if r.hit_time is None]
    assert missed and all(r.hit_time is not None for r in scan.records[:-n_dir])
    assert scan.witness.start == missed[-1].start
    assert scan.witness.direction == missed[-1].direction
    for rec in scan.records:
        q = torus_query(rec.start, rec.direction, region, t_max=12.0, eps_t=1e-6)
        assert b.first_hit_time(q) == rec.hit_time


def test_scan_rejects_a_nonpositive_horizon_tolerance_or_sample():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    with pytest.raises(ValueError, match="t_max"):
        b.torus_gcc_time(region, 2, t_max=0.0)
    with pytest.raises(ValueError, match="eps_t"):
        b.torus_gcc_time(region, 2, t_max=5.0, eps_t=0.0)
    # an empty family would report the condition as holding
    with pytest.raises(ValueError, match="starts_per_dim"):
        b.torus_gcc_time(region, 2, t_max=5.0, starts_per_dim=0)


def test_array_membership_equals_contains_on_the_boundary():
    # points on ball circles and at strip edges, where depth is a few ulp:
    # squaring by x * x instead of Python's ** flips 3 of the ball points
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = tuple(rng.uniform(0.0, 2 * PI, 2))
        r = rng.uniform(0.1, 2.0)
        th = rng.uniform(0.0, 2 * PI, 2000)
        pts = np.stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th)], -1) % (2 * PI)
        lo = float(rng.uniform(-7.0, 7.0))
        union = b.RegionUnion((b.Ball(c, r), b.Strip(lo, lo + 1.0, 1)))
        pts[:4, 1] = [np.nextafter(y, y + s) for y in (lo, lo + 1.0) for s in (-1.0, 1.0)]
        for region in (b.Ball(c, r), b.Ball(c[:1], r), union):
            d = len(region.center) if isinstance(region, b.Ball) else 2
            got = contains_points(region, pts[:, :d])
            assert got.tolist() == [contains(region, tuple(p)) for p in pts[:, :d]]


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
def _membership_cases(draw):
    d = draw(st.integers(1, 2))
    # lo and hi drawn apart, so lo > hi (a strip that wraps through 0) is common
    strip = st.builds(b.Strip, st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), st.integers(0, d - 1))
    part = st.one_of(strip, _balls(d))
    region = draw(st.one_of(
        part, st.builds(lambda ps: b.RegionUnion(tuple(ps)), st.lists(part, min_size=1, max_size=3))
    ))
    coords = st.floats(-20.0, 20.0)  # mostly outside [0, 2pi)
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=20))
    return region, np.array(points, dtype=float)


@settings(max_examples=200, deadline=None)
@given(_membership_cases())
def test_array_membership_equals_contains(case):
    region, pts = case
    assert contains_points(region, pts).tolist() == [contains(region, tuple(p)) for p in pts]


@st.composite
def _scan_cases(draw):
    d = draw(st.integers(1, 2))
    part = st.one_of(_strips(d), _balls(d))
    region = draw(st.one_of(
        part, st.builds(lambda ps: b.RegionUnion(tuple(ps)), st.lists(part, min_size=1, max_size=3))
    ))
    coord = st.floats(-10.0, 10.0)
    geodesics = draw(st.lists(
        st.tuples(st.tuples(*[coord] * d), st.tuples(*[st.floats(-1.0, 1.0)] * d))
        .filter(lambda g: math.hypot(*g[1]) > 0.1),
        min_size=1, max_size=6,
    ))
    t_max = draw(st.floats(0.5, 20.0))
    eps_t = draw(st.floats(1e-7, 1e-2))
    scan_dt = draw(st.one_of(st.none(), st.floats(0.01, 0.5)))
    return region, geodesics, t_max, eps_t, scan_dt


@settings(max_examples=60, deadline=None)
@given(_scan_cases())
def test_array_scan_equals_the_scalar_scan(case):
    region, geodesics, t_max, eps_t, scan_dt = case
    queries = [
        GeodesicQuery(start=s, direction=v, region=region, t_max=t_max, eps_t=eps_t,
                      scan_dt=scan_dt)
        for s, v in geodesics
    ]
    dt = scan_dt if scan_dt is not None else _default_scan_dt(region, eps_t)
    hits = _scan_hit_times(
        region,
        np.array([q.start for q in queries]),
        np.array([q.direction for q in queries]),
        t_max, eps_t, dt,
    )
    for q, h in zip(queries, hits):
        expected = b.first_hit_time(q)
        if expected is None:
            assert np.isnan(h)
        else:
            assert h == expected


def test_scan_refuses_a_tolerance_below_the_float_spacing():
    # below ulp(t_max) the bisection interval cannot shrink to eps_t; the
    # scan itself would spin, so only the checks are called here
    region = b.Strip(1.0, 1.5, 0)
    with pytest.raises(ValueError, match="ulp"):
        check_torus_scan(region, 1, 40.0, 1e-16, 1)
    with pytest.raises(ValueError, match="ulp"):
        torus_query((0.0,), (1.0,), region, t_max=40.0, eps_t=1e-16)
    check_torus_scan(region, 1, 40.0, math.ulp(40.0), 1)


def test_scan_at_the_float_spacing_returns():
    region = b.Strip(1.0, 1.5, 0)
    eps = math.ulp(40.0)
    scan = b.torus_gcc_time(region, 1, t_max=40.0, starts_per_dim=1, eps_t=eps)
    assert scan.holds_on_sample
    assert scan.t0 == pytest.approx(2 * PI - 1.5, abs=1e-12)
    q = torus_query((0.0,), (-1.0,), region, t_max=40.0, eps_t=eps)
    assert b.first_hit_time(q) == scan.records[1].hit_time == scan.t0
