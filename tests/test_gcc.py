import math

import numpy as np
import pytest

import b4nls as b
from b4nls.gcc import GeodesicQuery, farey_directions

PI = math.pi


def torus_query(start, direction, region, **kw):
    return GeodesicQuery(
        manifold="torus", start=start, direction=direction, region=region, **kw
    )


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


def test_sphere_equator_misses_polar_cap():
    cap = b.SphereCap((0.0, 0.0, 1.0), 0.5)
    q = GeodesicQuery(
        manifold="sphere2",
        start=(1.0, 0.0, 0.0),
        direction=(0.0, 1.0, 0.0),
        region=cap,
        t_max=2 * PI,
    )
    assert b.first_hit_time(q) is None


def test_sphere_hit_against_trig_oracle():
    # distance from a great circle point p(t) to the cap center c is
    # acos(R cos(t - t0)) with R = sqrt(<x,c>^2 + <w,c>^2); first entry
    # solves acos(R cos(t-t0)) = radius
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        w = rng.standard_normal(3)
        w -= np.dot(w, x) * x
        w /= np.linalg.norm(w)
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        radius = rng.uniform(0.2, 1.2)
        cap = b.SphereCap(tuple(c), radius)
        q = GeodesicQuery(
            manifold="sphere2", start=tuple(x), direction=tuple(w),
            region=cap, t_max=2 * PI, eps_t=1e-8,
        )
        t = b.first_hit_time(q)
        R = math.hypot(float(np.dot(x, c)), float(np.dot(w, c)))
        closest = math.acos(min(R, 1.0))
        if closest >= radius:  # circle never enters the open cap
            assert t is None
        else:
            assert t is not None
            p = math.cos(t) * x + math.sin(t) * w
            ang = math.acos(float(np.clip(np.dot(p, c), -1, 1)))
            assert ang == pytest.approx(radius, abs=1e-6) or t == 0.0


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


def test_sphere_cap_scan_holds():
    cap = b.SphereCap((0.0, 0.0, 1.0), 2.0)  # giant cap: every circle enters
    scan = b.sphere_gcc_time(cap, n_starts=12, n_directions=6)
    assert scan.holds_on_sample
    assert scan.t0 < 2 * PI


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


def test_sphere_rotation_invariance():
    rng = np.random.default_rng(1)
    x = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, math.sin(1.0), math.cos(1.0)])
    cap_r = 1.2  # closest approach of the circle is 1.0, so it enters
    q = GeodesicQuery(
        manifold="sphere2", start=tuple(x), direction=tuple(w),
        region=b.SphereCap(tuple(c), cap_r), t_max=2 * PI, eps_t=1e-7,
    )
    t0 = b.first_hit_time(q)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(A)
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        qr = GeodesicQuery(
            manifold="sphere2", start=tuple(Q @ x), direction=tuple(Q @ w),
            region=b.SphereCap(tuple(Q @ c), cap_r), t_max=2 * PI, eps_t=1e-7,
        )
        tr = b.first_hit_time(qr)
        assert abs(tr - t0) <= 1e-10


def test_direction_normalization_and_validation():
    region = b.Strip(PI / 2, 3 * PI / 2, 0)
    q = torus_query((0.0,), (2.0,), region)
    assert q.direction == (1.0,)
    with pytest.raises(ValueError):
        torus_query((0.0,), (0.0,), region)
    with pytest.raises(ValueError):
        GeodesicQuery(
            manifold="sphere2", start=(1.0, 0.0, 0.0), direction=(1.0, 0.0, 0.0),
            region=b.SphereCap((0.0, 0.0, 1.0), 0.5),
        )


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
