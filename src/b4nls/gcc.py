"""Geometric control condition checker on flat tori.

Unit-speed geodesics of T^d are straight lines mod 2pi. For a region to
control the flow, every geodesic must enter it before some uniform time T0;
the checker measures first entry times over a sampled family of geodesics
and either reports the sampled supremum or a witness geodesic that never
enters within the time cap.

The semantics are deliberately one-sided: a witness is a genuine
counterexample up to the region-boundary resolution, while a reported T0
is certified only on the sampled family. On tori the adversarial
geodesics are the closed ones with rational slope, so direction sampling
is built from Farey fractions with a uniform angular grid on top.

First entry is located by a coarse scan in time followed by bisection to
eps_t. `torus_gcc_time` runs that scan for the whole start x direction
family at once in numpy (`regions.contains_points`); `first_hit_time` runs
it for one geodesic with the scalar `regions.contains`. The two make the
same float operations, so the scalar route is the test oracle of the array
route, hit time for hit time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .regions import (
    Region,
    TWO_PI,
    contains,
    contains_points,
    min_feature_size,
    validate_region,
)


@dataclass(frozen=True)
class GeodesicQuery:
    """One torus geodesic and one target region; the direction is
    normalized to unit Euclidean speed."""

    start: tuple
    direction: tuple
    region: Region
    t_max: float = 50.0
    eps_t: float = 1e-6
    scan_dt: float | None = None

    def __post_init__(self):
        _check_horizon(self.t_max, self.eps_t)
        d = np.asarray(self.direction, dtype=float)
        n = float(np.linalg.norm(d))
        if n == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "direction", tuple(d / n))
        validate_region(self.region, len(self.start))


def _check_horizon(t_max: float, eps_t: float) -> None:
    """The bisection stops once hi - lo <= eps_t. Below t_max, adjacent
    floats lie at most ulp(t_max) apart, so a smaller eps_t never stops."""
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    if not eps_t > 0.0:
        raise ValueError("eps_t must be positive")
    if eps_t < math.ulp(t_max):
        raise ValueError(f"eps_t = {eps_t!r} is below ulp(t_max) = {math.ulp(t_max)!r}")


def _inside(q: GeodesicQuery, t: float) -> bool:
    point = tuple((s + t * v) % TWO_PI for s, v in zip(q.start, q.direction))
    return contains(q.region, point)


def _default_scan_dt(region: Region, eps_t: float) -> float:
    # an incursion across the smallest feature lasts at least feature/speed;
    # a quarter of that cannot step over it
    return max(min(min_feature_size(region) / 4.0, 0.05), eps_t)


def first_hit_time(q: GeodesicQuery) -> float | None:
    """Smallest t in [0, t_max] with the geodesic inside the open region,
    located by a coarse scan and bisection to eps_t; None if it misses."""
    if _inside(q, 0.0):
        return 0.0
    dt = q.scan_dt if q.scan_dt is not None else _default_scan_dt(q.region, q.eps_t)
    n = int(math.ceil(q.t_max / dt))
    lo = 0.0
    hit = None
    for j in range(1, n + 1):
        t = min(j * dt, q.t_max)
        if _inside(q, t):
            hit = t
            break
        lo = t
    if hit is None:
        return None
    hi = hit
    while hi - lo > q.eps_t:
        mid = 0.5 * (lo + hi)
        if _inside(q, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# sampled control-time scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicRecord:
    start: tuple
    direction: tuple
    hit_time: float | None


@dataclass(frozen=True)
class GccScan:
    """Outcome of a sampled scan: either a control time T0 certified on the
    sampled family, or a witness geodesic missing the region within t_max."""

    t0: float | None
    witness: GeodesicQuery | None
    records: tuple = field(default_factory=tuple)

    @property
    def holds_on_sample(self) -> bool:
        return self.witness is None


def farey_directions(max_den: int) -> list[tuple[float, float]]:
    """Unit vectors with rational slope p/q, |p|,|q| <= max_den, plus axes.

    Closed torus geodesics have exactly these directions, which is the
    adversarial family for strip-avoidance.
    """
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


_SCAN_BLOCK = 32  # scan times per array step: a few MB for 6,592 geodesics


def _scan_hit_times(
    region: Region,
    starts: np.ndarray,
    directions: np.ndarray,
    t_max: float,
    eps_t: float,
    dt: float,
) -> np.ndarray:
    """`first_hit_time` of every geodesic (rows of starts, unit directions)
    at once, NaN where it misses: the same scan times and the same
    bisection, run in lockstep over the geodesics still unresolved."""
    n_geo = len(starts)
    hit = np.full(n_geo, np.nan)
    at_start = contains_points(region, (starts + 0.0 * directions) % TWO_PI)
    hit[at_start] = 0.0
    lo = np.zeros(n_geo)
    hi = np.full(n_geo, np.nan)
    todo = np.flatnonzero(~at_start)
    n = int(math.ceil(t_max / dt))
    t_prev = 0.0
    for j0 in range(1, n + 1, _SCAN_BLOCK):
        if todo.size == 0:
            break
        t = np.minimum(np.arange(j0, min(j0 + _SCAN_BLOCK, n + 1)) * dt, t_max)
        points = starts[todo, None, :] + t[None, :, None] * directions[todo, None, :]
        ins = contains_points(region, points % TWO_PI)
        got = ins.any(axis=1)
        first = ins.argmax(axis=1)[got]
        rows = todo[got]
        hi[rows] = t[first]
        lo[rows] = np.where(first > 0, t[first - 1], t_prev)
        todo = todo[~got]
        t_prev = t[-1]
    rows = np.flatnonzero(~np.isnan(hi))
    lo, hi = lo[rows], hi[rows]
    active = np.flatnonzero(hi - lo > eps_t)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        r = rows[active]
        ins = contains_points(region, (starts[r] + mid[:, None] * directions[r]) % TWO_PI)
        hi[active] = np.where(ins, mid, hi[active])
        lo[active] = np.where(ins, lo[active], mid)
        active = active[hi[active] - lo[active] > eps_t]
    hit[rows] = 0.5 * (lo + hi)
    return hit


def check_torus_scan(
    region: Region, d: int, t_max: float, eps_t: float, starts_per_dim: int, n_angles: int = 0
) -> None:
    """Raise ValueError unless `torus_gcc_time` can scan these arguments;
    an empty family would report the condition as holding."""
    if d not in (1, 2):
        raise ValueError("torus scans support d = 1 or 2")
    validate_region(region, d)
    _check_horizon(t_max, eps_t)
    if starts_per_dim < 1:
        raise ValueError("starts_per_dim must be >= 1")
    if n_angles < 0:
        raise ValueError("n_angles must be >= 0")


def torus_gcc_time(
    region: Region,
    d: int,
    t_max: float,
    starts_per_dim: int = 8,
    farey_max_den: int = 6,
    n_angles: int = 32,
    eps_t: float = 1e-4,
) -> GccScan:
    """Sampled control time on T^d (d = 1 or 2).

    Geodesics run start by start, each over every direction; the scan stops
    after the first start with a miss, and the witness is the last direction
    that missed from it. Hit times equal `first_hit_time` of each geodesic.
    """
    check_torus_scan(region, d, t_max, eps_t, starts_per_dim, n_angles)
    if d == 1:
        directions = [(1.0,), (-1.0,)]
        starts = [(x,) for x in np.linspace(0.0, TWO_PI, starts_per_dim, endpoint=False)]
    else:
        directions = list(farey_directions(farey_max_den))
        directions += [
            (math.cos(a), math.sin(a))
            for a in np.linspace(0.0, math.pi, n_angles, endpoint=False)
        ]
        axis = np.linspace(0.0, TWO_PI, starts_per_dim, endpoint=False)
        starts = [(x, y) for x in axis for y in axis]

    # normalized as GeodesicQuery normalizes them, one vector at a time
    units = [tuple(np.asarray(v, dtype=float) / float(np.linalg.norm(v))) for v in directions]
    n_dir = len(units)
    dt = _default_scan_dt(region, eps_t)
    start_arr = np.asarray(starts, dtype=float).reshape(-1, d)
    unit_arr = np.asarray(units)
    # starts in chunks of 1, 2, 4, ...: a failing family stops soon after
    # its first miss, as a start-by-start scan would
    hits = np.empty((0, n_dir))
    while len(hits) < len(starts) and not np.isnan(hits).any():
        chunk = start_arr[len(hits):2 * len(hits) + 1]
        h = _scan_hit_times(
            region,
            np.repeat(chunk, n_dir, axis=0),
            np.tile(unit_arr, (len(chunk), 1)),
            t_max, eps_t, dt,
        )
        hits = np.vstack([hits, h.reshape(-1, n_dir)])
    missed = np.isnan(hits)
    failing = np.flatnonzero(missed.any(axis=1))
    n_run = failing[0] + 1 if failing.size else len(starts)
    records = tuple(
        GeodesicRecord(
            start=starts[i], direction=units[j],
            hit_time=None if missed[i, j] else float(hits[i, j]),
        )
        for i in range(n_run)
        for j in range(n_dir)
    )
    if failing.size:
        i = failing[0]
        witness = GeodesicQuery(
            start=starts[i],
            direction=directions[np.flatnonzero(missed[i])[-1]], region=region,
            t_max=t_max, eps_t=eps_t,
        )
        return GccScan(t0=None, witness=witness, records=records)
    return GccScan(t0=float(hits.max(initial=0.0)), witness=None, records=records)

