"""Geometric control condition checker on flat tori.

Unit-speed geodesics of T^d are straight lines mod 2pi. For a region to
control the flow, every geodesic must enter it before some uniform time T0.
The condition is sufficient for the damped equation to decay uniformly, not
necessary: Schroedinger-type equations on tori are observable from any open
set, so a region that misses a geodesic can still damp the flow.

First entry into a strip, a ball or a union of them is closed-form, so every
hit time here is exact to roundoff, with no time step or tolerance:
- a strip is entered when the coordinate on its axis, moving at speed v_a,
  first crosses its near edge;
- a ball is entered at the first ray-sphere crossing over the periodic images
  of its center within reach of t_max;
- a union is entered at the first entry into any part.
`torus_gcc_time` computes these over the whole start x direction family at
once; `first_hit_time` is the same closed form for one geodesic.

A witness is a geodesic that genuinely misses the region up to t_max. A
reported T0 is the exact supremum of the hit times over the sampled family,
so it is a lower bound on the control time, not the control time itself. On
tori the adversarial geodesics are the closed ones with rational slope, so
direction sampling is built from Farey fractions with a uniform angular grid
on top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .regions import (
    Ball,
    FullRegion,
    Region,
    RegionUnion,
    Strip,
    TWO_PI,
    strip_width,
    validate_region,
)

# Nothing here calls contains; the name stays because the benchmark's traced
# run wraps b4nls.gcc.contains (bench/layers.py).
from .regions import contains  # noqa: F401


@dataclass(frozen=True)
class GeodesicQuery:
    """One torus geodesic and one target region; the direction is
    normalized to unit Euclidean speed."""

    start: tuple
    direction: tuple
    region: Region
    t_max: float = 50.0

    def __post_init__(self):
        _check_horizon(self.t_max)
        d = np.asarray(self.direction, dtype=float)
        n = float(np.linalg.norm(d))
        if n == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "direction", tuple(d / n))
        validate_region(self.region, len(self.start))


def _check_horizon(t_max: float) -> None:
    """The ball entry marches over [0, t_max] in windows of length pi, so
    t_max must be finite (NaN fails the test too)."""
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")


def _entry_times(region: Region, starts: np.ndarray, directions: np.ndarray, t_max: float):
    """Exact first time t >= 0 at which start + t direction lies in the open
    region, inf where it never does; an entry after t_max may be reported
    as any time > t_max. starts and unit directions are arrays of shape
    (..., d) that broadcast together."""
    shape = np.broadcast_shapes(starts.shape, directions.shape)[:-1]
    if isinstance(region, FullRegion):
        return np.zeros(shape)
    if isinstance(region, RegionUnion):
        return np.minimum.reduce([_entry_times(p, starts, directions, t_max) for p in region.parts])
    if isinstance(region, Strip):
        w = strip_width(region)
        x = np.broadcast_to((starts[..., region.axis] - region.lo) % TWO_PI, shape)
        v = np.broadcast_to(directions[..., region.axis], shape)
        # distance to the edge the coordinate crosses first: lo moving up, hi moving down
        gap = np.where(v > 0.0, (TWO_PI - x) % TWO_PI, (x - w) % TWO_PI)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, gap / np.abs(v), np.inf)
        return np.where((x > 0.0) & (x < w), 0.0, t)
    if isinstance(region, Ball):
        # The ray meets an image of the ball during [t, t + pi] only if the
        # image's center lies within r + pi/2 of the ray at t + pi/2, so the
        # march visits, window by window, the image nearest that point and
        # its neighbours. An entry is found in the window that holds it, so
        # the march stops once every geodesic has one before the window.
        r, d, h = region.radius, starts.shape[-1], math.pi
        reach = int((min(r, h * math.sqrt(d)) + 1.5 * h) // TWO_PI)
        neighbours = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d)), float)
        to_center = np.asarray(region.center, dtype=float) - starts
        best = np.full(shape, np.inf)
        for j in range(math.ceil(t_max / h)):
            if j * h > best.max(initial=0.0):
                break
            # the index of the image nearest the ray at the window's middle
            nearest = ((j + 0.5) * h * directions - to_center + h) // TWO_PI
            for k in neighbours:
                delta = to_center + TWO_PI * (nearest + k)
                t_c = (delta * directions).sum(-1)
                perp = delta - t_c[..., None] * directions
                half2 = r * r - (perp * perp).sum(-1)
                # from outside, only a ray moving toward the center enters
                entry = np.where((t_c > 0.0) & (half2 > 0.0),
                                 np.maximum(t_c - np.sqrt(np.maximum(half2, 0.0)), 0.0), np.inf)
                best = np.minimum(best, np.where((delta * delta).sum(-1) < r * r, 0.0, entry))
        return best
    raise TypeError(f"unknown region {region!r}")


def _hit_times(region: Region, starts: np.ndarray, directions: np.ndarray, t_max: float):
    """`_entry_times`, NaN where the geodesic misses within t_max."""
    t = _entry_times(region, starts, directions, t_max)
    return np.where(t <= t_max, t, np.nan)


def first_hit_time(q: GeodesicQuery) -> float | None:
    """Exact first time t in [0, t_max] at which the geodesic is in the
    open region (the infimum of such times); None if it misses."""
    t = _hit_times(q.region, np.array([q.start], dtype=float), np.array([q.direction]), q.t_max)
    return None if np.isnan(t[0]) else float(t[0])


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
    """Outcome of a sampled scan: either T0, the largest exact hit time over
    the sampled family (a lower bound on the control time), or a witness
    geodesic missing the region within t_max."""

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


def check_torus_scan(
    region: Region, d: int, t_max: float, starts_per_dim: int, n_angles: int = 0
) -> None:
    """Raise ValueError unless `torus_gcc_time` can scan these arguments;
    an empty family would report the condition as holding."""
    if d not in (1, 2):
        raise ValueError("torus scans support d = 1 or 2")
    validate_region(region, d)
    _check_horizon(t_max)
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
) -> GccScan:
    """Sampled control time on T^d (d = 1 or 2).

    Every start is paired with every direction. The records run start by
    start and stop after the first start with a miss; the witness is the
    last direction that missed from it. Hit times equal `first_hit_time` of
    each geodesic.
    """
    check_torus_scan(region, d, t_max, starts_per_dim, n_angles)
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
    start_arr = np.asarray(starts, dtype=float).reshape(-1, d)
    hits = _hit_times(region, start_arr[:, None, :], np.asarray(units)[None, :, :], t_max)
    missed = np.isnan(hits)
    failing = np.flatnonzero(missed.any(axis=1))
    n_run = failing[0] + 1 if failing.size else len(starts)
    records = tuple(
        GeodesicRecord(
            start=starts[i], direction=units[j],
            hit_time=None if missed[i, j] else float(hits[i, j]),
        )
        for i in range(n_run)
        for j in range(len(units))
    )
    if failing.size:
        i = failing[0]
        witness = GeodesicQuery(
            start=starts[i],
            direction=directions[np.flatnonzero(missed[i])[-1]], region=region, t_max=t_max,
        )
        return GccScan(t0=None, witness=witness, records=records)
    return GccScan(t0=float(hits.max(initial=0.0)), witness=None, records=records)
