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
once and returns them as arrays (`GccScan`): the starts, the unit
directions and one hit time per pair, NaN for a miss. `first_hit_time` is
the same closed form for one geodesic. A family is bounded before it is
built (MAX_SCAN_GEODESICS).

A witness is a geodesic that genuinely misses the region up to t_max; a
closed one (`closing_length`) no longer than t_max misses it forever. A
reported T0 is the exact supremum of the hit times over the sampled family,
so it is a lower bound on the control time, not the control time itself. On
tori the adversarial geodesics are the closed ones with rational slope, so
direction sampling is built from Farey fractions with a uniform angular grid
on top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


def _unit(direction) -> tuple[float, ...]:
    """direction / |direction|, or direction itself when its norm is already
    1 to within 4 ulps: no division comes closer, and the norm of a vector
    normalized here is within 3 ulps of 1, so it passes through unchanged."""
    n = math.hypot(*direction)
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(n - 1.0) <= 4.0 * math.ulp(1.0):
        return tuple(map(float, direction))
    return tuple(float(x) / n for x in direction)


@dataclass(frozen=True)
class GeodesicQuery:
    """One torus geodesic and one target region; the direction is
    normalized to unit Euclidean speed by _unit, so a query built from a
    scan's unit direction keeps it exactly."""

    start: tuple
    direction: tuple
    region: Region
    t_max: float = 50.0

    def __post_init__(self):
        _check_horizon(self.t_max)
        object.__setattr__(self, "direction", _unit(self.direction))
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
class GccScan:
    """Outcome of a sampled scan: either T0, the largest exact hit time over
    the sampled family (a lower bound on the control time), or a witness
    geodesic missing the region within t_max.

    The family is held as arrays: the n_run starts scanned, shape
    (n_run, d), the unit directions, shape (n_dir, d), and the exact hit
    time of every start x direction pair, shape (n_run, n_dir), NaN for a
    geodesic that misses the region within t_max."""

    t0: float | None
    witness: GeodesicQuery | None
    starts: np.ndarray
    directions: np.ndarray
    hit_times: np.ndarray

    @property
    def holds_on_sample(self) -> bool:
        return self.witness is None


def farey_directions(max_den: int) -> list[tuple[float, float]]:
    """Unit vectors with rational slope p/q, |p|,|q| <= max_den, plus axes,
    sorted and without repeats.

    Closed torus geodesics have exactly these directions, which is the
    adversarial family for strip-avoidance. For each coprime pair q >= 1,
    p >= 0, the vector (q, p) / |(q, p)|, rounded to 15 decimals by
    np.round, gives four: (a, b), (b, a), (a, -b) and (-b, a). A zero
    loses its sign.
    """
    q, p = np.meshgrid(np.arange(1, max_den + 1), np.arange(max_den + 1), indexing="ij")
    coprime = np.gcd(q, p) == 1
    qp = np.stack([q[coprime], p[coprime]], axis=1).astype(float)
    units = qp / np.sqrt((qp * qp).sum(axis=1, keepdims=True))  # exact sums of squares
    a, b = np.round(units, 15).T
    dirs = np.concatenate([
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.stack([a, b], axis=1), np.stack([b, a], axis=1),
        np.stack([a, -b], axis=1), np.stack([-b, a], axis=1),
    ]) + 0.0  # -0.0 + 0.0 is 0.0
    dirs = dirs[np.lexsort((dirs[:, 1], dirs[:, 0]))]
    dirs = dirs[np.r_[True, np.any(dirs[1:] != dirs[:-1], axis=1)]]
    return list(map(tuple, dirs.tolist()))


def closing_length(direction, max_den: int) -> float | None:
    """2 pi |n| for the primitive integer vector n parallel to a direction
    (to 1e-12), among those with entries of at most max(max_den, 1) in
    size; None if there is none. The geodesic closes after this length, so
    one that misses the region for that long misses it for all time. The
    Farey and axis directions of a scan with farey_max_den = max_den all
    have one."""
    u = np.asarray(direction, dtype=float)
    r = u / np.abs(u).max()
    for s in range(1, max(max_den, 1) + 1):
        n = np.round(s * r)
        if np.abs(s * r - n).max() <= 1e-12:
            return TWO_PI * float(np.linalg.norm(n))
    return None


# Geodesics a scan may follow, times the ceil(t_max / pi) windows its march
# visits when the region has a ball part. The family is bounded before any
# direction is built, by starts^d times the (2D + 1)^2 + 1 integer
# directions of the box that holds the Farey ones, plus n_angles. Near the
# cap, on a 2-core Xeon VM, through `b4nls run`: 362^2 starts times the two
# axis directions take 1.6 s and peak at 74 MB RSS with a 15 MB
# geodesics.csv; one start at farey_max_den = 255 takes 1.6 s, mostly
# normalizing and writing its 118,919 directions, and 73 MB; the default
# family's 20 windows on a ball of radius 2.5 take 0.2 s.
MAX_SCAN_GEODESICS = 2**18


def _marches(region: Region) -> bool:
    """Whether the entry times march windows: the region has a ball part."""
    if isinstance(region, RegionUnion):
        return any(_marches(p) for p in region.parts)
    return isinstance(region, Ball)


def check_torus_scan(
    region: Region, d: int, t_max: float, starts_per_dim: int, farey_max_den: int, n_angles: int
) -> None:
    """Raise ValueError unless `torus_gcc_time` can scan these arguments;
    an empty family would report the condition as holding, and one over
    MAX_SCAN_GEODESICS would not finish in reasonable time or memory."""
    if d not in (1, 2):
        raise ValueError("torus scans support d = 1 or 2")
    validate_region(region, d)
    _check_horizon(t_max)
    if starts_per_dim < 1:
        raise ValueError("starts_per_dim must be >= 1")
    if farey_max_den < 0:
        raise ValueError("farey_max_den must be >= 0")
    if n_angles < 0:
        raise ValueError("n_angles must be >= 0")
    geodesics = starts_per_dim**d * (2 if d == 1 else (2 * farey_max_den + 1) ** 2 + 1 + n_angles)
    windows = math.ceil(t_max / math.pi) if _marches(region) else 1
    if geodesics * windows > MAX_SCAN_GEODESICS:
        raise ValueError(
            f"the scan may follow {geodesics} geodesics over {windows} window(s), over the cap"
            f" of {MAX_SCAN_GEODESICS}; use fewer starts or directions"
            + (", or a smaller t_max" if windows > 1 else "")
        )


def torus_gcc_time(
    region: Region,
    d: int,
    t_max: float,
    starts_per_dim: int = 8,
    farey_max_den: int = 6,
    n_angles: int = 32,
) -> GccScan:
    """Sampled control time on T^d (d = 1 or 2).

    Every start is paired with every direction. The scan runs start by
    start and stops after the first start with a miss; the witness is the
    last direction that missed from it. Hit times equal `first_hit_time` of
    each geodesic.
    """
    check_torus_scan(region, d, t_max, starts_per_dim, farey_max_den, n_angles)
    axis = np.linspace(0.0, TWO_PI, starts_per_dim, endpoint=False)
    if d == 1:
        directions = [(1.0,), (-1.0,)]
    else:
        directions = list(farey_directions(farey_max_den))
        directions += [
            (math.cos(a), math.sin(a))
            for a in np.linspace(0.0, math.pi, n_angles, endpoint=False)
        ]
    starts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    # normalized as GeodesicQuery normalizes them, one vector at a time
    units = np.array([_unit(v) for v in directions])
    hits = _hit_times(region, starts[:, None, :], units[None, :, :], t_max)
    missed = np.isnan(hits)
    failing = np.flatnonzero(missed.any(axis=1))
    if failing.size:
        i = failing[0]
        witness = GeodesicQuery(start=tuple(starts[i]), region=region, t_max=t_max,
                                direction=tuple(units[np.flatnonzero(missed[i])[-1]]))
        return GccScan(None, witness, starts[:i + 1], units, hits[:i + 1])
    return GccScan(float(hits.max(initial=0.0)), None, starts, units, hits)
