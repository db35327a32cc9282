"""Control/damping region geometry on the flat torus [0, 2pi)^d.

Regions are open sets described by a few primitive shapes. They are shared
by the damping-profile builder (smoothed indicators) and the geodesic
checker (closed-form entry times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Strip:
    """Open periodic slab lo < x[axis] < hi (coordinates taken mod 2pi)."""

    lo: float
    hi: float
    axis: int = 0


@dataclass(frozen=True)
class Ball:
    """Open ball of the periodic Euclidean distance."""

    center: tuple[float, ...]
    radius: float


@dataclass(frozen=True)
class FullRegion:
    """The whole torus."""


@dataclass(frozen=True)
class RegionUnion:
    parts: tuple


Region = Strip | Ball | FullRegion | RegionUnion


def _wrap(x: float) -> float:
    return x % TWO_PI


def periodic_delta(x: float, y: float) -> float:
    """Distance between angles x, y on the circle of circumference 2pi."""
    d = abs(_wrap(x) - _wrap(y))
    return min(d, TWO_PI - d)


def strip_width(s: Strip) -> float:
    w = _wrap(s.hi - s.lo)
    return w


def inside_depth(region: Region, point: tuple[float, ...]) -> float:
    """Signed depth into the region: > 0 inside, <= 0 outside.

    For points inside, returns the distance to the region boundary; the
    value is what the smoothed indicator ramps on.
    """
    if isinstance(region, FullRegion):
        return math.inf
    if isinstance(region, Strip):
        w = strip_width(region)
        t = _wrap(point[region.axis] - region.lo)
        if t <= 0.0 or t >= w:
            return 0.0
        return min(t, w - t)
    if isinstance(region, Ball):
        d = math.sqrt(
            sum(periodic_delta(x, c) ** 2 for x, c in zip(point, region.center))
        )
        return region.radius - d
    if isinstance(region, RegionUnion):
        return max(inside_depth(p, point) for p in region.parts)
    raise TypeError(f"unknown region {region!r}")


def contains(region: Region, point: tuple[float, ...]) -> bool:
    return inside_depth(region, point) > 0.0


def min_feature_size(region: Region) -> float:
    """Smallest cross-section of the region; gates the smoothing width."""
    if isinstance(region, FullRegion):
        return TWO_PI
    if isinstance(region, Strip):
        return strip_width(region)
    if isinstance(region, Ball):
        return 2.0 * region.radius
    if isinstance(region, RegionUnion):
        if not region.parts:
            return 0.0
        return min(min_feature_size(p) for p in region.parts)
    raise TypeError(f"unknown region {region!r}")


def validate_region(region: Region, d: int) -> None:
    if isinstance(region, Strip):
        if not 0 <= region.axis < d:
            raise ValueError(f"strip axis {region.axis} out of range for d={d}")
        if not strip_width(region) > 0.0:
            raise ValueError(f"strip ({region.lo}, {region.hi}) is empty or not finite")
    elif isinstance(region, Ball):
        if len(region.center) != d:
            raise ValueError("ball center dimension mismatch")
        if not region.radius > 0.0:
            raise ValueError(f"ball radius must be positive, got {region.radius}")
    elif isinstance(region, RegionUnion):
        if not region.parts:
            raise ValueError("empty region union")
        for p in region.parts:
            validate_region(p, d)
    elif not isinstance(region, FullRegion):
        raise TypeError(f"unknown region {region!r}")
