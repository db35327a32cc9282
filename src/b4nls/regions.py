"""Control/damping region geometry on the flat torus [0, 2pi)^d.

Regions are open sets described by a few primitive shapes. They are shared
by the damping-profile builder (smoothed indicators) and the geodesic
checker (closed-form entry times). `inside_depth` takes an array of points
of shape (..., d), such as a whole collocation grid, and returns one depth
per point; `contains` is the scalar membership test of one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def strip_width(s: Strip) -> float:
    return (s.hi - s.lo) % TWO_PI


def inside_depth(region: Region, points) -> np.ndarray:
    """Signed depth into the region at points of shape (..., d), one value
    per point: > 0 inside, <= 0 outside.

    For points inside, it is the distance to the region boundary, the value
    the smoothed indicator ramps on: to the nearer edge of a strip, r minus
    the periodic distance to a ball's center, the largest over a union's
    parts, and inf everywhere for the full torus.
    """
    x = np.asarray(points, dtype=float)
    if isinstance(region, FullRegion):
        return np.full(x.shape[:-1], math.inf)
    if isinstance(region, Strip):
        w = strip_width(region)
        t = (x[..., region.axis] - region.lo) % TWO_PI
        return np.where((t > 0.0) & (t < w), np.minimum(t, w - t), 0.0)
    if isinstance(region, Ball):
        delta = np.abs(x % TWO_PI - np.asarray(region.center) % TWO_PI)
        delta = np.minimum(delta, TWO_PI - delta)  # the periodic distance per axis
        return region.radius - np.sqrt((delta * delta).sum(-1))
    if isinstance(region, RegionUnion):
        return np.maximum.reduce([inside_depth(p, x) for p in region.parts])
    raise TypeError(f"unknown region {region!r}")


def contains(region: Region, point: tuple[float, ...]) -> bool:
    return bool(inside_depth(region, point) > 0.0)


def min_feature_size(region: Region) -> float:
    """Smallest cross-section of the region; gates the smoothing width."""
    if isinstance(region, FullRegion):
        return TWO_PI
    if isinstance(region, Strip):
        return strip_width(region)
    if isinstance(region, Ball):
        return 2.0 * region.radius
    if isinstance(region, RegionUnion):
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
        if not all(math.isfinite(c) for c in region.center):
            raise ValueError(f"ball center must be finite, got {region.center}")
        if not region.radius > 0.0:
            raise ValueError(f"ball radius must be positive, got {region.radius}")
    elif isinstance(region, RegionUnion):
        if not region.parts:
            raise ValueError("empty region union")
        for p in region.parts:
            validate_region(p, d)
    elif not isinstance(region, FullRegion):
        raise TypeError(f"unknown region {region!r}")
