"""Spiral pasting: gluing ball embeddings into one bilipschitz map.

A geometric schedule of radii splits a pointed space into bands.  Inside
a band the distance-to-basepoint is turned into an angle, and a pair of
blend coefficients (c, s) with c^p + s^p = 1 distributes each point's
isometric ball image over two consecutive sup-norm blocks.  Outside its
blend window a point sits in a single block, which makes adjacent band
formulas agree exactly on the overlap.

The analytic distortion bound combines a worst case over blend positions
with a separate ratio covering pairs whose norms differ by the schedule's
shrink factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ScheduleOverflow, ScheduleTooShort
from .frechet import frechet_embed
from .metric import PointedMetricSpace, ball, distortion as measure_distortion, DistortionReport
from .sumspace import BlockVector, SumSpaceSpec, block_profile

__all__ = [
    "RadiiSchedule",
    "BlockLayout",
    "PastedEmbedding",
    "radii_schedule",
    "needed_bands",
    "blend_theta",
    "blend",
    "c_constant",
    "paste",
    "seam_check",
    "analytic_bound",
    "small_norm_ratio",
    "spiral_point",
    "spiral_distortion",
]

# ln of the largest double; schedules beyond this cannot be materialised.
_LOG_MAX = 709.0


@dataclass(frozen=True)
class RadiiSchedule:
    """Increasing radii R_1 .. R_{2K} with their logs.

    R_1 = 1; eps * ln(R_{2i} / R_{2i-1}) = pi/2 (the blend window spans a
    quarter turn); R_{2i+1} / R_{2i} = 1/eps (the shrink gap).  Band i
    blends over [R_{2i-1}, R_{2i}] and hands over on (R_{2i}, R_{2i+1}].
    """

    epsilon: float
    band_count: int
    log_radii: np.ndarray
    radii: np.ndarray

    def band_of(self, rho: float) -> int:
        """Index i of the branch whose domain (R_{2i-1}, R_{2i+1}] holds rho."""
        if rho <= self.radii[0]:
            return 1
        # log-domain comparison against the odd radii R_1, R_3, ...; the
        # 1e-12 shift absorbs exp/log round-trip noise at the boundaries,
        # where the clamped blends make both candidate bands agree anyway.
        # Just above R_1 the shift lands below log R_1 = 0, hence the clamp.
        odd_logs = self.log_radii[0::2]
        j = int(np.searchsorted(odd_logs, math.log(rho) - 1e-12, side="left"))
        if j >= len(odd_logs):
            raise ScheduleTooShort(
                f"rho={rho:g} exceeds the last odd radius R_{2 * self.band_count - 1}"
            )
        return max(j, 1)


def radii_schedule(epsilon: float, band_count: int) -> RadiiSchedule:
    """Build the radii schedule with ``band_count`` blend windows."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if band_count < 1:
        raise ValueError("band_count must be >= 1")
    half_turn = math.pi / (2.0 * epsilon)
    shrink = -math.log(epsilon)
    logs = np.empty(2 * band_count)
    logs[0] = 0.0
    for i in range(1, 2 * band_count):
        logs[i] = logs[i - 1] + (half_turn if i % 2 == 1 else shrink)
    if logs[-1] > _LOG_MAX:
        raise ScheduleOverflow(
            f"radii reach exp({logs[-1]:.1f}) and leave double range; "
            "work with log_radii directly"
        )
    return RadiiSchedule(epsilon, band_count, logs, np.exp(logs))


def needed_bands(epsilon: float, rho_max: float) -> int:
    """Minimal band count whose last odd radius, as built, covers rho_max."""
    k = 1
    while radii_schedule(epsilon, k).radii[-2] < rho_max:
        k += 1
    return k


def blend_theta(p: float, theta: float) -> tuple[float, float]:
    """Blend coefficients at angle theta in [0, pi/2]; c^p + s^p = 1.

    For 1 <= p <= 2 these are cos/sin raised to 2/p; for p > 2 cos/sin
    renormalised by the p-mean (cos^p t + sin^p t)^(1/p).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"blend needs a finite exponent p >= 1, got {p}")
    theta = min(max(theta, 0.0), math.pi / 2.0)
    ct, st = math.cos(theta), math.sin(theta)
    if p <= 2.0:
        return ct ** (2.0 / p), st ** (2.0 / p)
    denom = (ct**p + st**p) ** (1.0 / p)
    return ct / denom, st / denom


def blend(p: float, schedule: RadiiSchedule, band: int, rho: float) -> tuple[float, float]:
    """Blend coefficients of band ``band`` at distance ``rho``.

    rho is clamped to the blend window [R_{2i-1}, R_{2i}]; at or outside
    the endpoints the pair is exactly (1, 0) or (0, 1), which is what
    makes adjacent branch formulas agree without rounding error.
    """
    if not 1 <= band <= schedule.band_count:
        raise IndexError(f"band {band} outside 1..{schedule.band_count}")
    lo = schedule.radii[2 * band - 2]
    hi = schedule.radii[2 * band - 1]
    if rho <= lo:
        return 1.0, 0.0
    if rho >= hi:
        return 0.0, 1.0
    theta = schedule.epsilon * (math.log(rho) - schedule.log_radii[2 * band - 2])
    return blend_theta(p, theta)


def c_constant(p: float) -> float:
    """Derivative-quotient constant 2^(1-2/p) * (1 + 2^(1+(p-1)(p-2)/(2p))).

    Governs how fast the p > 2 blend pair can move with the angle; equals
    3 in the limit p -> 2+ (the function is defined for p >= 2).
    """
    if p < 2.0:
        raise ValueError("the derivative-quotient constant applies for p >= 2")
    return 2.0 ** (1.0 - 2.0 / p) * (1.0 + 2.0 ** (1.0 + (p - 1.0) * (p - 2.0) / (2.0 * p)))


def small_norm_ratio(epsilon: float) -> float:
    """Distortion ratio covering pairs with ||y|| <= eps * ||x||.

    (1+eps)^3 / ((1-eps)(1-eps-eps^2)); +inf once the lower factor dies.
    """
    denom = (1.0 - epsilon) * (1.0 - epsilon - epsilon * epsilon)
    if denom <= 0.0:
        return math.inf
    return (1.0 + epsilon) ** 3 / denom


def _golden(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-10) -> float:
    """Golden-section minimum of f on [a, b]; returns the best f value."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd, f(a), f(b))


def analytic_bound(p: float, epsilon: float) -> float:
    """Worst-case distortion bound for the pasted map at exponent p.

    max(band ratio, small-norm ratio) where the band ratio scans blend
    positions c in [0, 1], s = (1 - c^p)^(1/p), with slack K*eps on top
    and K*eps*(1+eps) below (K = 2 for p <= 2, else the derivative
    constant).  Returns +inf when the lower envelope touches zero, i.e.
    eps is too large for the bound to say anything.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent must be a finite real >= 1, got {p}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    K = 2.0 if p <= 2.0 else c_constant(p)
    up = K * epsilon
    down = K * epsilon * (1.0 + epsilon)

    def s_of(c: float) -> float:
        return (max(1.0 - c**p, 0.0)) ** (1.0 / p)

    def upper(c: float) -> float:
        s = s_of(c)
        return (1.0 + epsilon) * ((c + up) ** p + (s + up) ** p) ** (1.0 / p)

    def lower(c: float) -> float:
        s = s_of(c)
        return (max(c - down, 0.0) ** p + max(s - down, 0.0) ** p) ** (1.0 / p)

    grid = np.linspace(0.0, 1.0, 10_000)
    u_vals = np.array([upper(c) for c in grid])
    l_vals = np.array([lower(c) for c in grid])
    iu = int(np.argmax(u_vals))
    il = int(np.argmin(l_vals))
    u_max = -_golden(
        lambda c: -upper(c), grid[max(iu - 1, 0)], grid[min(iu + 1, len(grid) - 1)]
    )
    l_min = _golden(lower, grid[max(il - 1, 0)], grid[min(il + 1, len(grid) - 1)])
    if l_min <= 0.0:
        return math.inf
    return float(max(u_max / l_min, small_norm_ratio(epsilon)))


@dataclass(frozen=True)
class BlockLayout:
    """The radii schedule whose even radii R_{2n} bound the ball of block n."""

    schedule: RadiiSchedule


@dataclass(frozen=True)
class PastedEmbedding:
    """Result of pasting: images, band assignment, and the providers used."""

    space: PointedMetricSpace
    spec: SumSpaceSpec
    layout: BlockLayout
    images: dict
    band_of: dict
    providers: dict

    def norm_preservation_error(self) -> float:
        """max over points of | ||Tx|| - rho(x) |, scaled by max(1, rho_max)."""
        from .sumspace import norm as sum_norm

        rho = self.space.rho()
        scale = max(1.0, float(np.max(rho)))
        worst = 0.0
        for i, pid in enumerate(self.space.ids):
            worst = max(worst, abs(sum_norm(self.images[pid]) - rho[i]))
        return worst / scale


def _branch_image(providers: dict, pid, branch: int, c: float, s: float) -> dict[int, np.ndarray]:
    """The branch formula c * (ball image in block i) + s * (next block), as blocks."""
    out: dict[int, np.ndarray] = {}
    if c > 0.0:
        out[branch] = c * np.asarray(providers[branch][pid], dtype=float)
    if s > 0.0:
        out[branch + 1] = s * np.asarray(providers[branch + 1][pid], dtype=float)
    return out


def paste(
    space: PointedMetricSpace,
    p: float,
    epsilon: float,
    provider: Callable[[PointedMetricSpace], object] = frechet_embed,
    bands: int | None = None,
) -> PastedEmbedding:
    """Glue isometric ball embeddings into a map of the whole space.

    ``provider`` turns a closed ball around the basepoint into a map with
    image(basepoint) = 0 (the distance-vector embedding by default).  With
    ``bands`` unset the schedule grows until its last odd radius covers
    the space; an explicit band budget raises ScheduleTooShort when it
    does not.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent must be a finite real >= 1, got {p}")
    rho = space.rho()
    rho_max = float(np.max(rho))
    K = needed_bands(epsilon, rho_max) if bands is None else int(bands)
    schedule = radii_schedule(epsilon, K)
    if rho_max > schedule.radii[-2]:
        raise ScheduleTooShort(
            f"max rho {rho_max:g} exceeds last odd radius {schedule.radii[-2]:g} "
            f"({K} bands)"
        )

    bands_of = {}
    used_blocks: set[int] = set()
    coeffs = {}
    for i, pid in enumerate(space.ids):
        b = schedule.band_of(float(rho[i]))
        c, s = blend(p, schedule, b, float(rho[i]))
        bands_of[pid] = b
        coeffs[pid] = (c, s)
        if c > 0.0:
            used_blocks.add(b)
        if s > 0.0:
            used_blocks.add(b + 1)

    providers = {}
    dims = []
    for n in range(1, K + 1):
        ball_n = ball(space, float(schedule.radii[2 * n - 1]))
        if n in used_blocks:
            emb = provider(ball_n)
            base_img = np.asarray(emb[space.basepoint], dtype=float)
            if base_img.size and float(np.max(np.abs(base_img))) != 0.0:
                raise ValueError("provider must send the basepoint to 0")
            providers[n] = emb
            dims.append(base_img.size)
        else:
            dims.append(len(ball_n))

    spec = SumSpaceSpec(p, tuple(dims))
    images = {
        pid: BlockVector(spec, _branch_image(providers, pid, bands_of[pid], *coeffs[pid]))
        for pid in space.ids
    }
    layout = BlockLayout(schedule)
    return PastedEmbedding(space, spec, layout, images, bands_of, providers)


def seam_check(emb: PastedEmbedding) -> tuple[float, int]:
    """Evaluate both adjacent branch formulas on every seam point.

    Points with rho in a handover interval [R_{2i}, R_{2i+1}] belong to
    the domains of branches i and i+1; the clamped blends make the two
    images identical, so the returned discrepancy should be exactly 0.0.
    Returns (max sup-norm discrepancy, number of points checked).
    """
    sched = emb.layout.schedule
    rho = emb.space.rho()
    worst = 0.0
    checked = 0
    for i, pid in enumerate(emb.space.ids):
        r = float(rho[i])
        for band in range(1, sched.band_count):
            if sched.radii[2 * band - 1] <= r <= sched.radii[2 * band]:
                left, right = (
                    BlockVector(emb.spec, _branch_image(
                        emb.providers, pid, b, *blend(emb.spec.p, sched, b, r)))
                    for b in (band, band + 1)
                )
                worst = max(worst, float(np.max(block_profile(left - right))))
                checked += 1
    return worst, checked


# Reference curve ------------------------------------------------------------

def spiral_point(epsilon: float, t: float) -> tuple[float, float]:
    """Point t * (cos(eps ln t), sin(eps ln t)) of the reference curve."""
    if t <= 0:
        raise ValueError("the curve is parametrised over t > 0")
    a = epsilon * math.log(t)
    return t * math.cos(a), t * math.sin(a)


def spiral_distortion(epsilon: float, t_max: float = 1e4, samples: int = 512) -> DistortionReport:
    """Distortion of the reference curve on a geometric sample of (1, t_max].

    The source metric is |s - t| on the samples; the target is the
    Euclidean plane, modelled as a 2-sum of two 1-dimensional blocks.
    At epsilon = 0 the curve is the identity line and the report is exact.
    """
    if t_max <= 1.0:
        raise ValueError("t_max must exceed 1")
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = [t_max ** ((k + 1) / samples) for k in range(samples)]
    ids = tuple(f"t{k:04d}" for k in range(samples))
    space = PointedMetricSpace(ids, ids[0], "l2", coords=np.array(ts)[:, None])
    spec = SumSpaceSpec(2.0, (1, 1))
    image = {}
    for k, t in enumerate(ts):
        x, y = spiral_point(epsilon, t)
        image[ids[k]] = BlockVector(spec, {1: np.array([x]), 2: np.array([y])})
    return measure_distortion(space, image, spec)
