"""Spiral pasting: gluing ball embeddings into one bilipschitz map.

A geometric schedule of radii splits a pointed space into bands.  Inside
a band the distance-to-basepoint is turned into an angle, and a pair of
blend coefficients (c, s) with c^p + s^p = 1 distributes each point's
isometric ball image over two consecutive sup-norm blocks.  Outside its
blend window a point sits in a single block, which makes adjacent band
formulas agree exactly on the overlap.

The analytic distortion bound is a closed form, rounded outward: the worst
case over blend positions sits at the symmetric blend, and a separate
ratio covers pairs whose norms differ by the schedule's shrink factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ScheduleTooShort
from .frechet import frechet_embed
from .metric import PointedMetricSpace, ball, distortion as measure_distortion, DistortionReport
from .sumspace import BlockVector, SumSpaceSpec, _pair_distances, fold

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

@dataclass(frozen=True)
class RadiiSchedule:
    """Increasing radii R_1 .. R_{2K} with their logs.

    R_1 = 1; eps * ln(R_{2i} / R_{2i-1}) = pi/2 (the blend window spans a
    quarter turn); R_{2i+1} / R_{2i} = 1/eps (the shrink gap).  Band i
    blends over [R_{2i-1}, R_{2i}] and hands over on (R_{2i}, R_{2i+1}].
    Radii past double range are +inf: every rho is a finite double below
    the true radius, so comparisons and balls come out the same, and the
    blend angle reads the finite ``log_radii``.
    """

    epsilon: float
    band_count: int
    log_radii: np.ndarray
    radii: np.ndarray

    def band_of(self, rho: float) -> int:
        """Index i of the branch whose domain (R_{2i-1}, R_{2i+1}] holds rho.

        Compared with the odd radii as built, like ``blend`` and
        ``needed_bands``; rho <= R_1 belongs to band 1.
        """
        j = int(np.searchsorted(self.radii[0::2], rho, side="left"))
        if j >= self.band_count:
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
    with np.errstate(over="ignore"):
        radii = np.exp(logs)
    return RadiiSchedule(epsilon, band_count, logs, radii)


def needed_bands(epsilon: float, rho_max: float) -> int:
    """Minimal band count whose last odd radius, as built, covers rho_max.

    Shorter schedules are prefixes of longer ones, so one schedule whose
    last odd radius is +inf (its log passes 710 > ln of the largest double)
    holds every answer: 1 + the number of odd radii below rho_max, the
    rule of ``band_of``.
    """
    step = radii_schedule(epsilon, 2).log_radii[2]  # ln R_3, the log step between odd radii
    sched = radii_schedule(epsilon, 2 + int(710.0 / step))
    return 1 + int(np.searchsorted(sched.radii[0::2], rho_max, side="left"))


def blend_theta(p: float, theta: float) -> tuple[float, float]:
    """Blend coefficients at angle theta in [0, pi/2]; c^p + s^p = 1.

    For 1 <= p <= 2 these are cos/sin raised to 2/p; for p > 2 cos/sin
    renormalised by the p-mean (cos^p t + sin^p t)^(1/p), taken after
    dividing both by the larger, so that at large p the two powers cannot
    both underflow to 0.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"blend needs a finite exponent p >= 1, got {p}")
    theta = min(max(theta, 0.0), math.pi / 2.0)
    ct, st = math.cos(theta), math.sin(theta)
    if p <= 2.0:
        return ct ** (2.0 / p), st ** (2.0 / p)
    m = max(ct, st)
    ct, st = ct / m, st / m
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


def _up(x: float) -> float:
    """The double just above x."""
    return math.nextafter(x, math.inf)


def analytic_bound(p: float, epsilon: float) -> float:
    """Worst-case distortion bound for the pasted map at exponent p.

    max(band ratio, small-norm ratio).  With K = 2 for p <= 2, else
    ``c_constant(p)``, u = K eps and d = K eps (1 + eps), the band ratio is
    (1 + eps) max ||(c, s) + (u, u)||_p / min ||((c - d)+, (s - d)+)||_p
    over blends c^p + s^p = 1.  Both extremes sit at c = s = 2^(-1/p):
    by Minkowski ||(c, s) + (u, u)||_p <= 1 + 2^(1/p) u, and by the reverse
    triangle inequality on (c, s) = ((c - d)+, (s - d)+) + (min(c, d),
    min(s, d)), ||((c - d)+, (s - d)+)||_p >= 1 - 2^(1/p) d, with equality
    when d <= 2^(-1/p).  So with a = 2^(1/p) K the band ratio is
    (1 + eps)(1 + a eps) / (1 - a eps (1 + eps)), +inf once the denominator
    is <= 0, and the bound is 1+: bound - 1 = eps (1 + 2a) + O(eps^2).

    The band ratio dominates ``small_norm_ratio``: a >= 2 sqrt 2 for p <= 2,
    c_constant >= 3 for p > 2, the band ratio grows with a, and at a = r >= 2
    cross-multiplying the two ratios leaves (2r - 4) eps + (r - 1) eps^2 +
    (1 + 3r) eps^3 + 2r eps^4 > 0.  The max is kept so the bound names both.

    Each rounded step is moved outward, so the result is never below the
    exact formula at the given doubles; it is +inf where that is, and also a
    few ulps short of the pole, where that exceeds 1e12.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent must be a finite real >= 1, got {p}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    # c_constant's roundings and pow calls err by < (6.7 + 3.5 p) 2^-53 relative
    # (its second exponent is <= p); 16 + 4p also covers the second order.
    # A K beyond double range (p > ~2050) makes the bound +inf.  Past p ~ 8.99e307
    # (p - 1)(p - 2) and 2p both overflow, c_constant is NaN, and that counts the same.
    try:
        K = 2.0 if p <= 2.0 else _up(c_constant(p) * _up(1.0 + (16.0 + 4.0 * p) * 2.0**-53))
    except OverflowError:
        K = math.inf
    if not math.isfinite(K):
        return math.inf
    # One step up bounds a correctly rounded op and two bound libm pow (error
    # < 1 ulp); 2^x grows with its already raised exponent.
    a_eps = _up(_up(_up(_up(2.0 ** _up(1.0 / p))) * K) * epsilon)
    one_eps = _up(1.0 + epsilon)
    # The denominator is lowered: its subtrahend is raised, then 1 - it rounded down.
    den = math.nextafter(1.0 - _up(a_eps * one_eps), -math.inf)
    if den <= 0.0:
        return math.inf
    num = _up(one_eps * _up(1.0 + a_eps))
    return max(_up(num / den), small_norm_ratio(epsilon))


@dataclass(frozen=True)
class BlockLayout:
    """The radii schedule whose even radii R_{2n} bound the ball of block n."""

    schedule: RadiiSchedule


@dataclass(frozen=True)
class PastedEmbedding:
    """Result of pasting: images, band assignment and blend coefficients.

    ``coefficients`` is the (B, n) array W with W[b - 1, i] the coefficient
    (c or s) of point i's ball image in block b, 0 where its image has no
    block b; columns follow ``space.ids``.
    """

    space: PointedMetricSpace
    spec: SumSpaceSpec
    layout: BlockLayout
    images: dict
    band_of: dict
    coefficients: np.ndarray

    def envelope(self) -> np.ndarray | None:
        """``coefficients`` when every image is built from distance vectors, else None.

        Pass it as ``distortion(..., envelope=...)``, whose closed-form pair
        intervals hold only for such images: x's image has exactly the blocks
        b with W[b - 1, x] > 0, each fl(W[b - 1, x] F̂_b(x)), with F̂_b(x) read
        from D over the ball's anchors as ``frechet_embed`` reads it.
        """
        W = self.coefficients
        D = self.space.matrix
        ids = self.space.ids
        rho = self.space.rho()
        base = self.space.index(self.space.basepoint)
        by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__))
        blocks = [self.images[pid].blocks for pid in ids]
        if sum(map(len, blocks)) != np.count_nonzero(W):
            return None
        for b in range(1, len(W) + 1):
            used = np.flatnonzero(W[b - 1])
            anchors = by_id[rho[by_id] <= self.layout.schedule.radii[2 * b - 1]]
            # 64 points at a time reuse same-sized buffers; a missing block leaves rows ragged
            for part in (used[k:k + 64] for k in range(0, used.size, 64)):
                F = (D.T[np.ix_(part, anchors)] - D[anchors, base]) * W[b - 1, part][:, None]
                if not np.array_equal([blocks[i].get(b, ()) for i in part], F):
                    return None
        return W

    def norm_preservation_error(self) -> float:
        """max over points of | ||Tx|| - rho(x) |, scaled by max(1, rho_max).

        ||Tx|| is read as the target distance of the pair (basepoint, x),
        whose image is 0, for every x, the basepoint included: the target's
        fold of ``sumspace._pair_distances`` on shape (n,).
        """
        rho = self.space.rho()
        vectors = [self.images[pid] for pid in self.space.ids]
        base = np.full(len(rho), self.space.index(self.space.basepoint))
        norms = fold(self.spec.p)(rho.shape, _pair_distances(vectors, base, np.arange(len(rho))))
        return float(np.max(np.abs(norms - rho))) / max(1.0, float(np.max(rho)))


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

    bands_of = {}
    # band_of gives b < K, or b = K = 1 with rho <= R_1 and s = 0: block
    # b + 1 exists wherever s > 0
    W = np.zeros((K, len(space)))
    for i, pid in enumerate(space.ids):
        b = schedule.band_of(float(rho[i]))
        c, s = blend(p, schedule, b, float(rho[i]))
        bands_of[pid] = b
        W[b - 1, i] = c
        if s > 0.0:
            W[b, i] = s

    dims = []
    blocks = [{} for _ in space.ids]
    for n in range(1, K + 1):
        radius = float(schedule.radii[2 * n - 1])
        used = np.flatnonzero(W[n - 1])
        if used.size:
            emb = provider(ball(space, radius))
            base_img = np.asarray(emb[space.basepoint], dtype=float)
            if base_img.size and float(np.max(np.abs(base_img))) != 0.0:
                raise ValueError("provider must send the basepoint to 0")
            # block n of x is W[n - 1, x] times x's ball image; the map goes before the next ball
            for i in used:
                blocks[i][n] = W[n - 1, i] * np.asarray(emb[space.ids[i]], dtype=float)
            dims.append(base_img.size)
            del emb, base_img
        else:
            # no image uses this block: only its dimension, the ball's point count, is read
            dims.append(int(np.count_nonzero(rho <= radius)))

    spec = SumSpaceSpec(p, tuple(dims))
    images = {pid: BlockVector(spec, blocks[i]) for i, pid in enumerate(space.ids)}
    return PastedEmbedding(space, spec, BlockLayout(schedule), images, bands_of, W)


def seam_check(emb: PastedEmbedding) -> tuple[float, int]:
    """Compare both adjacent branch formulas' blend placements on every seam point.

    A point with rho in a handover interval [R_{2i}, R_{2i+1}] is in the
    domains of branches i and i+1.  Branch i puts (c, s) in blocks (i, i+1),
    branch i+1 (c', s') in (i+1, i+2); for ball images of sup norm rho they
    are rho * max(c, |s - c'|, s') apart, whatever the provider, and exactly
    0.0 by the clamped blends.  Returns (max gap, number of points checked).
    """
    sched = emb.layout.schedule
    rho = emb.space.rho()
    worst = 0.0
    checked = 0
    for i, pid in enumerate(emb.space.ids):
        r = float(rho[i])
        # band_of puts rho in (R_{2b-1}, R_{2b+1}], so only band b's handover can hold it
        band = emb.band_of[pid]
        if band < sched.band_count and sched.radii[2 * band - 1] <= r:
            c, s = blend(emb.spec.p, sched, band, r)
            c_next, s_next = blend(emb.spec.p, sched, band + 1, r)
            worst = max(worst, r * max(c, abs(s - c_next), s_next))
            checked += 1
    return worst, checked


# Reference curve ------------------------------------------------------------

def spiral_point(epsilon: float, t: float) -> tuple[float, float]:
    """Point t * (cos(eps ln t), sin(eps ln t)) of the reference curve."""
    if t <= 0:
        raise ValueError("the curve is parametrised over t > 0")
    a = epsilon * math.log(t)
    return t * math.cos(a), t * math.sin(a)


def spiral_distortion(epsilon: float, *, t_max: float = 1e4, samples: int = 512) -> DistortionReport:
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
