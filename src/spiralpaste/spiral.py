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
from typing import Callable, Iterator

import numpy as np

from .errors import ScheduleTooShort
from .frechet import frechet_embed
from .metric import PointedMetricSpace, ball, distortion as measure_distortion, DistortionReport
from .sumspace import BlockVector, Fold, SumSpaceSpec, _pair_distances

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
    """Increasing radii R_1 .. R_{2K}, as built in doubles.

    R_1 = 1; eps * ln(R_{2i} / R_{2i-1}) = pi/2 (the blend window spans a
    quarter turn); R_{2i+1} / R_{2i} = 1/eps (the shrink gap).  Band i
    blends over [R_{2i-1}, R_{2i}] and hands over on (R_{2i}, R_{2i+1}].
    Radii past double range are +inf: every rho is a finite double below
    the true radius, so comparisons and balls come out the same, and a
    window that ends at +inf turns at rate eps.
    """

    epsilon: float
    radii: np.ndarray

    @property
    def band_count(self) -> int:
        return len(self.radii) // 2

    def band_of(self, rho: float) -> int:
        """Index i of the branch whose domain (R_{2i-1}, R_{2i+1}] holds rho.

        Compared with the odd radii as built, like ``blend`` and
        ``needed_bands``; rho <= R_1 belongs to band 1.
        """
        j = int(np.count_nonzero(self.radii[0::2] < rho))
        if j >= self.band_count:
            raise ScheduleTooShort(
                f"rho={rho:g} exceeds the last odd radius R_{2 * self.band_count - 1}"
            )
        return max(j, 1)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def _check_exponent(p: float) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent must be a finite real >= 1, got {p}")


def radii_schedule(epsilon: float, bands: int) -> RadiiSchedule:
    """Build the radii schedule with ``bands`` blend windows, each radius exp of its summed log."""
    _check_epsilon(epsilon)
    if bands < 1:
        raise ValueError("bands must be >= 1")
    half_turn = math.pi / (2.0 * epsilon)
    shrink = -math.log(epsilon)
    logs = np.empty(2 * bands)
    logs[0] = 0.0
    for i in range(1, 2 * bands):
        logs[i] = logs[i - 1] + (half_turn if i % 2 == 1 else shrink)
    with np.errstate(over="ignore"):
        radii = np.exp(logs)
    return RadiiSchedule(epsilon, radii)


def needed_bands(epsilon: float, rho_max: float) -> int:
    """Minimal band count whose last odd radius, as built, covers rho_max.

    Shorter schedules are prefixes of longer ones, so one schedule whose
    last odd radius is +inf (its log passes 710 > ln of the largest double)
    holds every answer: 1 + the number of odd radii below rho_max, the
    rule of ``band_of``.
    """
    _check_epsilon(epsilon)
    step = math.pi / (2.0 * epsilon) - math.log(epsilon)  # ln R_3, the log step between odd radii
    sched = radii_schedule(epsilon, 2 + int(710.0 / step))
    return 1 + int(np.count_nonzero(sched.radii[0::2] < rho_max))


def blend_theta(p: float, theta: float) -> tuple[float, float]:
    """Blend coefficients at angle theta in [0, pi/2]; c^p + s^p = 1.

    For 1 <= p <= 2 these are cos/sin raised to 2/p; for p > 2 cos/sin
    renormalised by the p-mean (cos^p t + sin^p t)^(1/p), taken after
    dividing both by the larger, so that at large p the two powers cannot
    both underflow to 0.
    """
    _check_exponent(p)
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
    makes adjacent branch formulas agree without rounding error.  Inside,
    the angle runs from 0 at R_{2i-1} to pi/2 at R_{2i}, both as built:
    theta = (pi/2) ln(rho / R_{2i-1}) / ln(R_{2i} / R_{2i-1}), or
    eps ln(rho / R_{2i-1}) where R_{2i} is +inf.  So W is continuous at
    both ends.  Each log is log1p of an offset, exact near its end, and
    theta is read from the nearer end (near R_{2i} as pi/2 - theta, with
    (c, s) swapped), so the small coefficient is accurate to its own size.
    """
    if not 1 <= band <= schedule.band_count:
        raise IndexError(f"band {band} outside 1..{schedule.band_count}")
    lo = float(schedule.radii[2 * band - 2])
    hi = float(schedule.radii[2 * band - 1])
    if rho <= lo:
        return 1.0, 0.0
    if rho >= hi:
        return 0.0, 1.0
    up = math.log1p((rho - lo) / lo)  # ln(rho / lo)
    down = math.log1p((hi - rho) / rho)  # ln(hi / rho), +inf where hi is
    if down == math.inf:
        return blend_theta(p, schedule.epsilon * up)
    if up <= down:
        return blend_theta(p, math.pi / 2.0 * (up / (up + down)))
    s, c = blend_theta(p, math.pi / 2.0 * (down / (up + down)))
    return c, s


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

    The construction runs on the schedule as built in doubles.  Its logs
    stay below 2^10 (past that a radius is +inf), so a window's log width
    ln(R_{2i} / R_{2i-1}) and a shrink log ln(R_{2i+1} / R_{2i}) err by at
    most 2^-44 plus the roundings of pi / (2 eps), -ln eps and exp.  So the
    blend turns at (pi/2) / ln(R_{2i} / R_{2i-1}), within 2^-44 (2 eps / pi)
    + 2^-50 < 2^-46 relative of eps wherever the band ratio is finite (eps
    < 0.277, as a >= 2 sqrt 2), and the shrink gap R_{2i} / R_{2i+1} is
    within 2^-43 relative of eps.  Each eps of the two ratios stands for
    one of them.  u = K eps and the K eps in d bound how fast (c, s) moves
    per unit of ln rho: K times the turn rate, so that eps is taken at eps
    (1 + 2^-46).  Every other eps (each 1 + eps, and all of
    ``small_norm_ratio``) is taken at eps (1 + 2^-43), which covers the
    gap as well as the rate.  Both ratios grow with every eps in them.

    Each rounded step is moved outward, so the result is never below the
    exact formula at those raised epsilons; it is +inf where that is, and
    also a few ulps short of the pole, where that exceeds 1e12.
    """
    _check_exponent(p)
    _check_epsilon(epsilon)
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
    # the blend's rate and, for every other eps, the shrink gap as built;
    # 1 + 2^-46 and 1 + 2^-43 are exact
    rate = _up(epsilon * (1.0 + 2.0**-46))
    gap = _up(epsilon * (1.0 + 2.0**-43))
    # One step up bounds a correctly rounded op and two bound libm pow (error
    # < 1 ulp); 2^x grows with its already raised exponent.
    a_eps = _up(_up(_up(_up(2.0 ** _up(1.0 / p))) * K) * rate)
    one_eps = _up(1.0 + gap)
    # The denominator is lowered: its subtrahend is raised, then 1 - it rounded down.
    den = math.nextafter(1.0 - _up(a_eps * one_eps), -math.inf)
    if den <= 0.0:
        return math.inf
    num = _up(one_eps * _up(1.0 + a_eps))
    return max(_up(num / den), small_norm_ratio(gap))


# Pairs per chunk of the envelope pass: 64 KiB per array.  On the 600-point
# tree the pass took 13-24 ms per (p, eps) at 2^13, 15-29 ms at 2^12 and no
# less at 2^14 or 2^15, where its peak doubles with each step (medians of 9,
# 2-CPU Xeon, numpy 2.4).
_BOUND_CHUNK = 1 << 13


def _pair_centres(
    W: np.ndarray, I: np.ndarray, J: np.ndarray, D: np.ndarray, rho: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, C_b) on pairs (I, J): the closed-form block distances of a pasted distance-vector map.

    With w = W[b - 1], C_b[k] = min(w_x, w_y) D[k] + |w_x - w_y| rho_z for
    x = I[k], y = J[k] and z the one with the larger w; ``D`` holds the
    pairs' distances.  A pair with one point outside the support (w = 0) is
    at the other point's w rho, a pair with both outside at 0, as in
    ``sumspace._pair_distances``, whose buffer protocol this shares.  I is
    sorted, so only the blocks some point from I[0] on uses are yielded.
    """
    buf, far = np.empty(len(I)), np.empty(len(I))
    rx, ry = rho[I], -rho[J]
    for b in np.flatnonzero(W[:, I[0] :].any(axis=1)):
        wx, wy = W[b, I], W[b, J]
        np.subtract(wx, wy, out=buf)
        np.multiply(buf, rx, out=far)
        buf *= ry
        np.maximum(buf, far, out=buf)
        np.minimum(wx, wy, out=far)
        far *= D
        buf += far
        yield int(b) + 1, buf


def _pair_bounds(space: PointedMetricSpace, W: np.ndarray, fold: Fold) -> Iterator[tuple]:
    """Yield (I, J, [(lo, hi) per folded norm]): bounds on the scanned ratios of a chunk of pairs.

    ``W`` is the (B, n) coefficient array of a pasted distance-vector map:
    x's image in block b is w_x F_b(x) with w_x = W[b - 1, x], computed as
    fl(w_x F̂_b(x)), where F̂_b(x)_k = fl(D[k, x] - D[k, base]) for the
    anchors k of a ball that holds every point with w > 0.  The scan's
    ratio of a pair x < y, fl(fold(K̂)[x, y] / D[x, y]), lies in [lo, hi].

    Chunks.  The pairs x = I[k] < y = J[k] come in row-major order,
    ``_BOUND_CHUNK`` at a time, so every pair is in exactly one chunk and
    the chunks follow one another in row-major order.

    Block distance.  Say w_x >= w_y, and write f_z = D[:, z] - D[:, base].
    Then w_x f_x - w_y f_y = w_y (f_x - f_y) + (w_x - w_y) f_x, whose sup
    norm is at most w_y T[x, y] + (w_x - w_y) T[x, base].  The space's
    ``_defect`` delta = t + a + g bounds T - D by t, the asymmetry by a and
    the diagonal by g.  The centre C = w_y D[., .] + (w_x - w_y) rho_x reads
    D[x, y] or D[y, x], and rho_x = D[base, x]; each is within a of what
    the bound reads, so the norm is at most C + w_y a + (w_x - w_y) a +
    w_x t = C + w_x (t + a).  Anchor k = x attains w_x D[x, x] - (w_x -
    w_y) D[x, base] - w_y D[x, y], so the norm is at least C - w_x (a + g).
    A point outside the support has w = 0 and the same C.  rho is read
    clipped at 0: off-diagonal entries are positive, so only the
    basepoint's own rho can be negative (by at most g), and the basepoint's
    image is exactly 0, so T[base, base] = 0 is what the bound reads there.
    So the exact kernel is within max(w_x, w_y) delta of C, and C >= 0 on
    every pair.  In floating point, the two subtractions and two products
    before the kernel's subtraction, and that one, err by at most 2u (w_x
    |f_x| + w_y |f_y|) + u |the difference|, with |f_z| <= rho_z + delta
    and u = 2^-53: 3u (w_x rho_x + w_y rho_y) up to delta u terms.  The
    centre's four roundings add 3u C <= 3u (w_x rho_x + w_y rho_y + w_x
    delta).  An underflowing product errs by 2^-1075 more.  So
    |K̂_b - C_b| <= 6.5u (w_x rho_x + w_y rho_y) + max(w_x, w_y) delta
    (1 + 2^-40) + 2^-1072, and since max <= sum, the blocks' half-widths
    sum to at most r_x + r_y with r = (sum_b W[b]) (6.5u rho + delta (1 +
    2^-40)) + 2^-1060, rounded up.

    Fold.  ``SumSpaceSpec.fold``'s p-sum and max, and ``FddModel.fold``'s
    (norm_a, ambient), are monotone and 1-Lipschitz in the l1 norm of the block
    distances, so |fold(K̂) - fold(C)| <= r_x + r_y.  A pair meets at most
    N = 2 max_x #{b : W[b, x] > 0} nonzero blocks; a zero block is an
    exact no-op of every fold.  Folded in floating point, each nonzero
    block after the first costs the p-sum at most (p + 6) u before its
    closing 1/p power (np.power taken as correct to 4 ulp), so a computed
    fold is within (7N + 5) u of exact.  The errors of the scan's fold of
    K̂ and of this fold of C, and the roundings of lo and hi below, fit in
    mu = (16N + 16) u times the folded centre.

    Range.  Everything is computed in units of a power of two that puts
    max D below 2^1000, so no centre or fold overflows.  A fold whose upper
    end reaches 2^1023 might round to inf in the scan, so its hi is inf.
    Dividing by D is monotone, so the bounds on the fold bound the ratio.
    """
    u = 2.0**-53
    D, rho = space.matrix, np.maximum(space.rho(), 0.0)
    n = len(D)
    unit = math.ldexp(1.0, max(0, math.frexp(float(np.max(D)))[1] - 1000))
    W = W / unit
    radius = W.sum(axis=0) * (6.5 * u * rho + space._defect * (1.0 + 2.0**-40))
    radius = radius * (1.0 + 2.0**-36) + 2.0**-1060
    mu = (32 * int(np.count_nonzero(W, axis=0).max()) + 16) * u
    # row x's first pair (x, x + 1) is pair number starts[x] in row-major order
    starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    for k0 in range(0, starts[-1], _BOUND_CHUNK):
        k = np.arange(k0, min(k0 + _BOUND_CHUNK, starts[-1]))
        I = np.digitize(k, starts) - 1
        J = k - starts[I] + I + 1
        d = D[I, J]
        folded = fold(I.shape, _pair_centres(W, I, J, d, rho))
        bounds = []
        for hi in folded:
            lo = np.multiply(hi, mu)
            lo += radius[I]
            lo += radius[J]
            np.add(hi, lo, out=hi)
            np.multiply(lo, 2.0, out=lo)
            np.subtract(hi, lo, out=lo)
            if unit > 1.0:
                np.minimum(lo, 2.0**1023 / unit, out=lo)
                hi[hi >= 2.0**1023 / unit] = np.inf
                lo *= unit
                hi *= unit
            with np.errstate(over="ignore"):
                np.divide(lo, d, out=lo)
                np.divide(hi, d, out=hi)
            bounds.append((lo, hi))
        yield I, J, bounds


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

        ``_pair_bounds``' closed-form pair intervals hold only for such
        images: x's image has exactly the blocks b with W[b - 1, x] > 0, each
        fl(W[b - 1, x] F̂_b(x)), with F̂_b(x) read from D over the ball's
        anchors as ``frechet_embed`` reads it.
        """
        W = self.coefficients
        D = self.space.matrix
        rho = self.space.rho()
        base = self.space.index(self.space.basepoint)
        blocks = [self.images[pid].blocks for pid in self.space.ids]
        if sum(map(len, blocks)) != np.count_nonzero(W):
            return None
        for b in range(1, len(W) + 1):
            used = np.flatnonzero(W[b - 1])
            anchors = np.flatnonzero(rho <= self.layout.schedule.radii[2 * b - 1])
            # 64 points at a time reuse same-sized buffers; a missing block leaves rows ragged
            for part in (used[k:k + 64] for k in range(0, used.size, 64)):
                F = (D.T[np.ix_(part, anchors)] - D[anchors, base]) * W[b - 1, part][:, None]
                if not np.array_equal([blocks[i].get(b, ()) for i in part], F):
                    return None
        return W

    def candidates(self, fold: Fold) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (I, J), I < J in row-major order, that can set the scan's max or min ratio.

        Pass it as ``distortion(..., candidates=...)``.  Without an envelope
        these are every pair.  Else, by ``_pair_bounds``, a pair whose upper
        end is below the largest lower end (top) cannot set the max ratio,
        nor one whose lower end is above the smallest upper end (bottom) the
        min.  Each chunk keeps the pairs that reach the running top or
        bottom, and the final ones filter these again; NaN keeps its pair.
        """
        W = self.envelope()
        if W is None:
            return np.triu_indices(len(self.space), 1)
        top, bottom, kept = -np.inf, np.inf, []

        def reach(bounds: list) -> np.ndarray:
            ends = zip(bounds, top, bottom)
            return np.logical_or.reduce([~(hi < t) | ~(lo > b) for (lo, hi), t, b in ends])

        for I, J, bounds in _pair_bounds(self.space, W, fold):
            top = np.maximum(top, [np.max(lo) for lo, _ in bounds])
            bottom = np.minimum(bottom, [np.min(hi) for _, hi in bounds])
            keep = reach(bounds)
            kept.append((np.stack((I, J))[:, keep], [(lo[keep], hi[keep]) for lo, hi in bounds]))
        pairs = np.concatenate([IJ[:, reach(bounds)] for IJ, bounds in kept], axis=1)
        return pairs[0], pairs[1]

    def norm_preservation_error(self) -> float:
        """max over points of | ||Tx|| - rho(x) |, scaled by max(1, rho_max).

        ||Tx|| is read as the target distance of the pair (basepoint, x),
        whose image is 0, for every x, the basepoint included: the target's
        fold of ``sumspace._pair_distances`` on shape (n,).
        """
        rho = self.space.rho()
        vectors = [self.images[pid] for pid in self.space.ids]
        base = np.full(len(rho), self.space.index(self.space.basepoint))
        [norms] = self.spec.fold(rho.shape, _pair_distances(vectors, base, np.arange(len(rho))))
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
    _check_exponent(p)
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
    """Compare the map's blend placement with the next branch formula on every seam point.

    A point with rho in a handover interval [R_{2i}, R_{2i+1}] is in the
    domains of branches i and i+1.  The map holds (c, s, t) in blocks (i,
    i+1, i+2), read from W (t = 0 past the last block); branch i+1's
    formula puts (0, c', s') there.  For ball images of sup norm rho they
    are rho * max(c, |s - c'|, |t - s'|) apart, whatever the provider, and
    exactly 0.0 by the clamped blends.  Returns (max gap, number of points
    checked).
    """
    sched = emb.layout.schedule
    rho = emb.space.rho()
    W = emb.coefficients
    worst = 0.0
    checked = 0
    for i, pid in enumerate(emb.space.ids):
        r = float(rho[i])
        # band_of puts rho in (R_{2b-1}, R_{2b+1}], so only band b's handover can hold it
        band = emb.band_of[pid]
        if band < sched.band_count and sched.radii[2 * band - 1] <= r:
            c, s = float(W[band - 1, i]), float(W[band, i])
            t = float(W[band + 1, i]) if band + 1 < len(W) else 0.0
            c_next, s_next = blend(emb.spec.p, sched, band + 1, r)
            worst = max(worst, r * max(c, abs(s - c_next), abs(t - s_next)))
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
    if len(set(ts)) < samples:
        raise ValueError(f"the {samples} samples t_max^(k/samples) are not distinct doubles")
    ids = tuple(f"t{k:04d}" for k in range(samples))
    space = PointedMetricSpace(ids, ids[0], "l2", coords=np.array(ts)[:, None])
    spec = SumSpaceSpec(2.0, (1, 1))
    image = {}
    for k, t in enumerate(ts):
        x, y = spiral_point(epsilon, t)
        image[ids[k]] = BlockVector(spec, {1: np.array([x]), 2: np.array([y])})
    return measure_distortion(space, image, spec)
