"""A locally finite witness space that resists low-distortion embeddings.

Points live in sup-norm sequence space, carried on a partition of the
coordinate axis into consecutive level sets (one singleton level, then
levels of configurable widths).  A family of rays shares powers-of-three
coordinates but spreads them over level positions chosen per ray; rays
agree metrically (so each is an exact metric ray) while their tips at any
level form large well-separated sets.  All checks here are exact integer
comparisons.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .metric import PointedMetricSpace

__all__ = [
    "CounterexampleConfig",
    "ray_norm",
    "ray_point",
    "in_carrier",
    "linf_distance",
    "verify_metric_ray",
    "SeparationWitness",
    "separation_witness",
    "verify_separation_epsilon",
    "ball_point_count",
    "packing_bound",
    "to_metric_space",
    "family_report",
]

# The largest tail eps whose cut leaves the level-t tips 3^(t-1) - 2 eps 3^t
# = 3^(t-2) apart; verify_separation_epsilon checks it exactly
TAIL_EPSILON = Fraction(1, 9)


@dataclass(frozen=True)
class CounterexampleConfig:
    """Level widths N_1..N_T and the number of rays J; the depth T is len(N).

    Rays choose positions in levels 1..T-1 only, so J >= N_1..N_{T-1} suffices.
    `starts`, set once from N and kept out of init, repr, == and hash, lays out
    the levels: level t >= 1 is positions starts[t-1]..starts[t]-1, level 0 is {1}."""

    N: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    ray_count: int = 8
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(int(n) for n in self.N))
        if not self.N:
            raise ValueError("need at least one level width")
        if any(n < 1 for n in self.N):
            raise ValueError("level widths must be positive")
        if any(b <= a for a, b in zip(self.N, self.N[1:])):
            raise ValueError("level widths must be strictly increasing")
        if self.depth > 1 and self.N[0] < 2:
            raise ValueError(f"N_1 must be at least 2 when the depth is 2 or more, got {self.N[0]}: "
                             "the level-2 separation compares the tips of N_1 rays")
        need = max((1, *self.N[:-1]))
        if self.ray_count < need:
            raise ValueError(f"ray_count {self.ray_count} cannot cover every position of "
                             f"levels 1..{self.depth - 1} (need at least {need})")
        object.__setattr__(self, "starts", tuple(accumulate(self.N, initial=2)))

    @property
    def depth(self) -> int:
        return len(self.N)

    def choice(self, j: int, t: int) -> int:
        """The level-t position of ray j, round robin over the level's positions."""
        if not 1 <= t <= self.depth:
            raise IndexError(f"level {t} outside 1..{self.depth}")
        return self.starts[t - 1] + (j - 1) % self.N[t - 1]


def ray_norm(t: int) -> int:
    """The sup norm (3^t - 1)/2 of every ray's t-th point, held at position 1."""
    return (3**t - 1) // 2


def ray_point(cfg: CounterexampleConfig, j: int, t: int) -> dict[int, int]:
    """The t-th point of ray j, as a sparse {position: value} integer vector.

    t = 0 is the origin; beyond that the point carries ray_norm(t) at
    position 1 and ray_norm(t) - ray_norm(u) = (3^t - 3^u)/2 at the ray's
    level-u position for u = 1..t-1.  Every value is a nonnegative multiple
    of 3^level, so the point lies in the carrier set.
    """
    if not 1 <= j <= cfg.ray_count:
        raise IndexError(f"ray index {j} outside 1..{cfg.ray_count}")
    if not 0 <= t <= cfg.depth:
        raise IndexError(f"ray step {t} outside 0..{cfg.depth}")
    if t == 0:
        return {}
    norm = ray_norm(t)
    vec = {1: norm}
    for u in range(1, t):
        vec[cfg.choice(j, u)] = norm - ray_norm(u)
    return vec


def in_carrier(cfg: CounterexampleConfig, vec: dict[int, int]) -> bool:
    """Whether a sparse integer vector lies in the carrier set: finitely many
    nonzero coordinates, each a nonnegative multiple of 3^(its level)."""
    for pos, val in vec.items():
        if val == 0:
            continue
        level = bisect_right(cfg.starts, pos)  # 0 at position 1, depth + 1 past the last level
        if pos < 1 or level > cfg.depth or val < 0 or val % (3**level) != 0:
            return False
    return True


def linf_distance(a: dict[int, int], b: dict[int, int]) -> int:
    """Exact sup-norm distance between sparse integer vectors."""
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()), default=0)


def verify_metric_ray(points) -> bool:
    """Check the metric-ray conditions under the exact sup norm.

    points: list of sparse integer dicts.  Requires distances to
    points[0] to be strictly increasing and every inner point to split
    distances additively: d(i,k) = d(i,j) + d(j,k) for i < j < k.

    Both hold exactly when every step d(k-1,k) is positive and
    d(0,k) = d(0,k-1) + d(k-1,k) for every k, so one pass over the steps
    decides them.  Necessity is the case i = 0, j = k-1.  Sufficiency:
    d(0,k) is then the sum of the steps up to k, so for i < k the triangle
    inequality gives d(i,k) <= (steps from i to k) = d(0,k) - d(0,i)
    <= d(i,k); every distance is its sum of steps, and sums of steps add.
    linf_distance is exact on integers, so this is the same verdict as
    comparing every triple.
    """
    base = 0
    for a, b in zip(points, points[1:]):
        step = linf_distance(a, b)
        if step <= 0 or linf_distance(points[0], b) != base + step:
            return False
        base += step
    return True


@dataclass(frozen=True)
class SeparationWitness:
    """Tips of rays with pairwise distinct last-level choices."""

    level: int
    rays: tuple[int, ...]
    points: tuple
    min_distance: int
    bound: int


def separation_witness(cfg: CounterexampleConfig, t: int) -> SeparationWitness:
    """The level-t points of rays 1..N_{t-1}, whose round-robin level-(t-1)
    choices are distinct, with their least pairwise distance computed by
    brute force.  The construction puts it at >= 3^(t-1), the `bound`;
    the caller judges the two."""
    if not 2 <= t <= cfg.depth:
        raise IndexError(f"separation level {t} outside 2..{cfg.depth}")
    rays = tuple(range(1, cfg.N[t - 2] + 1))
    pts = [ray_point(cfg, j, t) for j in rays]
    dmin = min(
        linf_distance(pts[a], pts[b]) for a in range(len(pts)) for b in range(a + 1, len(pts))
    )
    return SeparationWitness(t, rays, tuple(pts), dmin, 3 ** (t - 1))


def verify_separation_epsilon() -> bool:
    """Exact check (fractions) that eps = TAIL_EPSILON gives equality at
    t = 1..12 and that any larger eps fails at every one of those levels."""
    eps = TAIL_EPSILON
    for t in range(1, 13):
        lhs = Fraction(3) ** (t - 1) - 2 * eps * Fraction(3) ** t
        rhs = Fraction(3) ** (t - 2)
        if lhs != rhs:
            return False
        bigger = eps + Fraction(1, 1000)
        if Fraction(3) ** (t - 1) - 2 * bigger * Fraction(3) ** t >= rhs:
            return False
    return True


# Whole-space views -----------------------------------------------------------

def _all_points(cfg: CounterexampleConfig):
    """Deduplicated ray points of the whole family: list of (id, sparse vector)."""
    seen: dict[tuple, str] = {}
    out = []
    for t in range(0, cfg.depth + 1):
        for j in range(1, cfg.ray_count + 1):
            vec = ray_point(cfg, j, t)
            key = tuple(sorted(vec.items()))
            if key not in seen:
                pid = f"r{t}j{j}"
                seen[key] = pid
                out.append((pid, vec))
    return out


def ball_point_count(cfg: CounterexampleConfig, radius: int) -> int:
    """How many distinct ray points lie in the closed ball around the origin.

    Point norms are ray_norm(t), so only the first few steps of each ray
    can lie in the ball (local finiteness)."""
    return sum(1 for _, vec in _all_points(cfg) if linf_distance(vec, {}) <= radius)


def to_metric_space(cfg: CounterexampleConfig) -> PointedMetricSpace:
    """All distinct ray points as a pointed metric space (exact sup metric)."""
    pts = _all_points(cfg)
    ids = tuple(pid for pid, _ in pts)
    n = len(pts)
    D = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            D[a, b] = D[b, a] = float(linf_distance(pts[a][1], pts[b][1]))
    return PointedMetricSpace(ids, ids[0], "matrix", matrix=D)


def packing_bound(R: float, delta: float, m: int, C: float) -> float:
    """Cardinality bound (C * R / delta)^m for delta-separated sets in a ball."""
    if R <= 0 or delta <= 0 or C <= 0 or m < 1:
        raise ValueError("packing bound needs positive R, delta, C and m >= 1")
    return (C * R / delta) ** m


def family_report(cfg: CounterexampleConfig) -> tuple[dict, bool]:
    """The family's report and whether its checks all pass: every ray, the
    separation witnesses, their counts against fixed-dimension packing limits
    at radius ray_norm(t) and the separation 3^(t-2) that TAIL_EPSILON leaves,
    and the number of points within ray_norm(depth) of the origin."""
    rays = []
    additive = carried = True
    for j in range(1, cfg.ray_count + 1):
        pts = [ray_point(cfg, j, t) for t in range(cfg.depth + 1)]
        additive &= verify_metric_ray(pts)
        carried &= all(in_carrier(cfg, pt) for pt in pts)
        rays.append({"ray": j, "points": pts})

    separations, packing = [], []
    for t in range(2, cfg.depth + 1):
        w = separation_witness(cfg, t)
        separations.append({"level": w.level, "rays": list(w.rays), "count": len(w.points),
                            "min_distance": w.min_distance, "bound": w.bound})
        radius, delta = float(ray_norm(t)), float(3 ** (t - 2))
        row = {"level": t, "radius": radius, "delta": delta, "count": len(w.points)}
        for m in (1, 2, 3):
            row[f"bound_dim_{m}"] = packing_bound(radius, delta, m, 4.0)
        packing.append(row)

    checks = {
        "rays_additive": additive,
        "rays_in_carrier": carried,
        "separations_at_bound": all(s["min_distance"] >= s["bound"] for s in separations),
        "epsilon_exact": verify_separation_epsilon(),
    }
    payload = {
        "levels": list(cfg.N),
        "depth": cfg.depth,
        "ray_count": cfg.ray_count,
        "rays": rays,
        "separations": separations,
        "packing": packing,
        "tail_epsilon": str(TAIL_EPSILON),
        "ball_points": ball_point_count(cfg, ray_norm(cfg.depth)),
        "checks": checks,
    }
    return payload, all(checks.values())
