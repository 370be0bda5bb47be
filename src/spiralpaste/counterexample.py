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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import CoverageViolated, NotARay
from .metric import PointedMetricSpace
from .sumspace import BlockVector, SumSpaceSpec, SUP, block_profile, norm, project

__all__ = [
    "CounterexampleConfig",
    "RayFamily",
    "build_family",
    "ray_point",
    "linf_distance",
    "verify_metric_ray",
    "SeparationWitness",
    "separation_witness",
    "separation_epsilon",
    "verify_separation_epsilon",
    "profile_proportionality",
    "min_projection_level",
    "ball_point_count",
    "to_metric_space",
    "ray_block_vectors",
    "grouping_spec",
]


@dataclass(frozen=True)
class CounterexampleConfig:
    """Level widths N_1..N_T, depth T, and the number of rays J."""

    N: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    depth: int = 6
    ray_count: int = 8

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(int(n) for n in self.N))
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.N) != self.depth:
            raise ValueError(f"need one level width per level 1..{self.depth}")
        if any(n < 1 for n in self.N):
            raise ValueError("level widths must be positive")
        if any(b <= a for a, b in zip(self.N, self.N[1:])):
            raise ValueError("level widths must be strictly increasing")
        if self.ray_count < max(self.N):
            raise ValueError(
                f"ray_count {self.ray_count} cannot cover every level position "
                f"(max width {max(self.N)})"
            )

    def level_positions(self, t: int) -> tuple[int, ...]:
        """The 1-based coordinate positions of level t (level 0 is {1})."""
        if t == 0:
            return (1,)
        if not 1 <= t <= self.depth:
            raise IndexError(f"level {t} outside 0..{self.depth}")
        start = 2 + sum(self.N[: t - 1])
        return tuple(range(start, start + self.N[t - 1]))


@dataclass(frozen=True)
class RayFamily:
    """Config plus the per-ray choice of one position inside each level."""

    config: CounterexampleConfig
    choices: tuple[tuple[int, ...], ...]  # choices[t-1][j-1], levels 1..depth-1

    def choice(self, j: int, t: int) -> int:
        return self.choices[t - 1][j - 1]


def build_family(
    config: CounterexampleConfig | None = None,
    choice: Callable[[int, int], int] | None = None,
) -> RayFamily:
    """Materialise the choice table; round-robin over level positions by default.

    Verifies the coverage condition: at every level used by some ray
    (1..depth-1), each level position is chosen by at least one ray.
    """
    cfg = config or CounterexampleConfig()
    table = []
    for t in range(1, cfg.depth):
        pos = cfg.level_positions(t)
        row = []
        for j in range(1, cfg.ray_count + 1):
            n = choice(j, t) if choice is not None else pos[(j - 1) % len(pos)]
            if n not in pos:
                raise CoverageViolated(f"choice {n} for ray {j} is not a level-{t} position")
            row.append(int(n))
        if set(row) != set(pos):
            missing = sorted(set(pos) - set(row))
            raise CoverageViolated(f"level {t} positions {missing} are never chosen")
        table.append(tuple(row))
    return RayFamily(cfg, tuple(table))


def ray_point(family: RayFamily, j: int, t: int) -> dict[int, int]:
    """The t-th point of ray j, as a sparse {position: value} integer vector.

    t = 0 is the origin and t = 1 the first unit vector; beyond that the
    point carries (3^t - 1)/2 at position 1 and (3^t - 3^u)/2 at the
    ray's level-u position for u = 1..t-1.  Every value is a nonnegative
    multiple of 3^level, so the point lies in the carrier set.
    """
    cfg = family.config
    if not 1 <= j <= cfg.ray_count:
        raise IndexError(f"ray index {j} outside 1..{cfg.ray_count}")
    if not 0 <= t <= cfg.depth:
        raise IndexError(f"ray step {t} outside 0..{cfg.depth}")
    if t == 0:
        return {}
    if t == 1:
        return {1: 1}
    vec = {1: (3**t - 1) // 2}
    for u in range(1, t):
        vec[family.choice(j, u)] = (3**t - 3**u) // 2
    return vec


def in_carrier(family: RayFamily, vec: dict[int, int]) -> bool:
    """Whether a sparse integer vector lies in the carrier set: finitely many
    nonzero coordinates, each a nonnegative multiple of 3^(its level)."""
    cfg = family.config
    # position -> level lookup over all configured levels
    level_of = {1: 0}
    for t in range(1, cfg.depth + 1):
        for pos in cfg.level_positions(t):
            level_of[pos] = t
    for pos, val in vec.items():
        if val == 0:
            continue
        if pos not in level_of:
            return False
        if val < 0 or val % (3 ** level_of[pos]) != 0:
            return False
    return True


def linf_distance(a: dict[int, int], b: dict[int, int]) -> int:
    """Exact sup-norm distance between sparse integer vectors."""
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), default=0)


def verify_metric_ray(points) -> bool:
    """Check the metric-ray conditions under the exact sup norm.

    points: list of sparse integer dicts.  Requires distances to
    points[0] to be strictly increasing and every inner point to split
    distances additively: d(i,k) = d(i,j) + d(j,k) for i < j < k.
    """
    m = len(points)
    if m < 2:
        return True
    dist = lambda i, k: linf_distance(points[i], points[k])
    base = [dist(0, i) for i in range(m)]
    for i in range(1, m):
        if base[i] <= base[i - 1]:
            return False
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                if dist(i, k) != dist(i, j) + dist(j, k):
                    return False
    return True


@dataclass(frozen=True)
class SeparationWitness:
    """Tips of rays with pairwise distinct last-level choices."""

    level: int
    rays: tuple[int, ...]
    points: tuple
    min_distance: int
    bound: int


def separation_witness(family: RayFamily, t: int) -> SeparationWitness:
    """Pick N_{t-1} rays with distinct level-(t-1) choices; their level-t
    points are pairwise at distance >= 3^(t-1), verified by brute force."""
    cfg = family.config
    if not 2 <= t <= cfg.depth:
        raise IndexError(f"separation level {t} outside 2..{cfg.depth}")
    want = cfg.N[t - 2]
    seen: set[int] = set()
    chosen: list[int] = []
    for j in range(1, cfg.ray_count + 1):
        n = family.choice(j, t - 1)
        if n not in seen:
            seen.add(n)
            chosen.append(j)
        if len(chosen) == want:
            break
    if len(chosen) < want:
        raise CoverageViolated(
            f"only {len(chosen)} distinct level-{t - 1} choices among {cfg.ray_count} rays"
        )
    pts = [ray_point(family, j, t) for j in chosen]
    dmin = min(
        linf_distance(pts[a], pts[b]) for a in range(len(pts)) for b in range(a + 1, len(pts))
    )
    bound = 3 ** (t - 1)
    if dmin < bound:
        raise AssertionError(f"separation {dmin} below the guaranteed {bound}")
    return SeparationWitness(t, tuple(chosen), tuple(pts), dmin, bound)


def separation_epsilon() -> float:
    """Largest eps with 3^(t-1) - 2 eps 3^t >= 3^(t-2) for every level: 1/9."""
    return 1.0 / 9.0


def verify_separation_epsilon(t_max: int = 12) -> bool:
    """Exact check (fractions) that eps = 1/9 gives equality at t = 1..t_max
    and that any larger eps fails at every level."""
    eps = Fraction(1, 9)
    for t in range(1, t_max + 1):
        lhs = Fraction(3) ** (t - 1) - 2 * eps * Fraction(3) ** t
        rhs = Fraction(3) ** (t - 2)
        if lhs != rhs:
            return False
        bigger = eps + Fraction(1, 1000)
        if Fraction(3) ** (t - 1) - 2 * bigger * Fraction(3) ** t >= rhs:
            return False
    return True


# Interplay with block sums --------------------------------------------------

def grouping_spec(config: CounterexampleConfig, p: float) -> SumSpaceSpec:
    """One block per level: dims (1, N_1, ..., N_{depth-1})."""
    return SumSpaceSpec(p, (1,) + tuple(config.N[: config.depth - 1]))


def ray_block_vectors(family: RayFamily, j: int, p: float, t_max: int | None = None) -> list[BlockVector]:
    """Ray points as block vectors under the one-block-per-level grouping."""
    cfg = family.config
    spec = grouping_spec(cfg, p)
    t_max = cfg.depth if t_max is None else t_max
    starts = {t: cfg.level_positions(t)[0] for t in range(0, cfg.depth)}
    out = []
    for t in range(0, t_max + 1):
        vec = ray_point(family, j, t)
        blocks: dict[int, np.ndarray] = {}
        for pos, val in vec.items():
            level = 0 if pos == 1 else next(
                lv for lv in range(1, cfg.depth) if pos in cfg.level_positions(lv)
            )
            arr = blocks.setdefault(level + 1, np.zeros(spec.block_dims[level]))
            arr[pos - starts[level]] = float(val)
        out.append(BlockVector(spec, blocks))
    return out


def profile_proportionality(ray: list[BlockVector], tol: float = 1e-8) -> bool:
    """Whether every ray point's block profile is a positive multiple of the
    first step's profile.

    Preconditions (NotARay otherwise): the aggregation exponent lies
    strictly between 1 and infinity, ray[0] is the origin, and the points
    form a metric ray under the sum norm.  For such rays flatness forces
    proportional profiles; this checks it numerically.
    """
    if len(ray) < 2:
        raise NotARay("need at least the origin and one step")
    p = ray[0].spec.p
    if not 1.0 < p < SUP:
        raise NotARay(f"profile law needs 1 < p < inf, got p={p}")
    if norm(ray[0]) != 0.0:
        raise NotARay("ray must start at the origin")
    dists = [[norm(a - b) for b in ray] for a in ray]
    scale = max(max(row) for row in dists)
    for i in range(1, len(ray)):
        if dists[0][i] <= dists[0][i - 1]:
            raise NotARay("distances to the origin must increase strictly")
    for i in range(len(ray)):
        for j in range(i + 1, len(ray)):
            for k in range(j + 1, len(ray)):
                if abs(dists[i][k] - dists[i][j] - dists[j][k]) > tol * scale:
                    raise NotARay(f"additivity fails on steps ({i},{j},{k})")
    base = block_profile(ray[1])
    bb = float(base @ base)
    for i in range(1, len(ray)):
        prof = block_profile(ray[i])
        mult = float(prof @ base) / bb
        if mult <= 0.0 or float(np.max(np.abs(prof - mult * base))) > tol * max(scale, 1.0):
            return False
    return True


def min_projection_level(ray: list[BlockVector], epsilon: float) -> int:
    """Smallest k with ||r_i - (blocks 1..k of r_i)|| <= eps * ||r_i|| for all i.

    Also derives k from the first step alone and insists the two agree,
    which holds for genuine rays (proportional profiles).
    """
    if len(ray) < 2:
        raise NotARay("need at least the origin and one step")
    if norm(ray[0]) != 0.0:
        raise NotARay("ray must start at the origin")

    def level_for(points: list[BlockVector]) -> int:
        nb = points[0].spec.num_blocks
        for k in range(1, nb + 1):
            ok = True
            for v in points:
                tail = norm(v - project(v, k))
                if tail > epsilon * norm(v):
                    ok = False
                    break
            if ok:
                return k
        return nb

    k_all = level_for(ray[1:])
    k_one = level_for(ray[1:2])
    if k_all != k_one:
        raise NotARay(
            f"projection level from the first step ({k_one}) disagrees with the "
            f"family level ({k_all}); profiles are not proportional"
        )
    return k_all


# Whole-space views -----------------------------------------------------------

def _all_points(family: RayFamily, depth: int):
    """Deduplicated ray points up to ``depth``: list of (id, sparse vector)."""
    seen: dict[tuple, str] = {}
    out = []
    for t in range(0, depth + 1):
        for j in range(1, family.config.ray_count + 1):
            vec = ray_point(family, j, t)
            key = tuple(sorted(vec.items()))
            if key not in seen:
                pid = f"r{t}j{j}"
                seen[key] = pid
                out.append((pid, vec))
    return out

def ball_point_count(family: RayFamily, radius: int, depth: int | None = None) -> int:
    """How many distinct ray points lie in the closed ball around the origin.

    Point norms are (3^t - 1)/2, so the count is insensitive to raising
    ``depth`` beyond the radius (local finiteness)."""
    depth = family.config.depth if depth is None else min(depth, family.config.depth)
    pts = _all_points(family, depth)
    return sum(1 for _, vec in pts if linf_distance(vec, {}) <= radius)


def to_metric_space(family: RayFamily, depth: int | None = None) -> PointedMetricSpace:
    """All distinct ray points as a pointed metric space (exact sup metric)."""
    depth = family.config.depth if depth is None else depth
    pts = _all_points(family, depth)
    ids = tuple(pid for pid, _ in pts)
    n = len(pts)
    D = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            D[a, b] = D[b, a] = float(linf_distance(pts[a][1], pts[b][1]))
    return PointedMetricSpace(ids, ids[0], "matrix", matrix=D)
