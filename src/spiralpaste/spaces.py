"""Deterministic example spaces with radii spread over several bands.

Pasting only blends where distances to the basepoint cross the schedule's
windows, so useful test spaces need geometric radius ladders; uniform
point clouds sit inside a single band.
"""

from __future__ import annotations

import numpy as np

from .metric import PointedMetricSpace

__all__ = ["line_space", "grid_space", "tree_space"]


def line_space(n: int = 64, r_max: float = 1e9) -> PointedMetricSpace:
    """Points 0, 1, ..., r_max on the real line, geometrically spaced."""
    if n < 3:
        raise ValueError("need at least three points")
    ts = [0.0] + [r_max ** (k / (n - 2)) for k in range(n - 1)]
    ids = tuple(f"x{k:03d}" for k in range(n))
    return PointedMetricSpace(ids, "x000", "linf", coords=np.array(ts)[:, None])


def grid_space(side: int = 14, base: float = 5.0) -> PointedMetricSpace:
    """side x side sup-norm grid over the ladder {0, 1, base, base^2, ...}."""
    if side < 2:
        raise ValueError("need at least a 2 x 2 grid")
    ladder = [0.0] + [base**k for k in range(side - 1)]
    coords = [[a, b] for a in ladder for b in ladder]
    ids = tuple(f"g{i:03d}" for i in range(len(coords)))
    return PointedMetricSpace(ids, "g000", "linf", coords=np.array(coords))


def tree_space(n: int = 150, r_max: float = 1e9, seed: int = 7) -> PointedMetricSpace:
    """Random tree with geometrically growing edge weights, path metric."""
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    growth = r_max ** (1.0 / (n - 1))
    parent = np.zeros(n, dtype=int)
    weight = np.zeros(n)
    for i in range(1, n):
        parent[i] = rng.integers(0, i)
        weight[i] = float(rng.uniform(0.5, 1.5)) * growth**i
    # Parents precede children, so descending order visits every subtree
    # before its parent.  D[v, s] is the path length from s to v, summed by
    # the same single additions as a walk outward from s: up from v to its
    # parent for s in the subtree of v, else down from the parent to v.
    below = np.eye(n, dtype=bool)  # below[v, s]: s lies in the subtree of v
    for v in range(n - 1, 0, -1):
        below[parent[v]] |= below[v]
    D = np.zeros((n, n))
    for v in range(n - 1, 0, -1):
        up = below[v]
        D[parent[v], up] = D[v, up] + weight[v]
    for v in range(1, n):
        down = ~below[v]
        D[v, down] = D[parent[v], down] + weight[v]
    D = (D + D.T) / 2.0  # symmetrise the float roundoff of path sums
    ids = tuple(f"v{i:03d}" for i in range(n))
    return PointedMetricSpace(ids, "v000", "matrix", matrix=D)
