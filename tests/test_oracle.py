"""The pasted map measured in exact-input arithmetic (``tests/oracle.py``).

The float scan must agree with the oracle on integer trees, and the
construction, measured exactly, must stay within ``analytic_bound``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spiralpaste import PointedMetricSpace, analytic_bound, distortion, load_space, paste, radii_schedule

from .conftest import WINDOW_END_DOC
from .oracle import pasted_distortion


def integer_tree(n: int, seed: int, r_max: float = 1e6) -> PointedMetricSpace:
    """Random tree with integer edge weights growing geometrically to about r_max; path metric."""
    rng = np.random.default_rng(seed)
    growth = r_max ** (1.0 / (n - 1))
    parent = [0] + [int(rng.integers(0, i)) for i in range(1, n)]
    weight = [0] + [max(1, round(float(rng.uniform(0.5, 1.5)) * growth**i)) for i in range(1, n)]
    # parents precede children: a node's path to the root is its parent's plus one edge
    paths = [[0]]
    for i in range(1, n):
        paths.append(paths[parent[i]] + [i])
    depth = [sum(weight[v] for v in path) for path in paths]
    D = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            meet = max(set(paths[x]) & set(paths[y]))
            D[x, y] = depth[x] + depth[y] - 2 * depth[meet]
    ids = tuple(f"v{i:02d}" for i in range(n))
    return PointedMetricSpace(ids, ids[0], "matrix", matrix=D)


@pytest.mark.parametrize("n, seed", [(30, 1), (40, 2)])
@pytest.mark.parametrize("p, eps", [(2.0, 0.2), (1.0, 0.5)])
def test_float_scan_equals_the_oracle(n, seed, p, eps):
    space = integer_tree(n, seed)
    emb = paste(space, p, eps)
    assert emb.layout.schedule.band_count >= 3
    rep = distortion(space, emb.images, emb.spec, candidates=emb.candidates)
    assert float(pasted_distortion(space, p, eps)) == pytest.approx(rep.distortion, rel=1e-12)


@st.composite
def lines_on_the_schedule(draw):
    """At most 12 points of a line, basepoint 0, near the schedule's first radii.

    Each point sits on a radius R_1..R_5 to within 2 ulps, or at a random
    place between two of them, on either side of 0.
    """
    eps = draw(st.sampled_from([0.05, 0.1, 0.2]))
    radii = radii_schedule(eps, 3).radii[:5]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = {0.0}
    for _ in range(draw(st.integers(min_value=2, max_value=11))):
        k = int(rng.integers(len(radii)))
        if rng.random() < 0.5 and k + 1 < len(radii):
            r = float(radii[k] * (radii[k + 1] / radii[k]) ** rng.uniform(0.0, 1.0))
        else:
            r = float(radii[k])
            for _ in range(int(rng.integers(0, 3))):
                r = math.nextafter(r, math.inf if rng.random() < 0.5 else 0.0)
        points.add(r * float(rng.choice([-1.0, 1.0])))
    coords = np.array(sorted(points))[:, None]
    ids = tuple(f"x{i:02d}" for i in range(len(coords)))
    return PointedMetricSpace(ids, ids[int(np.flatnonzero(coords[:, 0] == 0.0)[0])], "linf", coords=coords), eps


WINDOW_END_LINE = load_space(WINDOW_END_DOC)


@settings(max_examples=200, deadline=None)
@given(lines_on_the_schedule(), st.sampled_from([1.0, 1.5, 2.0, 2.5]))
@example((WINDOW_END_LINE, 0.1), 2.0)
def test_the_construction_meets_the_bound(case, p):
    # a violation here is a finding about the construction as built, float
    # schedule included, and so about analytic_bound; the oracle adds no rounding
    space, eps = case
    assert pasted_distortion(space, p, eps) <= analytic_bound(p, eps)


def window_end_lines():
    """(space, eps): linf lines {-3, 0, R_k, R_k moved j ulps}, k = 1..5, j = 1, 2, up or down."""
    for eps in (0.05, 0.1, 0.2, 0.3):
        for radius in radii_schedule(eps, 3).radii[:5]:
            for j in (1, 2):
                for toward in (0.0, math.inf):
                    moved = float(radius)
                    for _ in range(j):
                        moved = math.nextafter(moved, toward)
                    coords = np.array([[-3.0], [0.0], [float(radius)], [moved]])
                    yield PointedMetricSpace(("m", "o", "r", "q"), "o", "linf", coords=coords), eps


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0])
def test_window_ends_meet_the_bound(p):
    # the blend reaches (1, 0) and (0, 1) at the radii as built, so a pair
    # straddling a radius keeps its distance, in the oracle and in the scan
    for space, eps in window_end_lines():
        bound = analytic_bound(p, eps)
        assert pasted_distortion(space, p, eps) <= bound, (eps, space.coords.ravel())
        emb = paste(space, p, eps)
        rep = distortion(space, emb.images, emb.spec, analytic_bound=bound, candidates=emb.candidates)
        assert rep.passed, (eps, space.coords.ravel(), rep.distortion)
