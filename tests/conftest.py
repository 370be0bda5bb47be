"""Shared fixtures: the three standing test spaces, integer-metric helpers and the window-end line."""

import sys

import numpy as np
import pytest
from hypothesis import settings

from spiralpaste import PointedMetricSpace, grid_space, line_space, tree_space

# With CI set, hypothesis loads its "ci" profile, which derandomizes: push and
# pull-request runs replay one fixed example sequence.  The scheduled workflow
# runs this profile instead, which draws new examples and prints the blob
# that replays a failure.
settings.register_profile("explore", settings.get_profile("ci"), derandomize=False)

# A linf line that once failed at (p, eps) = (2, 0.1): x is R_4 =
# radii_schedule(0.1, 3).radii[3] and y one ulp below it
WINDOW_END_DOC = {"basepoint": "o", "metric": "linf", "points": [
    {"id": "m", "coords": [-5.2685179]},
    {"id": "o", "coords": [0.0]},
    {"id": "x", "coords": [440315058606318.7]},
    {"id": "y", "coords": [440315058606318.6]},
]}

_PAIR = {"basepoint": "o", "metric": "matrix", "points": [{"id": "o"}, {"id": "a"}]}

# Space documents that load_space rejects, each with its message
SPACE_SCHEMA_ERRORS = [
    ({"basepoint": "o", "metric": "linf", "points": []}, "points must be a non-empty list"),
    ({"basepoint": "o", "metric": "linf", "points": [{"coords": [0]}]},
     "each point entry must be an object with an 'id'"),
    ({"basepoint": "o", "metric": "linf", "points": [{"id": "o"}]}, "point 'o' missing coords"),
    (_PAIR, "matrix metric requires a 'matrix' field"),
    (dict(_PAIR, matrix=[[0, 1], [1, 0.5]]), "self-distances must vanish"),
    ({"basepoint": "o", "metric": "linf", "points": [
        {"id": "o", "coords": [0]}, {"id": "a", "coords": [1, 2]}]},
     "all points must share one coordinate dimension"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay acceptance verdict lines after the run, past output capture."""
    mod = sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def line():
    return line_space()


@pytest.fixture(scope="session")
def grid():
    return grid_space()


@pytest.fixture(scope="session")
def tree():
    return tree_space()


@pytest.fixture(scope="session")
def test_spaces(line, grid, tree):
    return {"line": line, "grid": grid, "tree": tree}


def random_integer_space(rng: np.random.Generator, n_max: int = 40) -> PointedMetricSpace:
    """Random distinct integer points under the sup metric; distances are exact ints."""
    n = int(rng.integers(3, n_max + 1))
    dim = int(rng.integers(1, 4))
    seen = set()
    pts = []
    while len(pts) < n:
        cand = tuple(int(v) for v in rng.integers(-50, 51, size=dim))
        if cand not in seen:
            seen.add(cand)
            pts.append(cand)
    arr = np.array(pts, dtype=float)
    dmat = np.abs(arr[:, None, :] - arr[None, :, :]).max(axis=2)
    ids = tuple(f"q{i:03d}" for i in range(n))
    return PointedMetricSpace(ids=ids, basepoint=ids[0], kind="matrix", matrix=dmat)
