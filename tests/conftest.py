"""Shared fixtures: the three standing test spaces, integer-metric helpers and the window-end line."""

import json
import math
import sys
from pathlib import Path

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

DATA = Path(__file__).parent / "data"

# The stdout of `spiralpaste counterexample` at its default flags, byte for byte
COUNTEREXAMPLE_DEFAULT = DATA / "counterexample_default.json"

# space_to_doc(line_space(24, r_max=1e6)), and the stdout, byte for byte, of
# `spiralpaste fdd-demo --epsilon 0.2` and `spiralpaste embed --method frechet`
# on it, each run from the repo root with `--input tests/data/line24.json`
LINE24 = DATA / "line24.json"
FDD_DEMO_LINE24 = DATA / "fdd_demo_line24.json"
FRECHET_LINE24 = DATA / "frechet_line24.json"


def pinned_payload(path: Path) -> tuple[dict, bool]:
    """A pinned report less the keys the CLI adds, and its pass flag."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    passed = doc.pop("pass")
    for key in ("schema_version", "command", "config"):
        del doc[key]
    return doc, passed

_PAIR = {"basepoint": "o", "metric": "matrix", "points": [{"id": "o"}, {"id": "a"}]}
_TRIPLE = dict(_PAIR, points=[{"id": "o"}, {"id": "a"}, {"id": "b"}])

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
    # JSON true/false load as bool, which Python counts as an int
    *(({"basepoint": "o", "metric": "linf", "points": [
        {"id": "o", "coords": [0]}, {"id": "a", "coords": coords}]},
       "coords of point 'a' must be a list of numbers")
      for coords in (True, [True], "1", ["1"], [[1]])),
    # an integer literal beyond double range
    ({"basepoint": "o", "metric": "linf", "points": [
        {"id": "o", "coords": [0]}, {"id": "a", "coords": [10**400]}]},
     "coords of point 'a': a number lies beyond double range"),
    *((dict(_PAIR, matrix=matrix), "matrix must be a list of 2 rows of 2 numbers")
      for matrix in ([[0, True], [1, 0]], [[0, 1], [1]])),
    (dict(_PAIR, matrix=[[0, 10**400], [10**400, 0]]), "matrix: a number lies beyond double range"),
    # the matrix is read a row at a time: a bad entry in the last row is still found
    (dict(_TRIPLE, matrix=[[0, 1, 2], [1, 0, 1], [2, True, 0]]),
     "matrix must be a list of 3 rows of 3 numbers"),
    (dict(_TRIPLE, matrix=[[0, 1, 2], [1, 0, 1], [2, 10**400, 0]]),
     "matrix: a number lies beyond double range"),
    # the shape is checked before any entry: a ragged row after a bool is a shape error
    (dict(_TRIPLE, matrix=[[0, True, 2], [1, 0], [2, 1, 0]]),
     "matrix must be a list of 3 rows of 3 numbers"),
]

# Map documents that load_map rejects, by id, each with its message; the
# space they are measured on has the points "o" and "a"
_MAP = {"p": 2, "block_dims": [1], "images": {"o": {"1": [0]}, "a": {"1": [1]}}}


def _image(a):
    return dict(_MAP, images={"o": {"1": [0]}, "a": a})


MAP_SCHEMA_ERRORS = {
    "not-object": ([], "map document must be an object"),
    "missing-key": ({"p": 2, "block_dims": [1]}, "map document missing 'images'"),
    "p-bool": (dict(_MAP, p=True), 'map field \'p\' must be a number or "sup"'),
    "p-huge": (dict(_MAP, p=10**400), "map field 'p': a number lies beyond double range"),
    "p-string": (dict(_MAP, p="x"), 'map field \'p\' must be a number or "sup"'),
    "dims-bool": (dict(_MAP, block_dims=[True]), "map field 'block_dims' must be a list of integers"),
    "dims-float": (dict(_MAP, block_dims=[1.5]), "map field 'block_dims' must be a list of integers"),
    "p-below-one": (dict(_MAP, p=0.5), "aggregation exponent must be >= 1 or SUP, got 0.5"),
    "dims-zero": (dict(_MAP, block_dims=[0]), "block dims must be positive integers, got (0,)"),
    "images-not-object": ({"p": 2, "block_dims": [1], "images": []},
                          "map field 'images' must be an object keyed by point id"),
    "image-not-object": ({"p": 2, "block_dims": [1], "images": {"o": {}, "a": [1]}},
                         "image of 'a' must be an object keyed by block index"),
    "key-space": (_image({" 1": [1]}), "block key ' 1' of 'a' is not an integer"),
    "key-twice": (_image({"1": [1], "01": [5]}), "block keys '1' and '01' of 'a' both name block 1"),
    "value-bool": (_image({"1": [True]}), "block 1 of 'a' must be a list of numbers"),
    "value-nested": (_image({"1": [[1]]}), "block 1 of 'a' must be a list of numbers"),
    "value-huge": (_image({"1": [10**400]}), "block 1 of 'a': a number lies beyond double range"),
    "value-nan": (_image({"1": [math.nan]}), "block 1 of 'a' must hold finite numbers"),
    "value-inf": (_image({"1": [math.inf]}), "block 1 of 'a' must hold finite numbers"),
    "block-shape": (_image({"1": [1, 2]}), "image of 'a': block 1 has shape (2,), expected (1,)"),
}


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
