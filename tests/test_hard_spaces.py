"""The committed corpus of hard inputs (``tests/data/hard_spaces.json``).

``tools/make_hard_spaces.py`` wrote each cell's oracle value.  Here the
construction, measured exactly, must meet ``analytic_bound`` on every
cell, and the oracle must still give the stored value.  The float verdict
is not judged: on some cells it fails today, while the construction passes.
"""

import json

import mpmath
import pytest

from spiralpaste import analytic_bound, load_space

from .conftest import DATA
from .oracle import DIGITS, pasted_distortion

CORPUS = json.loads((DATA / "hard_spaces.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", [
    pytest.param(cell, id=f"{entry['name']}-p{cell['p']:g}-eps{cell['epsilon']:g}")
    for entry in CORPUS for cell in entry["cells"]
])
def test_the_construction_meets_the_bound(cell):
    with mpmath.workdps(DIGITS):
        assert mpmath.mpf(cell["oracle"]) <= analytic_bound(cell["p"], cell["epsilon"])


@pytest.mark.parametrize("entry", CORPUS, ids=[entry["name"] for entry in CORPUS])
def test_the_oracle_gives_the_stored_value(entry):
    cell = entry["cells"][0]
    got = pasted_distortion(load_space(entry["space"]), cell["p"], cell["epsilon"])
    with mpmath.workdps(DIGITS):
        assert abs(got - mpmath.mpf(cell["oracle"])) <= mpmath.mpf(10) ** (10 - DIGITS)
