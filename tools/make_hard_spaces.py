"""Write tests/data/hard_spaces.json, the corpus of hard inputs judged by the oracle.

    python tools/make_hard_spaces.py

Each entry is a space document and its (p, eps) cells.  Each cell holds
the pasted map's distortion as ``tests/oracle.py`` measures it, written as
a 60-digit string; the file holds one entry a line.  The spaces are:

- ``line49``: the linf line 0, exp(linspace(-0.5, ln R_4 + 0.5, 48)), with
  R_4 = radii_schedule(0.05, 3).radii[3];
- ``window_end``: ``tests/conftest.WINDOW_END_DOC``, a pair one ulp apart at
  R_4 of eps = 0.1;
- ``radial_pair``: the linf line {0, 2566, 2567}, the radial pair in the
  middle of the first blend window;
- ``jittered_line11``: 0 and a ten-rung geometric ladder from 1 to R_4,
  each rung moved by a seeded log-jitter of up to 5% of a rung step;
- ``ulp_close``: {-3, 0, r, r + 1 ulp} with r seeded log-uniform in [1, R_4].

The last two come from a seeded search: seeds run from 0, and the first
space whose float verdict fails is kept.  The script prints, for every
cell, the float scan's distortion, ``analytic_bound``, the float verdict
and the oracle's value.  The file keeps only the oracle's.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from spiralpaste import (  # noqa: E402
    PointedMetricSpace, analytic_bound, distortion, load_space, paste, radii_schedule, space_to_doc,
)
from tests.conftest import WINDOW_END_DOC  # noqa: E402
from tests.oracle import DIGITS, pasted_distortion  # noqa: E402

OUT = ROOT / "tests" / "data" / "hard_spaces.json"


def linf_line(coords, ids=None, base: str | None = None) -> PointedMetricSpace:
    ids = tuple(ids or (f"p{i}" for i in range(len(coords))))
    return PointedMetricSpace(ids, base or ids[0], "linf", coords=np.array(coords, dtype=float)[:, None])


def float_scan(space: PointedMetricSpace, p: float, eps: float):
    """The float verdict's report at (p, eps), as ``embed`` measures it."""
    emb = paste(space, p, eps)
    bound = analytic_bound(p, eps)
    return distortion(space, emb.images, emb.spec, analytic_bound=bound, candidates=emb.candidates)


def first_false_failure(build, p: float, eps: float) -> PointedMetricSpace:
    """``build(rng)`` at seeds 0, 1, ...: the first space whose float verdict fails at (p, eps)."""
    for seed in range(10_000):
        space = build(np.random.default_rng(seed))
        if not float_scan(space, p, eps).passed:
            return space
    raise RuntimeError("no seed up to 10000 fails the float verdict")


def hard_spaces() -> list[tuple[str, PointedMetricSpace, list[tuple[float, float]]]]:
    r4_05 = float(radii_schedule(0.05, 3).radii[3])
    r4_10 = float(radii_schedule(0.1, 3).radii[3])
    step = math.log(r4_05) / 9

    def jittered(rng):
        rungs = np.exp(np.linspace(0.0, math.log(r4_05), 10) + rng.uniform(-0.05, 0.05, 10) * step)
        return linf_line([0.0, *np.sort(rungs)])

    def ulp_pair(rng):
        r = float(np.exp(rng.uniform(0.0, math.log(r4_10))))
        return linf_line([-3.0, 0.0, r, math.nextafter(r, math.inf)], ("m", "o", "x", "y"), "o")

    return [
        ("line49", linf_line([0.0, *np.exp(np.linspace(-0.5, math.log(r4_05) + 0.5, 48))]),
         [(2.0, 0.05), (1.0, 0.05)]),
        ("window_end", load_space(WINDOW_END_DOC), [(2.0, 0.1)]),
        ("radial_pair", linf_line([0.0, 2566.0, 2567.0], ("o", "x", "y")), [(1.0, 0.1), (2.0, 0.1), (3.0, 0.1)]),
        ("jittered_line11", first_false_failure(jittered, 2.0, 0.05), [(2.0, 0.05)]),
        ("ulp_close", first_false_failure(ulp_pair, 2.0, 0.1), [(2.0, 0.1)]),
    ]


def main() -> int:
    corpus = []
    print(f"{'space':16} {'p':>4} {'eps':>5} {'float scan':>12} {'bound':>10} {'verdict':>7}  oracle")
    for name, space, cells in hard_spaces():
        rows = []
        for p, eps in cells:
            rep = float_scan(space, p, eps)
            oracle = pasted_distortion(space, p, eps)
            rows.append({"p": p, "epsilon": eps, "oracle": mpmath.nstr(oracle, DIGITS)})
            verdict = "pass" if rep.passed else "FAIL"
            print(f"{name:16} {p:4g} {eps:5g} {rep.distortion:12.6g} {rep.analytic_bound:10.6g} {verdict:>7}  "
                  f"{float(oracle):.8g}")
        corpus.append({"name": name, "space": space_to_doc(space), "cells": rows})
    # one entry a line
    OUT.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in corpus) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
