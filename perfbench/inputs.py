"""Workload definitions and their seeded input documents.

Each workload is a fixed round of CLI operations ("ops") over one
metric-space document that is generated from the workload seed with
``spiralpaste.spaces`` and written to disk before any timing starts, so
the CLI only ever receives files.  The library is imported lazily: the
caller puts the checkout's ``src`` on the path first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TREE_POINTS = 600
LINE_POINTS = 64
# Log-scale jitter of the line ladder; consecutive rungs are a factor
# 1e9 ** (1 / 62) ~ e^0.33 apart, so +-0.05 keeps them ordered and distinct.
LINE_JITTER = 0.05

SWEEP_P = "1,1.25,1.5,2,2.5,3,4"
SWEEP_EPS = "0.5,0.3,0.2,0.1,0.05"


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload round.

    ``key`` names the op in reference tables; ``reports`` is the number of
    distortion reports it prints, each covering n(n-1)/2 point pairs.
    """

    key: str
    command: str
    flags: tuple[str, ...]
    reports: int

    def argv(self, input_path: Path, out_path: Path) -> list[str]:
        return [self.command, "--input", str(input_path), *self.flags, "--out", str(out_path)]


def _embed(p: str, eps: str) -> Op:
    return Op(f"embed p={p} eps={eps}", "embed", ("--p", p, "--epsilon", eps), 1)


def _fdd(eps: str) -> Op:
    return Op(f"fdd-demo eps={eps}", "fdd-demo", ("--epsilon", eps), 2)


SWEEP_CELLS = len(SWEEP_P.split(",")) * len(SWEEP_EPS.split(","))

# sweep-line is not declared in BENCHMARK.json: its verdicts are pure-Python
# analytic_bound work, whose speed on a shared 2-CPU host drifts by ~30%
# between runs a minute apart, wider than any end-to-end bound.  It stays
# runnable for traced and by-hand runs aimed at analytic_bound.
WORKLOADS: dict[str, tuple[str, tuple[Op, ...]]] = {
    "embed-tree": ("tree", (_embed("2", "0.2"), _embed("1", "0.5"), _embed("3", "0.1"))),
    "sweep-line": (
        "line",
        (Op("sweep", "sweep", ("--p", SWEEP_P, "--eps", SWEEP_EPS), SWEEP_CELLS),),
    ),
    "fdd-tree": ("tree", (_fdd("0.2"), _fdd("0.1"))),
}


def tree_doc(seed: int) -> dict:
    from spiralpaste.metric import space_to_doc
    from spiralpaste.spaces import tree_space

    return space_to_doc(tree_space(TREE_POINTS, seed=seed))


def line_doc(seed: int) -> dict:
    """The geometric line ladder with every rung moved by a seeded log-jitter."""
    from spiralpaste.metric import PointedMetricSpace, space_to_doc
    from spiralpaste.spaces import line_space

    base = line_space(LINE_POINTS)
    rng = np.random.default_rng(seed)
    coords = base.coords * np.exp(rng.uniform(-LINE_JITTER, LINE_JITTER, size=base.coords.shape))
    return space_to_doc(PointedMetricSpace(base.ids, base.basepoint, "linf", coords=coords))


def input_doc(workload: str, seed: int) -> dict:
    kind, _ = WORKLOADS[workload]
    return tree_doc(seed) if kind == "tree" else line_doc(seed)


def point_count(workload: str) -> int:
    return TREE_POINTS if WORKLOADS[workload][0] == "tree" else LINE_POINTS


def write_input(workload: str, seed: int, directory: Path) -> Path:
    """Write the workload's input document for ``seed``; returns its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{WORKLOADS[workload][0]}-{seed}.json"
    path.write_text(json.dumps(input_doc(workload, seed), sort_keys=True), encoding="utf-8")
    return path
