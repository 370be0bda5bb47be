"""Per-op correctness gate and the reference verdicts it compares against.

An op fails when the CLI exits non-zero, when its report or CSV does not
parse, when any ``checks`` entry or ``pass`` is false, or when a verdict
number (distortion, bound, scale, block dims, band counts, ...) differs
from the reference by more than a float64 tolerance.

Reference verdicts come from the library itself, called in process the
way the CLI calls it.  Tables for a range of seeds are committed under
``reference/`` so that a later change to the library is compared against
the numbers of the commit that wrote them:

    python3 perfbench/gate.py --workload embed-tree --seeds 0-15

writes or extends ``perfbench/reference/embed-tree.json``.  A seed that
has no table entry gets its reference computed before timing starts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

from inputs import SWEEP_EPS, SWEEP_P, WORKLOADS, Op, input_doc

# Relative tolerance for verdict floats: a few thousand ulps, so a change
# of summation order passes while any change of the construction does not.
REL_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SWEEP_HEADER = ["p", "epsilon", "distortion", "bound", "margin"]


def _num(x):
    """Float or the report's "inf" / "-inf" spelling of an infinity."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# Verdicts extracted from CLI output ------------------------------------------


def _report_verdict(rep: dict) -> dict:
    return {k: rep[k] for k in ("distortion", "analytic_bound", "scale_r")}


def _embed_verdict(doc: dict) -> dict:
    return {
        "report": _report_verdict(doc["report"]),
        "block_dims": doc["block_dims"],
        "band_counts": doc["band_counts"],
        "seam_pairs": doc["seam"]["pairs_checked"],
    }


def _fdd_verdict(doc: dict) -> dict:
    eq = doc["equivalence"]
    return {
        "block_dims": doc["model"]["block_dims"],
        "report_renormed": _report_verdict(doc["report_renormed"]),
        "report_ambient": _report_verdict(doc["report_ambient"]),
        "equivalence": {k: eq[k] for k in ("max_ratio", "bound", "samples")},
        "pair_isometry_deviation": doc["pair_isometry_deviation"],
    }


def _report_problems(doc: dict) -> list[str]:
    problems = []
    if doc.get("pass") is not True:
        problems.append("report pass is not true")
    checks = doc.get("checks")
    if not isinstance(checks, dict) or not checks:
        problems.append("report has no checks")
    else:
        problems += [f"check {name} is false" for name, ok in sorted(checks.items()) if ok is not True]
    for key in ("report", "report_renormed", "report_ambient"):
        if isinstance(doc.get(key), dict) and doc[key].get("pass") is not True:
            problems.append(f"{key} pass is not true")
    return problems


def _sweep_verdict(text: str) -> tuple[dict, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValueError(f"sweep header is {rows[:1]}")
    problems = []
    cells = []
    for row in rows[1:]:
        p, eps, dist, bound, margin = (float(v) for v in row)
        if not dist <= bound:
            problems.append(f"cell p={p} eps={eps}: distortion {dist!r} exceeds bound {bound!r}")
        if not (margin == bound - dist or (math.isinf(bound) and math.isinf(margin))):
            problems.append(f"cell p={p} eps={eps}: margin {margin!r} is not bound - distortion")
        cells.append([_num(p), _num(eps), _num(dist), _num(bound)])
    return {"cells": cells}, problems


def _compare(path: str, got, want, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
            return
        for k in sorted(want):
            _compare(f"{path}.{k}", got[k], want[k], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, problems)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{path}: {got!r} differs from reference {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} != reference {want!r}")


def check_output(op: Op, exit_code: int, text: str | None, reference: dict) -> list[str]:
    """Gate one op: returns the list of problems, empty when the op passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if text is None:
        return problems + ["no output file"]
    try:
        if op.command == "sweep":
            verdict, found = _sweep_verdict(text)
        else:
            doc = json.loads(text)
            found = _report_problems(doc)
            verdict = _embed_verdict(doc) if op.command == "embed" else _fdd_verdict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"output does not parse: {exc!r}"]
    problems += found
    _compare(op.key, verdict, reference[op.key], problems)
    return problems


# Reference verdicts from the library -------------------------------------------


def _library_report(rep) -> dict:
    return {
        "distortion": _num(rep.distortion),
        "analytic_bound": _num(rep.analytic_bound),
        "scale_r": _num(rep.scale_r),
    }


def compute_reference(workload: str, seed: int) -> dict:
    """Verdicts of every op of ``workload`` on the input of ``seed``."""
    from spiralpaste.fdd import embed_no_cotype, equivalence_ratio, pair_isometry_check
    from spiralpaste.metric import distortion, load_space
    from spiralpaste.spiral import analytic_bound, paste, seam_check

    # Round-trip through JSON text so the space is exactly what the CLI reads.
    space = load_space(json.loads(json.dumps(input_doc(workload, seed))))
    out = {}
    for op in WORKLOADS[workload][1]:
        flags = dict(zip(op.flags[::2], op.flags[1::2]))
        if op.command == "embed":
            p, eps = float(flags["--p"]), float(flags["--epsilon"])
            emb = paste(space, p, eps)
            rep = distortion(space, emb.images, emb.spec, analytic_bound=analytic_bound(p, eps))
            out[op.key] = {
                "report": _library_report(rep),
                "block_dims": list(emb.spec.block_dims),
                "band_counts": dict(Counter(str(b) for b in emb.band_of.values())),
                "seam_pairs": seam_check(emb)[1],
            }
        elif op.command == "fdd-demo":
            eps = float(flags["--epsilon"])
            res = embed_no_cotype(space, eps)
            eq = equivalence_ratio(res.model, eps, seed=0, n=200)
            out[op.key] = {
                "block_dims": list(res.model.block_dims),
                "report_renormed": _library_report(res.report_a),
                "report_ambient": _library_report(res.report_ambient),
                "equivalence": {"max_ratio": eq.max_ratio, "bound": eq.bound, "samples": eq.samples},
                "pair_isometry_deviation": pair_isometry_check(res.model, 1, 2, samples=200, seed=0),
            }
        else:
            cells = []
            for p in (float(v) for v in SWEEP_P.split(",")):
                for eps in (float(v) for v in SWEEP_EPS.split(",")):
                    emb = paste(space, p, eps)
                    bound = analytic_bound(p, eps)
                    rep = distortion(space, emb.images, emb.spec, analytic_bound=bound)
                    cells.append([p, eps, _num(rep.distortion), _num(bound)])
            out[op.key] = {"cells": cells}
    return out


def table_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def stored_reference(workload: str, seed: int) -> dict | None:
    path = table_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compute reference verdicts")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True, help='e.g. "0-15" or "7"')
    parser.add_argument("--out", default=None, help="write here instead of extending the table")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if args.out is not None:
        doc = {str(s): compute_reference(args.workload, s) for s in args.seeds}
        Path(args.out).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return 0
    path = table_path(args.workload)
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for seed in args.seeds:
        table[str(seed)] = compute_reference(args.workload, seed)
        path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"{args.workload} seed {seed}: done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
