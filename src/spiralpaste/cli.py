"""Command-line front door: flags, dispatch, reports (metric.py reads the documents).

Reports are deterministic given (input, flags, seed): keys are sorted,
floats are emitted verbatim (infinities as the string "inf", which is how
schedule radii past double range appear), and nothing time- or
host-dependent is written.  Exit codes: 0 all checks pass, 1 a contract
was violated, 2 bad input or schema.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter

import numpy as np

from .counterexample import (
    CounterexampleConfig,
    ball_point_count,
    in_carrier,
    ray_point,
    separation_witness,
    verify_metric_ray,
    verify_separation_epsilon,
)
from .errors import ModelInvalid, SchemaError, SpiralPasteError
from .fdd import embed_no_cotype, equivalence_ratio, pair_isometry_check
from .frechet import frechet_embed
from .metric import (
    PointedMetricSpace,
    distortion as measure_distortion,
    load_map,
    load_space,
    packing_bound,
    read_document,
)
from .spiral import analytic_bound, paste, seam_check, spiral_distortion
from .sumspace import SUP, BlockVector, SumSpaceSpec

SCHEMA_VERSION = "1"


# Report plumbing -------------------------------------------------------------


def _jsonify(x):
    """Make a report tree JSON-safe; infinities become strings, NaN is a bug."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            raise ValueError("NaN reached a report")
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _render_report(args: argparse.Namespace, payload: dict, ok: bool) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.subcommand,
        "config": vars(args),
        "pass": ok,
    }
    doc.update(payload)
    return json.dumps(_jsonify(doc), sort_keys=True, indent=2) + "\n"


# Subcommands ------------------------------------------------------------------


def _spiral_verdict(space: PointedMetricSpace, p: float, epsilon: float) -> tuple[dict, bool]:
    """Result (1) at one (p, eps): paste, bound, measure and check the map.

    The one judge of a spiral cell: ``embed`` reports this payload and each
    ``sweep`` row is read from it.  The layers are called through this
    module's names, where the benchmark's tracer wraps them.
    """
    emb = paste(space, p, epsilon)
    bound = analytic_bound(p, epsilon)
    rep = measure_distortion(space, emb.images, emb.spec, bound, candidates=emb.candidates)
    gap, seam_pairs = seam_check(emb)
    npe = emb.norm_preservation_error()
    sched = emb.layout.schedule
    checks = {
        "distortion_within_bound": rep.passed,
        "norm_preservation": npe <= 1e-9,
        "seams_exact": gap == 0.0,
    }
    payload = {
        "method": "spiral",
        "report": rep.to_doc(),
        "schedule": {
            "epsilon": sched.epsilon,
            "band_count": sched.band_count,
            "radii": [float(r) for r in sched.radii],
        },
        "block_dims": list(emb.spec.block_dims),
        "band_counts": Counter(emb.band_of.values()),
        "seam": {"max_gap": gap, "pairs_checked": seam_pairs},
        "norm_preservation_error": npe,
        "checks": checks,
    }
    return payload, all(checks.values())


def _cmd_embed(args: argparse.Namespace) -> tuple[dict, bool]:
    space = load_space(read_document(args.input))
    if args.method == "frechet":
        fm = frechet_embed(space)
        spec = SumSpaceSpec(SUP, (fm.dimension,))
        images = {pid: BlockVector(spec, {1: fm[pid]}) for pid in space.ids}
        rep = measure_distortion(space, images, spec)
        # Exact on integer metrics; float inputs round at ulp(diameter),
        # amplified by the smallest pair distance.
        D = space.matrix
        off = D[np.triu_indices(len(space), 1)]
        allowance = 64.0 * np.finfo(float).eps * float(off.max()) / max(float(off.min()), 1e-300)
        checks = {"isometry": rep.distortion <= 1.0 + max(allowance, 1e-12)}
        payload = {
            "method": "frechet",
            "dimension": fm.dimension,
            "report": rep.to_doc(),
            "checks": checks,
        }
        return payload, all(checks.values())

    if args.p is None or args.epsilon is None:
        raise SchemaError("the spiral method needs --p and --epsilon")
    return _spiral_verdict(space, args.p, args.epsilon)


def _cmd_distortion(args: argparse.Namespace) -> tuple[dict, bool]:
    space = load_space(read_document(args.input))
    spec, images = load_map(read_document(args.map))
    missing = [pid for pid in space.ids if pid not in images]
    if missing:
        raise SchemaError(f"map has no image for {missing[0]!r}")
    if args.bound is not None and math.isnan(args.bound):
        raise SchemaError("--bound must be a number, got nan")
    rep = measure_distortion(space, images, spec, analytic_bound=args.bound)
    checks = {
        "injective": math.isfinite(rep.distortion),
        "within_bound": rep.passed,
    }
    payload = {"report": rep.to_doc(), "checks": checks}
    return payload, all(checks.values())


def _cmd_counterexample(args: argparse.Namespace) -> tuple[dict, bool]:
    try:
        c = CounterexampleConfig(N=args.levels, ray_count=args.rays)
    except ValueError as exc:
        # only the last check, after the level widths', reads ray_count
        raise SchemaError(f"{'--rays' if str(exc).startswith('ray_count') else '--N'}: {exc}") from exc

    rays = []
    additive = carried = True
    for j in range(1, c.ray_count + 1):
        pts = [ray_point(c, j, t) for t in range(c.depth + 1)]
        additive &= verify_metric_ray(pts)
        carried &= all(in_carrier(c, pt) for pt in pts)
        rays.append({"ray": j, "points": pts})

    separations, packing = [], []
    for t in range(2, c.depth + 1):
        w = separation_witness(c, t)
        separations.append(
            {
                "level": w.level,
                "rays": list(w.rays),
                "count": len(w.points),
                "min_distance": w.min_distance,
                "bound": w.bound,
            }
        )
        # How the witness counts stack up against fixed-dimension packing limits,
        # at the separation 3^(t-2) that survives projecting onto finitely many
        # blocks with tails <= 1/9 (the equality verify_separation_epsilon checks).
        radius = (3**t - 1) / 2
        delta = float(3 ** (t - 2))
        row = {"level": t, "radius": radius, "delta": delta, "count": c.N[t - 2]}
        for m in (1, 2, 3):
            row[f"bound_dim_{m}"] = packing_bound(radius, delta, m, 4.0)
        packing.append(row)

    eps_exact = verify_separation_epsilon()
    checks = {
        "rays_additive": bool(additive),
        "rays_in_carrier": carried,
        "separations_at_bound": all(s["min_distance"] >= s["bound"] for s in separations),
        "epsilon_exact": eps_exact,
    }
    payload = {
        "levels": list(c.N),
        "depth": c.depth,
        "ray_count": c.ray_count,
        "rays": rays,
        "separations": separations,
        "packing": packing,
        "tail_epsilon": "1/9",
        "ball_points": ball_point_count(c, (3**c.depth - 1) // 2),
        "checks": checks,
    }
    return payload, all(checks.values())


def _cmd_fdd_demo(args: argparse.Namespace) -> tuple[dict, bool]:
    if args.samples < 1:
        raise SchemaError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise SchemaError(f"--seed must be non-negative, got {args.seed}")
    space = load_space(read_document(args.input))
    try:
        result = embed_no_cotype(space, args.epsilon, eps_list=args.eps_list)
    except ModelInvalid as exc:
        # --eps-list's length, range and product checks raise here: bad input, not a failed check
        raise SchemaError(f"--eps-list: {exc}") from exc
    model = result.model
    eq = equivalence_ratio(model, args.epsilon, seed=args.seed, n=args.samples)
    pair_dev = 0.0
    if model.num_blocks >= 2:
        pair_dev = pair_isometry_check(model, 1, 2, samples=args.samples, seed=args.seed)
    checks = {
        "pair_isometry": pair_dev <= 1e-12,
        "equivalence_within_bound": eq.max_ratio <= eq.bound + 1e-12,
        "renormed_within_bound": result.report_a.passed,
        "ambient_within_bound": result.report_ambient.passed,
    }
    payload = {
        "model": {"block_dims": list(model.block_dims), "eps_list": list(model.eps_list)},
        "equivalence": {
            "max_ratio": eq.max_ratio,
            "bound": eq.bound,
            "samples": eq.samples,
        },
        "pair_isometry_deviation": pair_dev,
        "report_renormed": result.report_a.to_doc(),
        "report_ambient": result.report_ambient.to_doc(),
        "checks": checks,
    }
    return payload, all(checks.values())


def _cmd_spiral(args: argparse.Namespace) -> tuple[dict, bool]:
    if not math.isfinite(args.epsilon):
        raise SchemaError(f"--epsilon must be finite, got {args.epsilon}")
    if not (math.isfinite(args.tmax) and args.tmax > 1.0):
        raise SchemaError(f"--tmax must be finite and exceed 1, got {args.tmax}")
    if args.samples < 2:
        raise SchemaError(f"--samples must be at least 2, got {args.samples}")
    # the curve turns through the angle epsilon * ln(t) up to t = t_max
    if math.isinf(args.epsilon * math.log(args.tmax)):
        raise SchemaError("--epsilon times ln(--tmax) overflows double range")
    try:
        rep = spiral_distortion(args.epsilon, t_max=args.tmax, samples=args.samples)
    except ValueError as exc:
        # the flags passed the checks above; what is left is how the curve was sampled
        raise SchemaError(f"--tmax {args.tmax!r} with --samples {args.samples}: {exc}") from exc
    checks = {"finite": math.isfinite(rep.distortion)}
    if args.epsilon == 0.0:
        checks["identity_exact"] = rep.distortion == 1.0
    payload = {
        "epsilon": args.epsilon,
        "t_max": args.tmax,
        "samples": args.samples,
        "report": rep.to_doc(),
        "checks": checks,
    }
    return payload, all(checks.values())


def _render_sweep(args: argparse.Namespace) -> tuple[str, bool]:
    if not args.p_grid or not args.eps_grid:
        raise SchemaError("sweep needs non-empty --p and --eps grids")
    space = load_space(read_document(args.input))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "epsilon", "distortion", "bound", "margin"])
    ok = True
    for p in args.p_grid:
        for eps in args.eps_grid:
            payload, passed = _spiral_verdict(space, p, eps)
            ok &= passed
            d, bound = payload["report"]["distortion"], payload["report"]["analytic_bound"]
            writer.writerow([repr(float(v)) for v in (p, eps, d, bound, bound - d)])
    return buf.getvalue(), bool(ok)


_HANDLERS = {
    "embed": _cmd_embed,
    "distortion": _cmd_distortion,
    "counterexample": _cmd_counterexample,
    "fdd-demo": _cmd_fdd_demo,
    "spiral": _cmd_spiral,
}


# Argument parsing -------------------------------------------------------------


def _comma_list(kind):
    """An argparse type reading a comma list of ``kind``; an empty string is ()."""

    def parse(text: str) -> tuple:
        if not text.strip():
            return ()
        try:
            return tuple(kind(tok) for tok in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not a comma list of {kind.__name__}s: {text!r}") from exc

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiralpaste",
        description="Bilipschitz embeddings of pointed metric spaces into "
        "sums of sup-norm blocks, with measured-vs-analytic distortion reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", required=True, help="metric-space JSON document")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", default=None, help="report path (default: stdout)")

    embed = sub.add_parser("embed", parents=[reads, writes], help="embed a space and report its distortion")
    embed.add_argument("--p", type=float, help="sum exponent (spiral method)")
    embed.add_argument("--epsilon", type=float, help="blend parameter (spiral method)")
    embed.add_argument("--method", choices=("spiral", "frechet"), default="spiral")

    dist = sub.add_parser("distortion", parents=[reads, writes], help="measure a user-supplied map")
    dist.add_argument("--map", required=True, help="map JSON document")
    dist.add_argument("--bound", type=float, default=None, help="bound the report must meet")

    cex = sub.add_parser("counterexample", parents=[writes], help="build the ray family and its witnesses")
    cex.add_argument("--rays", type=int, default=CounterexampleConfig.ray_count)
    cex.add_argument("--N", dest="levels", type=_comma_list(int), default=CounterexampleConfig.N,
                     help='level widths N_1..N_T, e.g. "2,3,4" for depth T = 3')

    fdd = sub.add_parser("fdd-demo", parents=[reads, writes], help="renormed block model round trip")
    fdd.add_argument("--epsilon", type=float, required=True)
    fdd.add_argument("--eps-list", type=_comma_list(float), default=None, help='per-block eps, e.g. "0,0.1"')
    fdd.add_argument("--samples", type=int, default=200)
    fdd.add_argument("--seed", type=int, default=0)

    spiral = sub.add_parser("spiral", parents=[writes], help="distortion of the reference plane spiral")
    spiral.add_argument("--epsilon", type=float, required=True)
    spiral.add_argument("--tmax", type=float, default=spiral_distortion.__kwdefaults__["t_max"])
    spiral.add_argument("--samples", type=int, default=spiral_distortion.__kwdefaults__["samples"])

    sweep = sub.add_parser("sweep", parents=[reads, writes], help="distortion-vs-bound CSV over a (p, eps) grid")
    sweep.add_argument("--p", dest="p_grid", type=_comma_list(float), default=(), help='e.g. "1,2,3"')
    sweep.add_argument("--eps", dest="eps_grid", type=_comma_list(float), default=(), help='e.g. "0.5,0.2,0.1"')

    return parser


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.subcommand == "sweep":
            text, passed = _render_sweep(args)
        else:
            payload, passed = _HANDLERS[args.subcommand](args)
            text = _render_report(args, payload, passed)
        _write(text, args.out)
    except (SchemaError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpiralPasteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.subcommand}: {'pass' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
