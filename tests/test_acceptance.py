"""Acceptance gate: eight checks, one verdict line each.

Each check emits "[acceptance] criterion N <name>: PASS/FAIL (...)" and
enforces its runtime cap.  Lines are printed as they happen (visible with
-s) and replayed in the terminal summary by a conftest hook, so the
verdicts reach the console even under default output capture.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import spiralpaste
from spiralpaste import (
    BlockVector,
    CounterexampleConfig,
    FddModel,
    SumSpaceSpec,
    analytic_bound,
    blend_theta,
    distortion,
    embed_no_cotype,
    equivalence_ratio,
    frechet_embed,
    in_carrier,
    linf_distance,
    pair_isometry_check,
    paste,
    ray_point,
    seam_check,
    separation_witness,
    spiral_distortion,
    verify_separation_epsilon,
)
from spiralpaste.sumspace import SUP
from .conftest import random_integer_space

P_MENU = (1.0, 1.5, 2.0, 3.0, 4.0)
EPS_MENU = (0.5, 0.2, 0.1)

VERDICTS: list[str] = []


def _emit(line: str) -> None:
    VERDICTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(num: int, name: str, cap_seconds: float):
    info: list = []
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        _emit(f"[acceptance] criterion {num} {name}: FAIL ({exc})")
        raise
    dt = time.perf_counter() - t0
    detail = "; ".join(str(d) for d in info)
    if dt >= cap_seconds:
        line = (f"[acceptance] criterion {num} {name}: FAIL "
                f"(runtime {dt:.2f}s over the {cap_seconds:.0f}s cap)")
        _emit(line)
        raise AssertionError(line)
    extra = f"; {detail}" if detail else ""
    _emit(f"[acceptance] criterion {num} {name}: PASS ({dt:.2f}s{extra})")


def test_criterion_1_partition_of_unity():
    with criterion(1, "partition-of-unity", 1.0) as info:
        thetas = np.linspace(0.0, math.pi / 2.0, 1000)
        worst = 0.0
        for p in P_MENU:
            for th in thetas:
                c, s = blend_theta(p, float(th))
                worst = max(worst, abs(c**p + s**p - 1.0))
        assert worst <= 1e-12, f"identity off by {worst:g}"
        info.append(f"max deviation {worst:.2e} over {len(P_MENU) * 1000} points")


def test_criterion_2_frechet_exactness():
    with criterion(2, "distance-vector exactness", 5.0) as info:
        rng = np.random.default_rng(20260821)
        for _ in range(100):
            sp = random_integer_space(rng, n_max=40)
            fm = frechet_embed(sp)
            for pid in sp.ids:
                assert float(np.max(np.abs(fm[pid]))) == sp.dist(pid, sp.basepoint)
            spec = SumSpaceSpec(SUP, (fm.dimension,))
            images = {pid: BlockVector(spec, {1: fm[pid]}) for pid in sp.ids}
            rep = distortion(sp, images, spec)
            assert rep.distortion == 1.0 and rep.scale_r == 1.0
        info.append("100 integer spaces, distortion exactly 1")


def test_criterion_3_pasted_map_bounds(test_spaces):
    with criterion(3, "pasted map within analytic bound", 60.0) as info:
        worst_margin = math.inf
        for name, sp in test_spaces.items():
            assert len(sp) <= 200
            rel = max(1.0, float(np.max(sp.rho())))
            measured = {}
            for p in P_MENU:
                for eps in EPS_MENU:
                    emb = paste(sp, p, eps)
                    spans = len(set(emb.band_of.values()))
                    if eps in (0.5, 0.2):
                        assert spans >= 3, f"{name} spans {spans} bands at eps={eps}"
                    else:
                        assert spans >= 1
                    assert emb.norm_preservation_error() <= 1e-9, (
                        f"{name} p={p} eps={eps}: norm preservation "
                        f"{emb.norm_preservation_error():g}")
                    bound = analytic_bound(p, eps)
                    rep = distortion(sp, emb.images, emb.spec, analytic_bound=bound)
                    assert rep.passed, (
                        f"{name} p={p} eps={eps}: {rep.distortion:g} > {bound:g}")
                    measured[(p, eps)] = rep.distortion
                    if math.isfinite(bound):
                        worst_margin = min(worst_margin, bound - rep.distortion)
            for p in P_MENU:
                d5, d2, d1 = (measured[(p, e)] for e in EPS_MENU)
                assert d5 > d2 > d1, f"{name} p={p}: not strictly decreasing in eps"
        info.append(f"45 runs per space family; smallest finite margin {worst_margin:.3f}")


def test_criterion_4_seam_consistency(test_spaces):
    with criterion(4, "seam consistency", 1.0) as info:
        total = 0
        for sp in test_spaces.values():
            for p in (1.0, 2.0, 3.0):
                emb = paste(sp, p, 0.2)
                gap, checked = seam_check(emb)
                assert gap == 0.0, f"seam gap {gap:g}"
                total += checked
        assert total >= 1
        info.append(f"{total} seam evaluations, all exact")


def test_criterion_5_reference_spiral():
    with criterion(5, "reference spiral distortion", 2.0) as info:
        eps_grid = (0.2, 0.1, 0.05, 0.025)
        vals = [spiral_distortion(e, t_max=1e4, samples=512).distortion for e in eps_grid]
        for a, b in zip(vals, vals[1:]):
            assert a > b, f"not decreasing: {vals}"
        assert vals[-1] < vals[0]
        assert spiral_distortion(0.0, t_max=1e4, samples=512).distortion == 1.0
        info.append("distortions " + ", ".join(f"{v:.5f}" for v in vals) + "; exact 1 at 0")


def test_criterion_6_counterexample_witnesses():
    with criterion(6, "ray family witnesses (exact arithmetic)", 2.0) as info:
        cfg = CounterexampleConfig()  # widths t+1, depth 6, 8 rays
        for j in range(1, cfg.ray_count + 1):
            pts = [ray_point(cfg, j, t) for t in range(0, cfg.depth + 1)]
            for t, pt in enumerate(pts):
                assert in_carrier(cfg, pt), f"ray {j} step {t} leaves the carrier"
            for s in range(len(pts)):
                for t in range(s + 1, len(pts)):
                    assert linf_distance(pts[s], pts[t]) == (3**t - 3**s) // 2
        for t in range(2, cfg.depth + 1):
            w = separation_witness(cfg, t)
            assert len(w.points) == cfg.N[t - 2]
            assert w.min_distance >= 3 ** (t - 1)
        assert verify_separation_epsilon()
        info.append("8 rays additive; separations t=2..6; eps=1/9 sharp to t=12")


def test_criterion_8_renormed_model(test_spaces):
    with criterion(8, "renormed block model", 30.0) as info:
        model = FddModel((2, 3, 4))
        for j in range(1, 4):
            for k in range(j + 1, 4):
                dev = pair_isometry_check(model, j, k, samples=1000, seed=17)
                assert dev <= 1e-12, f"pair ({j},{k}) deviates by {dev:g}"
        eq = equivalence_ratio(model, 0.2, seed=17, n=400)
        assert abs(eq.max_ratio - 2.0) <= 1e-9
        assert eq.max_ratio <= eq.bound
        weighted = FddModel((2, 3, 4), (0.02, 0.01, 0.015))
        eqw = equivalence_ratio(weighted, 0.2, seed=17, n=400)
        assert eqw.max_ratio <= eqw.bound
        for name, sp in test_spaces.items():
            for eps in EPS_MENU:
                res = embed_no_cotype(sp, eps)
                cap = 4.0 * (1.0 + eps) ** 2 / (1.0 - eps)
                assert res.report_ambient.distortion <= cap, (
                    f"{name} eps={eps}: ambient {res.report_ambient.distortion:g} > {cap:g}")
        info.append("pair isometry exact; equivalence max 2; ambient under 4(1+e)^2/(1-e)")


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "deterministic reports", 5.0) as info:
        from spiralpaste import line_space, space_to_doc

        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space_to_doc(line_space(n=24, r_max=1e6))))
        # the CLI runs on the package this test imported
        src = os.path.dirname(os.path.dirname(spiralpaste.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [
            ["embed", "--input", str(space_path), "--p", "2", "--epsilon", "0.2"],
            ["fdd-demo", "--input", str(space_path), "--epsilon", "0.2", "--seed", "3"],
            ["counterexample"],
        ]
        for argv in runs:
            outs = []
            for _ in range(2):
                r = subprocess.run([sys.executable, "-m", "spiralpaste.cli", *argv],
                                   capture_output=True, text=True, check=True, env=env)
                outs.append(r.stdout)
            assert outs[0] == outs[1], f"nondeterministic report for {argv[0]}"
            assert outs[0]
        info.append("embed, fdd-demo and counterexample reports byte-identical across reruns")
