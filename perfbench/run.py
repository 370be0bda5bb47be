"""Benchmark of spiralpaste verdicts through the real CLI.

    python3 perfbench/run.py --workload embed-tree --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The workload's input document is
generated from ``--seed`` and written to disk first; then one client runs
the workload's ops in a closed loop, each op a fresh
``python3 -m spiralpaste.cli`` process, in whole rounds that fit in
``--seconds`` (at least one round).  Every op goes through the correctness gate
(``gate.py``).  Nothing generated or checked is timed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured:
  verdict_s    median wall seconds from spawning an op until it exits
  pairs_per_s  point pairs of passing distortion reports per op second
  peak_rss_mb  largest peak RSS of any op process (from wait4)
  setup_s      median wall time of a fresh process that imports the CLI
               and loads the input with load_space

With ``--trace 1`` every op runs twice in a row, untraced and then through
``traced_cli.py``; the traced run gives the per-layer metrics and the
self-time breakdown, and the pair gives the tracing overhead.

Human-readable lines go to stdout and stderr; the last stdout line is the
JSON result.  The CLI's thread pool keeps its default size
(SPIRALPASTE_THREADS is removed from the ops' environment).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import gate
from inputs import WORKLOADS, Op, point_count, write_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
# An op still running after this long is killed and counts as failed.
OP_TIMEOUT_S = 120.0


def declared_metrics() -> dict[str, dict[str, str]]:
    """Units of the metrics BENCHMARK.json declares, by run mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class Child:
    """Spawn a process with the benchmark's environment and reap it with wait4."""

    def __init__(self, log_dir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SPIRALPASTE_THREADS", None)
        self.log_dir = log_dir

    def run(self, args: list[str]) -> tuple[float, int, float]:
        """Returns (wall seconds, exit code, peak RSS in MB); stderr goes to a log."""
        with open(self.log_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def stderr_tail(self) -> str:
        text = (self.log_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])


def load_reference(workload: str, seed: int, child: Child, work: Path) -> dict:
    ref = gate.stored_reference(workload, seed)
    if ref is not None:
        return ref
    out = work / "reference.json"
    _, code, _ = child.run([str(HERE / "gate.py"), "--workload", workload, "--seeds", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"reference computation failed: {child.stderr_tail()}")
    return json.loads(out.read_text(encoding="utf-8"))[str(seed)]


class Loop:
    """One client running whole rounds of ops, gating every result."""

    def __init__(self, workload: str, input_path: Path, reference: dict, child: Child, work: Path):
        self.workload = workload
        self.ops: tuple[Op, ...] = WORKLOADS[workload][1]
        self.input_path = input_path
        self.reference = reference
        self.child = child
        self.work = work
        self.attempted = 0
        self.failed = 0

    def op(self, op: Op, prefix: list[str]) -> tuple[float, float, bool]:
        """Run one op; returns (wall, peak RSS MB, passed)."""
        out = self.work / "out.txt"
        out.unlink(missing_ok=True)
        wall, code, rss = self.child.run([*prefix, *op.argv(self.input_path, out)])
        text = out.read_text(encoding="utf-8") if out.exists() else None
        problems = gate.check_output(op, code, text, self.reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = self.child.stderr_tail()
            print(f"FAILED op {op.key}: {'; '.join(problems[:5])} [stderr: {tail}]", file=sys.stderr)
        return wall, rss, not problems

    def rounds(self, seconds: float):
        """Yield the ops of whole rounds: at least one, and more while they fit in ``seconds``.

        Whole rounds keep every op of the workload equally represented in
        the medians; a round that would end past ``seconds`` (judged by the
        mean round so far) is not started.
        """
        start = time.perf_counter()
        done = 0
        while True:
            yield from self.ops
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                return


def setup_times(child: Child, input_path: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = child.run([str(HERE / "setup_probe.py"), str(input_path)])
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr_tail()}")
        times.append(wall)
    return times


def measure_end_to_end(loop: Loop, seconds: float) -> dict:
    setup = setup_times(loop.child, loop.input_path)
    walls, rss, pairs = [], [], 0
    n = point_count(loop.workload)
    for op in loop.rounds(seconds):
        wall, peak, ok = loop.op(op, ["-m", "spiralpaste.cli"])
        walls.append(wall)
        rss.append(peak)
        if ok:
            pairs += op.reports * n * (n - 1) // 2
        print(f"op {op.key}: {wall:.3f} s, {peak:.0f} MB", file=sys.stderr)
    print(f"verdict samples: {len(walls)} (no tail percentile: fewer than 10 beyond it)")
    print(f"setup samples: {len(setup)}")
    return {
        "verdict_s": statistics.median(walls),
        "pairs_per_s": pairs / sum(walls),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
    }


def _self_times(spans: list[dict]) -> dict[int, float]:
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}


def layer_metrics(ops: list[list[dict]], overhead: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (means per verdict) and the self-time breakdown by span name."""
    verdicts = len(ops)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    peak: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for spans in ops:
        self_t = _self_times(spans)
        for s in spans:
            name = s["name"]
            total[name] += s["end"] - s["start"]
            self_total[name] += self_t[s["id"]]
            calls[name] += 1
            peak[name] = max(peak[name], s["peak_mb"] or 0.0)
            for key, value in s["counts"].items():
                counts[f"{name}.{key}"] += value
    metrics = {
        "cli.import_s": total["cli.import"] / verdicts,
        "cli.main_s": total["cli.main"] / verdicts,
        "cli.self_s": self_total["cli.main"] / verdicts,
        "metric.load_s": total["metric.load"] / verdicts,
        "metric.load_peak_mb": peak["metric.load"],
        "metric.distortion_s": total["metric.distortion"] / verdicts,
        "metric.distortion_calls": calls["metric.distortion"] / verdicts,
        "metric.pairs": counts["metric.distortion.pairs"] / verdicts,
        "metric.distortion_peak_mb": peak["metric.distortion"],
        "frechet.embed_s": total["frechet.embed"] / verdicts,
        "frechet.calls": calls["frechet.embed"] / verdicts,
        "frechet.anchor_dims": counts["frechet.embed.anchor_dims"] / verdicts,
        "spiral.paste_s": self_total["spiral.paste"] / verdicts,
        "spiral.paste_peak_mb": peak["spiral.paste"],
        "spiral.bound_s": total["spiral.bound"] / verdicts,
        "spiral.bound_calls": calls["spiral.bound"] / verdicts,
        "spiral.bands": counts["spiral.paste.bands"] / verdicts,
        "spiral.support_share": counts["spiral.paste.support_rows"] / counts["spiral.paste.block_rows"],
        "trace.overhead_s": statistics.median(overhead),
    }
    breakdown = {name: (self_total[name] / verdicts, calls[name] / verdicts, peak[name]) for name in total}
    return metrics, breakdown


def measure_layers(loop: Loop, seconds: float, workload: str, seed: int) -> dict:
    traced_ops, overhead, traced_walls = [], [], []
    spans_path = loop.work / "spans.json"
    for op_id, op in enumerate(loop.rounds(seconds)):
        plain, _, _ = loop.op(op, ["-m", "spiralpaste.cli"])
        spans_path.unlink(missing_ok=True)
        traced, _, _ = loop.op(op, [str(HERE / "traced_cli.py"), str(spans_path), str(op_id)])
        if spans_path.exists():  # absent only when the traced op was killed
            traced_ops.append(json.loads(spans_path.read_text(encoding="utf-8")))
            traced_walls.append(traced)
            overhead.append(traced - plain)
        print(f"op {op.key}: {plain:.3f} s untraced, {traced:.3f} s traced", file=sys.stderr)
    metrics, breakdown = layer_metrics(traced_ops, overhead)

    wall = statistics.mean(traced_walls)
    print(f"self-time breakdown, {workload}, per verdict over {len(traced_ops)} traced ops:")
    for name, (self_s, calls, peak) in sorted(breakdown.items(), key=lambda kv: -kv[1][0]):
        memory = f"  peak {peak:.1f} MB" if peak else ""
        print(f"  {name:<20} {self_s:9.4f} s  {100 * self_s / wall:5.1f}%  calls {calls:g}{memory}")
    spanned = sum(b[0] for b in breakdown.values())
    print(f"  {'(start-up, outside spans)':<20} {wall - spanned:9.4f} s  {100 * (wall - spanned) / wall:5.1f}%")
    print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per verdict (traced minus untraced wall, median of pairs)")

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps([s for ops in traced_ops for s in ops]), encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    if not (SRC / "spiralpaste" / "cli.py").is_file():
        print(f"error: no spiralpaste sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        child = Child(work)
        input_path = write_input(args.workload, args.seed, work)
        reference = load_reference(args.workload, args.seed, child, work)
        loop = Loop(args.workload, input_path, reference, child, work)
        print(
            f"machine: nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}; "
            f"CLI thread pool {os.cpu_count()} workers (SPIRALPASTE_THREADS unset); one client, closed loop"
        )
        if args.trace:
            values = measure_layers(loop, args.seconds, args.workload, args.seed)
        else:
            values = measure_end_to_end(loop, args.seconds)
    finally:
        shutil.rmtree(work)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops failed/attempted: {loop.failed}/{loop.attempted}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
