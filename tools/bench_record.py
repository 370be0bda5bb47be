"""Record the declared benchmark workloads into BENCH_<label>.json.

    python tools/bench_record.py --label baseline --rounds 5
    python tools/bench_record.py --label change --rounds 10 --base HEAD~1

For each workload that BENCHMARK.json declares, round r runs
``perfbench/run.py --workload W --seed r --seconds S --trace 0`` unedited.
With ``--base REV`` every run is paired with the same run in a detached git
worktree of REV under the gitignored ``.perfbench/``, and the side that runs
first swaps every round; the worktree is removed at the end.  Then, per side
and workload, one ``--trace 1`` run (seed 0) gives the per-layer means, and
each op of the workload runs once more in a fresh process through a small
``runpy`` wrapper that prints the op's own ``VmHWM``: run.py's
``peak_rss_mb`` is bounded below by the harness's own peak.

The JSON holds the machine, the commits and, per workload and metric, the
values with their median and quartiles.  With ``--base`` it adds, per
end-to-end metric, the change/parent ratio of every round, the wins, losses
and ties by the metric's ``better``, whether the change's median stays within
the metric's bound, and whether the claim rule holds: at least ten rounds,
the change wins at least nine tenths of them, and the medians differ, in its
favour, by more than the parent's interquartile range.  The exit code is 1 when any run
is not correct or any op exits non-zero.
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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs one CLI op in this process, then prints its exit code and peak RSS.
_WRAPPER = """
import json, runpy, sys
sys.argv[0] = "spiralpaste.cli"
try:
    runpy.run_module("spiralpaste.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status", encoding="ascii") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "vmhwm_mb": kb / 1024.0}))
"""

# Writes a workload's seed-0 input with the checkout's own generator and
# prints the argv of each of its ops.
_OPS = """
import json, sys
from pathlib import Path
sys.path[:0] = ["perfbench", "src"]
from inputs import WORKLOADS, write_input
workload, directory = sys.argv[1:]
path = write_input(workload, 0, Path(directory))
print(json.dumps({op.key: op.argv(path, Path(directory) / "out.txt") for op in WORKLOADS[workload][1]}))
"""


def summarize(values: list[float]) -> dict:
    """The values with their median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else 3 * values
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def _ratio(x: float, y: float) -> float | None:
    """x / y of two nonnegative values: 1.0 when both are 0, None when only y is (an infinite ratio)."""
    return x / y if y else (1.0 if x == 0 else None)


def compare(change: list[float], parent: list[float], better: str, bound: float) -> dict:
    """Paired rounds of one metric: ratios, the sign count, the bound and the claim rule.

    A parent value can be 0: a run in which every op fails the gate counts
    no pairs, so its ``pairs_per_s`` is 0.  Then a ratio is ``_ratio``'s,
    ``worse_by`` is 0.0 when the change's median is 0 too and None when it
    is not, and a None ``worse_by`` is within the bound when the change's
    median is the better one.
    """
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for c, p in zip(change, parent, strict=True)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    c, p = summarize(change), summarize(parent)
    cm, pm = c["median"], p["median"]
    worse_by = sign * (pm - cm) / pm if pm else (0.0 if cm == 0 else None)
    return {
        "ratios": [_ratio(x, y) for x, y in zip(change, parent, strict=True)],
        "wins": wins,
        "losses": losses,
        "ties": len(gains) - wins - losses,
        "worse_by": worse_by,
        "within_bound": sign * (cm - pm) > 0 if worse_by is None else worse_by <= bound,
        "claim_holds": len(gains) >= 10 and wins >= 0.9 * len(gains)
        and sign * (cm - pm) > p["q3"] - p["q1"],
    }


@dataclass
class Side:
    name: str
    root: Path
    commit: str
    correct: bool = True

    def run(self, argv: list[str], env: dict | None = None) -> str:
        """Run a Python command in this checkout; returns its stdout, raising with stderr's tail on failure."""
        proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            raise RuntimeError(f"{self.name}: {' '.join(argv[:2])} exited {proc.returncode}: {tail}")
        return proc.stdout

    def bench(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        out = self.run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)])
        result = json.loads(out.strip().splitlines()[-1])
        self.correct &= result["correct"] is True
        print(f"{self.name} {workload} seed {seed} trace {trace}: "
              f"{'correct' if result['correct'] else 'NOT CORRECT'}", file=sys.stderr)
        return {name: m["value"] for name, m in result["metrics"].items()}

    def op_peaks(self, workload: str) -> dict:
        """Each op of the workload once in a fresh process: its own VmHWM in MB."""
        work = self.root / ".perfbench" / f"record-{os.getpid()}"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.pop("SPIRALPASTE_THREADS", None)
        try:
            ops = json.loads(self.run(["-c", _OPS, workload, str(work)], env))
            peaks = {}
            for key, argv in ops.items():
                result = json.loads(self.run(["-c", _WRAPPER, *argv], env).strip().splitlines()[-1])
                self.correct &= result["exit"] == 0
                peaks[key] = result["vmhwm_mb"]
            return peaks
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def record(sides: list[Side], rounds: int, seconds: float, spec: dict) -> dict:
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs = {(s.name, w): [] for s in sides for w in workloads}
    for r in range(rounds):
        for w in workloads:
            for side in sides if r % 2 == 0 else sides[::-1]:
                runs[side.name, w].append(side.bench(w, r, seconds, 0))
    out = {}
    for w in workloads:
        series = {s.name: {m["name"]: [run[m["name"]] for run in runs[s.name, w]] for m in metrics} for s in sides}
        entry = out[w] = {}
        for side in sides:
            entry[side.name] = {
                "end_to_end": {m["name"]: dict(unit=m["unit"], **summarize(series[side.name][m["name"]]))
                               for m in metrics},
                "per_layer": side.bench(w, 0, seconds, 1),
                "op_vmhwm_mb": side.op_peaks(w),
            }
        if len(sides) == 2:
            entry["comparison"] = {
                m["name"]: compare(series["change"][m["name"]], series["parent"][m["name"]], m["better"], m["bound"])
                for m in metrics
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--rounds", type=int, default=10, help="rounds; round r runs seed r")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="run.py's --seconds")
    parser.add_argument("--base", help="a git revision to pair every run with")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<label>.json at the root)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    import numpy

    sides = [Side("change", ROOT, _git("describe", "--always", "--dirty", "--abbrev=40"))]
    worktree = ROOT / ".perfbench" / f"base-{os.getpid()}"
    try:
        if args.base:
            _git("worktree", "add", "--detach", str(worktree), args.base)
            sides.append(Side("parent", worktree, _git("rev-parse", f"{args.base}^{{commit}}")))
        workloads = record(sides, args.rounds, args.seconds, spec)
    finally:
        if worktree.exists():
            _git("worktree", "remove", "--force", str(worktree))
    doc = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__},
        "commits": {s.name: s.commit for s in sides},
        "rounds": args.rounds,
        "seconds": args.seconds,
        "correct": all(s.correct for s in sides),
        "workloads": workloads,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}; correct: {doc['correct']}")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
