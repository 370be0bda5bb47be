"""Tests of the benchmark itself: inputs, correctness gate, printed metrics.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import gate
import run
from conftest import BENCH, ROOT
from inputs import WORKLOADS, write_input

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(argv: list[str]) -> int:
    return subprocess.run([sys.executable, "-m", "spiralpaste.cli", *argv], env=ENV, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


@pytest.mark.parametrize("workload", ["embed-tree", "sweep-line"])
def test_inputs_are_byte_identical_per_seed(tmp_path, workload):
    a = write_input(workload, 5, tmp_path / "a").read_bytes()
    b = write_input(workload, 5, tmp_path / "b").read_bytes()
    other = write_input(workload, 6, tmp_path / "c").read_bytes()
    assert a == b
    assert a != other


def _op(workload: str, key: str):
    return next(op for op in WORKLOADS[workload][1] if op.key == key)


def _run_op(tmp_path, workload: str, key: str) -> tuple[str, dict]:
    op = _op(workload, key)
    out = tmp_path / "out.txt"
    code = _cli(op.argv(write_input(workload, 0, tmp_path), out))
    assert code == 0
    reference = gate.stored_reference(workload, 0)
    assert reference is not None, "seed 0 must have a committed reference"
    return out.read_text(encoding="utf-8"), reference


def _problems(workload: str, key: str, text: str, reference: dict, code: int = 0) -> list[str]:
    return gate.check_output(_op(workload, key), code, text, reference)


def test_gate_on_embed_report(tmp_path):
    key = "embed p=3 eps=0.1"
    text, ref = _run_op(tmp_path, "embed-tree", key)
    assert _problems("embed-tree", key, text, ref) == []
    assert _problems("embed-tree", key, text, ref, code=1)
    assert _problems("embed-tree", key, "{not json", ref)
    assert _problems("embed-tree", key, None, ref)

    def doctored(edit) -> list[str]:
        doc = json.loads(text)
        edit(doc)
        return _problems("embed-tree", key, json.dumps(doc), ref)

    assert doctored(lambda d: d.update({"pass": False}))
    assert doctored(lambda d: d["checks"].update({"seams_exact": False}))
    assert doctored(lambda d: d["report"].update({"pass": False}))
    assert doctored(lambda d: d["report"].update({"distortion": d["report"]["distortion"] * (1 + 1e-9)}))
    assert doctored(lambda d: d["report"].update({"analytic_bound": "inf"}))
    assert doctored(lambda d: d["block_dims"].append(1))
    assert doctored(lambda d: d["band_counts"].update({"1": d["band_counts"]["1"] + 1}))
    # A last-digit change, as from a reordered sum, is within tolerance.
    assert not doctored(lambda d: d["report"].update({"distortion": d["report"]["distortion"] * (1 + 4e-16)}))


def test_gate_on_fdd_report(tmp_path):
    key = "fdd-demo eps=0.2"
    text, ref = _run_op(tmp_path, "fdd-tree", key)
    assert _problems("fdd-tree", key, text, ref) == []
    doc = json.loads(text)
    doc["report_ambient"]["distortion"] *= 1.001
    assert _problems("fdd-tree", key, json.dumps(doc), ref)
    doc = json.loads(text)
    doc["checks"]["pair_isometry"] = False
    assert _problems("fdd-tree", key, json.dumps(doc), ref)


def test_gate_on_sweep_csv(tmp_path):
    text, ref = _run_op(tmp_path, "sweep-line", "sweep")
    assert _problems("sweep-line", "sweep", text, ref) == []
    lines = text.splitlines()
    p, eps, dist, bound, margin = lines[5].split(",")
    bumped = repr(float(dist) * (1 + 1e-9))
    assert _problems("sweep-line", "sweep", "\n".join(lines[:5] + [",".join([p, eps, bumped, bound, margin])] + lines[6:]), ref)
    assert _problems("sweep-line", "sweep", "\n".join(lines[:-1]), ref)
    assert _problems("sweep-line", "sweep", "\n".join(lines[1:]), ref)


def test_self_times_subtract_direct_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert run._self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def _bench(args: list[str], cwd) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    proc = _bench(["--workload", "sweep-line", "--seed", "0", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {m.group(1): m.group(2) for m in (re.match(r"(\S+) = \S+ (\S+)$", ln) for ln in lines) if m}
    assert printed == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "sweep-line", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
