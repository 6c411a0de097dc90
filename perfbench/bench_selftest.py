"""The benchmark's own tests (smoke-sized; under a minute on 2 cores).

Run from the repository root::

    python3 -m pytest perfbench/bench_selftest.py -q

They check that every workload emits exactly the metric names and units of
``BENCHMARK.json`` in both modes, that the command's last line is the
result object, and that the correctness gate fails on a tampered
``rounds.jsonl`` digest, an unfinished run and a rejected check-in.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the source tree on sys.path)
import compute  # noqa: E402
import serve  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_match_contract(workload, trace, tmp_path):
    outcome = run.measure(workload, 3, 1.0, trace, tmp_path, smoke=True)
    result = run.report(workload, 3, outcome, trace)
    assert result["correct"] is True, outcome["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aergia-noniid", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aergia-noniid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_gate_fails_on_tampered_digest(tmp_path):
    name = "aergia-noniid"
    rep = compute.run_once(compute.reference_config(name), tmp_path / "reference")
    rounds, digest = compute.REFERENCE_ROUNDS, compute.REFERENCE_DIGESTS[name]
    assert compute.gate([rep], rounds, digest) == []
    tampered = dict(rep, digest="0" * 64)
    assert compute.gate([tampered], rounds, digest) == [
        f"rounds.jsonl digest {'0' * 64} is not the reference {digest}"
    ]
    assert compute.gate([rep, tampered], rounds) == [
        "rounds.jsonl differs between repetitions of one seed"
    ]


def test_gate_fails_on_unfinished_run(tmp_path):
    config = compute.workload_config("aergia-noniid", 5, smoke=True)
    rep = compute.run_once(config, tmp_path / "rep0")
    assert compute.gate([rep], config.rounds + 1) == [
        f"repetition 0 finished {config.rounds} of {config.rounds + 1} rounds"
    ]


def test_gate_fails_on_rejected_checkin(tmp_path):
    outcome = serve.measure(seed=7, seconds=1.0, trace=False, workdir=tmp_path, bad_line=True)
    assert outcome["failed"] == 1
    assert any("99 of 100 lines accepted" in problem for problem in outcome["problems"])
