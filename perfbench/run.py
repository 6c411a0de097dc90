"""End-to-end benchmark of the Aergia reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload aergia-noniid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a separate traced pass.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when the correctness gate passes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from host import host_metadata, pin_process  # noqa: E402

pin_process()

import compute  # noqa: E402  (numpy loads lazily, after the thread pin)

WORKLOADS = tuple(compute.WORKLOADS) + ("serve-checkin",)

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> unit (``--trace 1``).
PER_LAYER = {
    "data.load_dataset.s": "s",
    "data.plan_partition.s": "s",
    "fl.runtime.build_experiment.s": "s",
    "nn.train_batch.s": "s",
    "nn.train_batch.calls": "count",
    "nn.batched.train_step.s": "s",
    "nn.batched.train_step.calls": "count",
    "nn.batched.train_step.lanes": "count",
    "nn.batched.lockstep_share": "ratio",
    "nn.evaluate.s": "s",
    "nn.evaluate.calls": "count",
    "fl.aggregate.s": "s",
    "fl.transport.send.s": "s",
    "fl.transport.sends": "count",
    "fl.transport.retransmits": "count",
    "fl.checkpoint.capture.s": "s",
    "fl.checkpoint.write.s": "s",
    "fl.checkpoint.writes": "count",
    "api.store.append.s": "s",
    "core.schedule_offloading.s": "s",
    "core.offloads": "count",
    "simulation.events.count": "count",
    "simulation.events.self_s": "s",
    "simulation.events.us_per_event": "us",
    "simulation.cluster.membership.s": "s",
    "simulation.cluster.membership.calls": "count",
    "simulation.virtual_pool.hydrate.s": "s",
    "simulation.virtual_pool.hydrate.calls": "count",
    "serve.checkin.s": "s",
    "serve.checkin.calls": "count",
    "serve.parse_jsonl.s": "s",
    "serve.session.checkin.s": "s",
    "serve.checkin.wait_ms": "ms",
    "loadgen.late_p95_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def measure(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path, smoke: bool = False
) -> Dict[str, object]:
    """Run one workload and return its outcome (problems, counts, metrics,
    info).  ``smoke`` shrinks the compute experiments, for the benchmark's
    own tests; serve already hosts smoke-scale runs."""
    if workload in compute.WORKLOADS:
        return compute.measure(workload, seed, seconds, trace, workdir, smoke)
    import serve

    return serve.measure(seed, seconds, trace, workdir)


def report(workload: str, seed: int, outcome: Dict[str, object], trace: bool) -> Dict[str, object]:
    """Print the human-readable lines and return the final JSON object."""
    units = PER_LAYER if trace else END_TO_END
    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    for name, value in outcome["info"].items():
        print(f"  info {name:35s} {value}")
    for problem in outcome["problems"]:
        print(f"  GATE FAILED: {problem}")
    print("host " + json.dumps(host_metadata(), sort_keys=True))
    return {
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the Aergia reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = report(args.workload, args.seed, outcome, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
