"""The three compute workloads: whole training runs through the library.

Each repetition builds the experiment with ``repro.fl.runtime.build_experiment``
(default execution knobs: ``client_pool``/``batched_execution`` ``auto``,
``shards=1``), runs it to its final round, and persists the result through
``repro.api.RunStore`` so the run's own ``rounds.jsonl`` can be compared
byte for byte: against a recorded digest for the reference run, and between
the untraced and traced runs of one config.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from host import reset_peak_rss, vm_hwm_mb
from spans import Tracer, span_layers

#: workload -> (dataset, algorithm, partition, scale, scenario)
WORKLOADS = {
    "aergia-noniid": ("fmnist", "aergia", "noniid", "bench", "stable"),
    "city-lossy-churn": ("mnist", "fedavg", "noniid", "city", "lossy-churn"),
    "continent-churn": ("mnist", "fedavg", "iid", "continent", "churn"),
}

#: Budget per config: a run of ``--seconds S`` trains ``S / budget`` configs
#: (at least one).  Fixed numbers, not measured ones, so every commit does
#: the same work for the same ``--seconds``.
CONFIG_SECONDS = {"aergia-noniid": 4.0, "city-lossy-churn": 4.0, "continent-churn": 20.0}

#: Builds per untraced run; setup_s is their median.  Each timed config is
#: built once, and the first config is built again, without running it,
#: until the count is reached.  A build takes about 0.07 s on aergia, 0.45 s
#: on city and 8 s on continent.
BUILDS = {"aergia-noniid": 15, "city-lossy-churn": 7, "continent-churn": 3}

#: The reference run: each workload's experiment at a fixed seed, in
#: float32 and for two rounds, whose ``rounds.jsonl`` must hash to the
#: recorded digest.  It runs before the timed configs and so also warms
#: the process.  Continent's own scale takes seconds just to build, so its
#: reference runs the same experiment at city scale (batched engine,
#: virtual pool and churn all included).
REFERENCE_SEED = 0
REFERENCE_ROUNDS = 2
REFERENCE_SCALE = {"aergia-noniid": "bench", "city-lossy-churn": "city", "continent-churn": "city"}
#: Regenerate with ``python3 perfbench/compute.py`` after a change that is
#: meant to alter results.
REFERENCE_DIGESTS = {
    "aergia-noniid": "fb61be98ae768c3542d036200533606e8f773b57aea20251f6fd0c41e85029a0",
    "city-lossy-churn": "33ea995f7fdad7f528021506ee81f4c6d83496b5e3f228e045faeeda76ff9dde",
    "continent-churn": "e63c2892582c443f595c5d43403f67c82e0d3fdc14d52f1335e17b1420ecc94c",
}


def workload_config(name: str, seed: int, smoke: bool = False):
    """The workload's experiment config; ``smoke`` shrinks it to the smoke scale."""
    from repro.experiments.workloads import SCALES, evaluation_config

    dataset, algorithm, partition, scale, scenario = WORKLOADS[name]
    profile = SCALES["smoke" if smoke else scale]
    return evaluation_config(dataset, algorithm, partition, profile, seed=seed, scenario=scenario)


def reference_config(name: str):
    """The workload's reference experiment (see :data:`REFERENCE_DIGESTS`)."""
    from repro.experiments.workloads import SCALES, evaluation_config

    dataset, algorithm, partition, _, scenario = WORKLOADS[name]
    return evaluation_config(
        dataset,
        algorithm,
        partition,
        SCALES[REFERENCE_SCALE[name]],
        seed=REFERENCE_SEED,
        scenario=scenario,
        dtype="float32",
        rounds=REFERENCE_ROUNDS,
    )


def build_seconds(config) -> float:
    """Host seconds of one ``build_experiment``; the experiment is dropped.

    The heap is trimmed first, as before a timed run's build, so that every
    build that setup_s takes the median of starts from the same state.
    """
    import repro.fl.runtime as runtime

    reset_peak_rss()
    start = time.perf_counter()
    runtime.build_experiment(config)
    return time.perf_counter() - start


def run_once(config, store_dir: Path, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """One repetition: build, run, persist; timings, digest and counters."""
    import repro.fl.runtime as runtime
    from repro.api.store import ROUNDS_NAME, RunStore

    reset_peak_rss()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        handle = runtime.build_experiment(config)
        built = time.perf_counter()
        if tracer is not None:
            with tracer.span("run") as run_index:
                result = handle.run()
        else:
            result = handle.run()
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = vm_hwm_mb(os.getpid())
    stored = RunStore(store_dir).put(config, result)
    rep: Dict[str, object] = {
        "peak_rss_mb": peak_rss_mb,
        "build_s": built - start,
        "run_s": end - built,
        "rounds": result.num_rounds,
        "digest": hashlib.sha256((stored.path / ROUNDS_NAME).read_bytes()).hexdigest(),
        "events": handle.cluster.env.events_processed,
        "sim_time_s": result.total_time,
        "final_accuracy": result.final_accuracy,
        "offloads": result.total_offloads(),
        "retransmits": handle.cluster.transport.counters().get("retransmits", 0.0),
    }
    if tracer is not None:
        rep["layers"] = _layers(tracer, run_index, rep)
    return rep


def _layers(tracer: Tracer, run_index: int, rep: Dict[str, object]) -> Dict[str, float]:
    layers = span_layers(tracer.totals())
    events = int(rep["events"])
    self_s = tracer.self_seconds(run_index)
    layers.update(
        {
            "core.offloads": float(rep["offloads"]),
            "fl.transport.retransmits": float(rep["retransmits"]),
            "simulation.events.count": float(events),
            "simulation.events.self_s": self_s,
            "simulation.events.us_per_event": self_s / events * 1e6 if events else 0.0,
            "trace.run_s": tracer.duration(run_index),
            # Serve-only layers and generator health: not part of this workload.
            "serve.checkin.wait_ms": 0.0,
            "loadgen.late_p95_ms": 0.0,
            "loadgen.late_max_ms": 0.0,
        }
    )
    return layers


def gate(
    reps: List[Dict[str, object]], expected_rounds: int, expected_digest: Optional[str] = None
) -> List[str]:
    """Correctness problems: unfinished runs, ``rounds.jsonl`` that differ
    between repetitions, or one that differs from the expected digest."""
    problems = [
        f"repetition {index} finished {rep['rounds']} of {expected_rounds} rounds"
        for index, rep in enumerate(reps)
        if rep["rounds"] != expected_rounds
    ]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append("rounds.jsonl differs between repetitions of one seed")
    elif expected_digest is not None and digests != {expected_digest}:
        problems.append(
            f"rounds.jsonl digest {digests.pop()} is not the reference {expected_digest}"
        )
    return problems


def measure(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, smoke: bool = False
) -> Dict[str, object]:
    """Check the reference run, then train a fixed set of configs derived
    from ``seed`` and summarise them.

    One config's cost depends on its seed (churn, drops, offloads), so a run
    trains ``seconds / CONFIG_SECONDS`` configs and reports medians over
    them; peak RSS, which does not jitter with the host but varies with the
    seed, is their mean.  Traced, half as many configs each run untraced
    and then traced: the pair gives the tracing overhead and must match
    byte for byte.
    """
    count = max(1, round(seconds / CONFIG_SECONDS[name]))
    if trace:
        count = max(1, count // 2)
    configs = [workload_config(name, seed * 1000 + index, smoke) for index in range(count)]
    reference = run_once(reference_config(name), workdir / "reference")
    problems = [
        f"reference run: {problem}"
        for problem in gate([reference], REFERENCE_ROUNDS, REFERENCE_DIGESTS[name])
    ]
    extra_builds = [] if trace else [build_seconds(configs[0]) for _ in range(BUILDS[name] - count)]
    plain = [run_once(config, workdir / f"plain{index}") for index, config in enumerate(configs)]
    traced = [
        run_once(config, workdir / f"traced{index}", Tracer())
        for index, config in enumerate(configs)
        if trace
    ]
    groups = [[rep] for rep in plain]
    for group, rep in zip(groups, traced):
        group.append(rep)
    rounds = configs[0].rounds
    problems += [problem for group in groups for problem in gate(group, rounds)]
    info = {
        "configs": count,
        "seeds": [config.seed for config in configs],
        "sim_time_s": [round(rep["sim_time_s"], 6) for rep in plain],
        "final_accuracy": [round(rep["final_accuracy"], 4) for rep in plain],
        "events": [rep["events"] for rep in plain],
        "offloads": [rep["offloads"] for rep in plain],
        "run_s_each": [round(rep["run_s"], 4) for rep in plain],
        "reference_digest": reference["digest"],
    }
    if trace:
        metrics = {
            key: statistics.mean(rep["layers"][key] for rep in traced)
            for key in traced[0]["layers"]
        }
        untraced_run_s = statistics.mean(rep["run_s"] for rep in plain)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_run_s
    else:
        info["build_s_each"] = [round(s, 4) for s in extra_builds] + [
            round(rep["build_s"], 4) for rep in plain
        ]
        metrics = {
            "setup_s": statistics.median(extra_builds + [rep["build_s"] for rep in plain]),
            "run_s": statistics.median(rep["run_s"] for rep in plain),
            "peak_rss_mb": statistics.mean(rep["peak_rss_mb"] for rep in plain),
        }
    reps = [reference] + plain + traced
    expected = [REFERENCE_ROUNDS] + [rounds] * (len(plain) + len(traced))
    return {
        "problems": problems,
        "attempted": sum(expected),
        "failed": sum(max(0, want - int(rep["rounds"])) for rep, want in zip(reps, expected)),
        "metrics": metrics,
        "info": info,
    }


def reference_digests() -> Dict[str, str]:
    """The reference runs' ``rounds.jsonl`` digests on this tree."""
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        return {
            name: run_once(reference_config(name), Path(scratch) / name)["digest"]
            for name in WORKLOADS
        }


if __name__ == "__main__":
    import json
    import sys

    from host import pin_process

    pin_process()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(reference_digests(), indent=4))
