"""Parallel sweep execution and on-disk result caching.

Every figure of the paper is regenerated from a batch of *independent*
:class:`repro.fl.config.ExperimentConfig` runs, which makes the sweeps
embarrassingly parallel: the simulation is driven entirely by virtual time
and every random stream is derived from ``config.seed``, so executing the
cells in worker processes produces byte-identical
:meth:`repro.fl.metrics.ExperimentResult.summary` rows to the serial path.

This module provides the three pieces the sweep infrastructure is built on:

``config_hash``
    A stable content hash of an :class:`ExperimentConfig` (canonical JSON of
    the dataclass fields), usable as a cache key across processes and runs.

``ResultCache``
    An on-disk cache mapping ``config_hash`` to a serialized
    :class:`ExperimentResult`, so re-running a figure skips cells that were
    already computed at the same configuration.

``run_configs_parallel`` / ``run_suite``
    A process-pool drop-in for :func:`repro.experiments.runner.run_configs`,
    and the policy-driven dispatcher the figure functions route through
    (configured by the CLI via :func:`configure`, or the ``REPRO_WORKERS``
    and ``REPRO_CACHE_DIR`` environment variables).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.runner import SuiteResult, run_configs
from repro.fl.config import ExperimentConfig, TransportConfig
from repro.fl.metrics import ExperimentResult, RoundRecord
from repro.fl.runtime import run_experiment

#: Bumped whenever the serialized result layout (or the semantics of a
#: config field) changes, so stale cache entries are never reused.
#: 2: ExperimentConfig grew DynamicsConfig + async-federation knobs and the
#:    round engine became dropout-tolerant.
#: (The client-materialization knobs — client_pool/pool_slots — are
#: excluded from hashing entirely, see MATERIALIZATION_FIELDS, so their
#: introduction required no format bump.)
CACHE_FORMAT = 2

#: Config fields describing *how* clients are materialized, not *what*
#: experiment runs.  Virtual and eager materialization produce bit-for-bit
#: identical results (pinned by tests/test_virtual_pool.py), so these
#: fields are not part of a configuration's identity: excluding them keeps
#: cache/store keys stable across the knobs and across their introduction
#: (pre-existing archives keep their keys).
MATERIALIZATION_FIELDS = ("client_pool", "pool_slots")

#: All config fields describing execution strategy rather than the
#: experiment itself.  ``checkpoint_interval`` joins the materialization
#: knobs: checkpointed and straight-through runs are bitwise identical
#: (pinned by tests/test_resume.py), so they must share cache and store
#: entries.  ``batched_execution`` likewise: the batched engine reproduces
#: the per-client path bitwise (pinned by tests/test_batched_engine.py).
#: Store keys are pinned by literals in tests/test_run_store.py.
EXECUTION_FIELDS = MATERIALIZATION_FIELDS + ("checkpoint_interval", "batched_execution")


# ---------------------------------------------------------------------------
# Stable configuration hashing
# ---------------------------------------------------------------------------
def _canonical(value: object) -> object:
    """Normalise a config field value into a JSON-stable representation."""
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    return value


def canonical_config(config: ExperimentConfig) -> Dict[str, object]:
    """Canonical JSON-stable dict of a config's *result-relevant* fields.

    Drops :data:`EXECUTION_FIELDS` — execution-strategy knobs that cannot
    change results — so cache and store keys are shared across
    materialization modes and across checkpointed/straight-through runs.
    """
    canonical = _canonical(dataclasses.asdict(config))
    for field_name in EXECUTION_FIELDS:
        canonical.pop(field_name, None)
    # A null transport is bitwise identical to the historical network
    # (pinned by tests/test_golden_baselines.py), so it is dropped from the
    # canonical form: archives written before the field existed keep their
    # keys.  A non-null transport changes results and therefore the key.
    if canonical.get("transport") == _canonical(
        dataclasses.asdict(TransportConfig())
    ):
        canonical.pop("transport", None)
    return canonical


def config_hash(config: ExperimentConfig) -> str:
    """A stable hex digest identifying an experiment configuration.

    The hash covers every result-relevant dataclass field (including the
    nested :class:`~repro.fl.config.ResourceConfig`) plus the cache format
    version, so two configs hash equal iff they describe the same
    experiment under the current result layout.
    """
    import repro

    # The package version is part of the key so a cache directory cannot
    # serve results computed by a different release of the simulation code.
    # Within a release, editing simulation internals still requires clearing
    # the cache (or bumping CACHE_FORMAT).
    canonical = canonical_config(config)
    # A config with dtype=None resolves to the process-wide compute dtype at
    # build time, so the *effective* dtype must be part of the key — otherwise
    # a REPRO_DTYPE=float64 run would be served float32 results cached earlier
    # (accuracy values differ across dtypes even though simulated times don't).
    from repro.nn.dtype import resolve_dtype

    canonical["dtype"] = resolve_dtype(config.dtype).name
    payload = {
        "format": CACHE_FORMAT,
        "version": repro.__version__,
        "config": canonical,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Result (de)serialization — everything in ExperimentResult is JSON-native
# ---------------------------------------------------------------------------
def _result_to_payload(result: ExperimentResult) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "algorithm": result.algorithm,
        "dataset": result.dataset,
        "config": result.config,
        "setup_time": result.setup_time,
        "rounds": [dataclasses.asdict(record) for record in result.rounds],
    }
    if result.network:
        payload["network"] = dict(result.network)
    return payload


def _result_from_payload(payload: Mapping[str, object]) -> ExperimentResult:
    return ExperimentResult(
        algorithm=str(payload["algorithm"]),
        dataset=str(payload["dataset"]),
        config=dict(payload["config"]),  # type: ignore[arg-type]
        setup_time=float(payload["setup_time"]),  # type: ignore[arg-type]
        rounds=[RoundRecord(**record) for record in payload["rounds"]],  # type: ignore[union-attr]
        network=dict(payload.get("network", {})),  # type: ignore[arg-type]
    )


class ResultCache:
    """On-disk experiment-result cache keyed by :func:`config_hash`.

    Entries are single JSON files written atomically (temp file + rename),
    so concurrent sweeps sharing a cache directory never observe partial
    writes.  Corrupt or format-incompatible entries are treated as misses.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, config: ExperimentConfig) -> Optional[Tuple[ExperimentResult, float]]:
        """The cached ``(result, original_wall_seconds)``, or ``None`` on a miss."""
        path = self._path(config_hash(config))
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
            return None
        try:
            result = _result_from_payload(payload["result"])
            wall = float(payload.get("wall_seconds", 0.0))
        except (KeyError, TypeError, ValueError):
            return None
        return result, wall

    def put(self, config: ExperimentConfig, result: ExperimentResult, wall_seconds: float) -> None:
        key = config_hash(config)
        payload = {
            "format": CACHE_FORMAT,
            "config_hash": key,
            "config": _canonical(dataclasses.asdict(config)),
            "wall_seconds": float(wall_seconds),
            "result": _result_to_payload(result),
        }
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))


# ---------------------------------------------------------------------------
# Process-pool sweep runner
# ---------------------------------------------------------------------------
def _execute_labelled(item: Tuple[str, ExperimentConfig]) -> Tuple[str, ExperimentResult, float]:
    """Worker entry point: run one experiment, timing its wall clock.

    Must stay a module-level function so it pickles for the process pool.
    """
    label, config = item
    start = time.perf_counter()
    result = run_experiment(config)
    return label, result, time.perf_counter() - start


def _worker_init(package_parent: str) -> None:
    """Make ``repro`` importable in pool workers under the spawn start method.

    Under fork the child inherits the parent's ``sys.path``, but spawned
    workers (the default on macOS/Windows) start fresh — if the package is
    only importable through an in-process ``sys.path`` tweak (as the test
    and benchmark conftests do), unpickling the task would fail with
    ``ModuleNotFoundError`` without this.  Plugin modules are re-imported
    for the same reason: a spawned worker's registries start empty, so a
    ``REPRO_PLUGINS``-registered algorithm must be registered again before
    the worker's ``federator_class`` lookup.
    """
    import sys

    if package_parent not in sys.path:
        sys.path.insert(0, package_parent)
    from repro.registry import load_plugins

    load_plugins()


def default_workers() -> int:
    """The worker count used when none is requested: one per CPU."""
    return max(1, os.cpu_count() or 1)


def _workers_from_env() -> Optional[int]:
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None


def resolve_workers(requested: Optional[int] = None) -> int:
    """Worker-count precedence: explicit request > ``REPRO_WORKERS`` > one per CPU."""
    if requested is None:
        requested = _workers_from_env()
    if requested is None:
        requested = default_workers()
    return max(1, int(requested))


def run_configs_parallel(
    configs: Mapping[str, ExperimentConfig],
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str, ExperimentResult], None]] = None,
) -> SuiteResult:
    """Run a sweep across a process pool, with optional result caching.

    Drop-in replacement for :func:`repro.experiments.runner.run_configs`:
    the returned :class:`SuiteResult` keeps the input label order and its
    per-label summaries are identical to the serial path, because each
    experiment derives all randomness from its own config.

    Parameters
    ----------
    configs:
        Mapping from label to the experiment configuration to run.
    workers:
        Process count.  ``None`` means one per CPU; ``1`` degenerates to
        in-process execution (still honouring the cache).
    cache_dir:
        When given, results are cached on disk keyed by
        :func:`config_hash`; already-computed cells are loaded instead of
        re-executed and recorded in ``SuiteResult.cache_hits``.
    progress:
        Callback invoked with ``(label, result)`` as each cell finishes.
        Unlike the serial runner this fires in *completion* order.
    """
    # Pin the effective compute dtype into every config before hashing or
    # shipping it to a worker: a worker process resolves dtype=None from its
    # *own* environment (fresh module state under the spawn start method), so
    # an explicit set_compute_dtype() in the parent would otherwise hash one
    # dtype and execute another.
    from repro.nn.dtype import resolve_dtype

    configs = {
        label: config
        if config.dtype is not None
        else config.with_overrides(dtype=resolve_dtype(None).name)
        for label, config in configs.items()
    }
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    suite = SuiteResult()
    pending: List[Tuple[str, ExperimentConfig]] = []

    results: Dict[str, ExperimentResult] = {}
    walls: Dict[str, float] = {}

    for label, config in configs.items():
        cached = cache.get(config) if cache is not None else None
        if cached is not None:
            result, _ = cached
            results[label] = result
            # Hits count as zero compute for this run; the original wall
            # time lives in the cache entry (second element of `cached`).
            walls[label] = 0.0
            suite.cache_hits.append(label)
            if progress is not None:
                progress(label, result)
        else:
            pending.append((label, config))

    workers = default_workers() if workers is None else max(1, int(workers))
    config_by_label = dict(configs)
    if pending:
        if workers == 1 or len(pending) == 1:
            for item in pending:
                label, result, wall = _execute_labelled(item)
                results[label] = result
                walls[label] = wall
                if cache is not None:
                    cache.put(config_by_label[label], result, wall)
                if progress is not None:
                    progress(label, result)
        else:
            package_parent = str(Path(__file__).resolve().parents[2])
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                initializer=_worker_init,
                initargs=(package_parent,),
            ) as pool:
                futures = {pool.submit(_execute_labelled, item) for item in pending}
                while futures:
                    done, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        label, result, wall = future.result()
                        results[label] = result
                        walls[label] = wall
                        if cache is not None:
                            cache.put(config_by_label[label], result, wall)
                        if progress is not None:
                            progress(label, result)

    # Preserve the caller's label order regardless of completion order.
    for label in configs:
        suite.results[label] = results[label]
        suite.wall_seconds[label] = walls[label]
    return suite


# ---------------------------------------------------------------------------
# Execution policy: how the figure functions route their sweeps
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class ExecutionPolicy:
    """How :func:`run_suite` executes a batch of configurations."""

    workers: int = 1
    cache_dir: Optional[Path] = None

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1 and self.cache_dir is None


def _policy_from_env() -> ExecutionPolicy:
    workers = _workers_from_env()
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return ExecutionPolicy(
        workers=1 if workers is None else max(1, workers),
        cache_dir=Path(cache_dir) if cache_dir else None,
    )


_active_policy: Optional[ExecutionPolicy] = None


def configure(
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ExecutionPolicy:
    """Set the process-wide execution policy used by :func:`run_suite`.

    The CLI calls this from its ``--workers`` / ``--cache-dir`` flags.  An
    argument left as ``None`` falls back to the corresponding environment
    variable (``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``) before the built-in
    default, so flags refine rather than clobber the environment.
    """
    global _active_policy
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    _active_policy = ExecutionPolicy(
        workers=resolve_workers(workers),
        cache_dir=Path(cache_dir) if cache_dir else None,
    )
    return _active_policy


def reset_policy() -> None:
    """Drop any configured policy (tests; falls back to the environment)."""
    global _active_policy
    _active_policy = None


def active_policy() -> ExecutionPolicy:
    """The configured policy, or one derived from the environment."""
    if _active_policy is not None:
        return _active_policy
    return _policy_from_env()


def run_suite(
    configs: Mapping[str, ExperimentConfig],
    progress: Optional[Callable[[str, ExperimentResult], None]] = None,
) -> SuiteResult:
    """Run a sweep through the active execution policy.

    This is the seam every figure function routes through: serial by
    default (bit-for-bit the historical behaviour), parallel and/or cached
    when the CLI or environment configured it.
    """
    policy = active_policy()
    if policy.is_serial:
        return run_configs(configs, progress=progress)
    return run_configs_parallel(
        configs,
        workers=policy.workers,
        cache_dir=policy.cache_dir,
        progress=progress,
    )
