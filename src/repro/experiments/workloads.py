"""Workload definitions shared by the figure-regeneration functions.

The paper's evaluation uses 24 clients, 100 communication rounds and the
full MNIST/FMNIST/Cifar-10 datasets on a multi-core testbed.  A pure-numpy
reproduction cannot run that volume in CI, so every experiment is
parameterised by a :class:`ScaleProfile`: ``"smoke"`` (seconds, used by the
test-suite), ``"bench"`` (the default for the benchmark harness, a couple
of minutes for the full suite) and ``"full"`` (closest to the paper;
hours).  The *relative* comparisons the paper makes — which algorithm is
faster, by roughly what factor, how accuracy responds to non-IIDness — are
preserved at every scale because they derive from the same heterogeneity
structure.

Select a scale globally with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.fl.config import DynamicsConfig, ExperimentConfig, ResourceConfig, TransportConfig
from repro.registry import (
    DATASETS,
    SCALE_PROFILES,
    SCENARIOS,
    RegistryView,
    register_scale,
    register_scenario,
)


@dataclass(frozen=True)
class ScaleProfile:
    """Workload sizes for one reproduction scale.

    Validated at construction (i.e. at registration time for built-in and
    third-party profiles alike): a profile that selects more clients per
    round than its cohort holds is rejected here instead of being silently
    clamped when a config is resolved from it.  The cifar fractions shrink
    the cohort *proportionally*, so a valid profile stays valid after the
    rounding in :func:`evaluation_config`.
    """

    name: str
    num_clients: int
    clients_per_round: int
    rounds: int
    local_updates: int
    profile_batches: int
    train_size: int
    test_size: int
    batch_size: int
    cifar_client_fraction: float = 0.75
    cifar_round_fraction: float = 0.75

    def __post_init__(self) -> None:
        for field_name in (
            "num_clients",
            "clients_per_round",
            "rounds",
            "local_updates",
            "train_size",
            "test_size",
            "batch_size",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"scale profile {self.name!r}: {field_name} must be >= 1")
        if self.profile_batches < 0:
            raise ValueError(f"scale profile {self.name!r}: profile_batches cannot be negative")
        if self.clients_per_round > self.num_clients:
            raise ValueError(
                f"scale profile {self.name!r}: clients_per_round "
                f"({self.clients_per_round}) exceeds num_clients ({self.num_clients})"
            )
        if not 0 < self.cifar_client_fraction <= 1 or not 0 < self.cifar_round_fraction <= 1:
            raise ValueError(
                f"scale profile {self.name!r}: cifar fractions must be in (0, 1]"
            )

    @property
    def is_partial_participation(self) -> bool:
        """Whether rounds select a strict subset of the cohort."""
        return self.clients_per_round < self.num_clients


register_scale(
    "smoke",
    ScaleProfile(
        name="smoke",
        num_clients=4,
        clients_per_round=4,
        rounds=2,
        local_updates=6,
        profile_batches=2,
        train_size=400,
        test_size=120,
        batch_size=16,
    ),
)
register_scale(
    "bench",
    ScaleProfile(
        name="bench",
        num_clients=8,
        clients_per_round=8,
        rounds=4,
        local_updates=8,
        profile_batches=2,
        train_size=960,
        test_size=240,
        batch_size=16,
        cifar_client_fraction=0.75,
        cifar_round_fraction=0.5,
    ),
)
register_scale(
    "full",
    ScaleProfile(
        name="full",
        num_clients=24,
        clients_per_round=24,
        rounds=100,
        local_updates=64,
        profile_batches=8,
        train_size=12000,
        test_size=2000,
        batch_size=32,
    ),
)
# Large-cohort profiles: partial participation over a virtualized client
# pool (memory tracks the 32/64 hydrated participants, not the cohort —
# see docs/architecture.md "Client virtualization").
register_scale(
    "city",
    ScaleProfile(
        name="city",
        num_clients=1000,
        clients_per_round=32,
        rounds=6,
        local_updates=4,
        profile_batches=2,
        train_size=8000,
        test_size=400,
        batch_size=16,
    ),
    description="city-sized cohort (1k clients, 32 per round, virtualized pool)",
)
register_scale(
    "metro",
    ScaleProfile(
        name="metro",
        num_clients=5000,
        clients_per_round=64,
        rounds=4,
        local_updates=4,
        profile_batches=2,
        train_size=20000,
        test_size=400,
        batch_size=16,
    ),
    description="metro-sized cohort (5k clients, 64 per round, virtualized pool)",
)
# The in-process event-loop and churn workload: one training sample per
# client (iid array_split over a 100k-sample synthetic set keeps every
# batch uniform) and 128 participants per round over the virtualized
# pool.  Dataset generation dominates set-up, and event dispatch, churn
# and cluster membership dominate the run; peak RSS is about 1.25 GB.
register_scale(
    "continent",
    ScaleProfile(
        name="continent",
        num_clients=100_000,
        clients_per_round=128,
        rounds=3,
        local_updates=2,
        profile_batches=1,
        train_size=100_000,
        test_size=500,
        batch_size=4,
    ),
    description="continent-sized cohort (100k clients, 128 per round, in-process event loop)",
)

#: Dict-like facade over the scale registry, kept for the historical
#: ``SCALES[name]`` call sites; :data:`repro.registry.SCALE_PROFILES` is the
#: source of truth (third-party scales registered there appear here too).
SCALES: Mapping[str, ScaleProfile] = RegistryView(SCALE_PROFILES)


def scale_from_env(default: str = "bench") -> ScaleProfile:
    """Resolve the active scale from the ``REPRO_SCALE`` environment variable."""
    name = os.environ.get("REPRO_SCALE", default).lower()
    if name not in SCALES:
        raise ValueError(f"unknown REPRO_SCALE {name!r}; valid: {sorted(SCALES)}")
    return SCALES[name]


def baseline_algorithms() -> Tuple[str, ...]:
    """The five algorithms compared in Figures 6 and 7."""
    return ("fedavg", "fedprox", "fednova", "tifl", "aergia")


# ---------------------------------------------------------------------------
# Named scenarios: time-varying cluster behaviour at a chosen scale
# ---------------------------------------------------------------------------
#: Reference dynamics time unit: roughly one smoke-scale training round.
#: Scenario time constants below are expressed in these units and stretched
#: proportionally to the scale profile's per-round client work, so "a churn
#: cycle every couple of rounds" means the same thing at every scale.
_SMOKE_ROUND_WORK = SCALES["smoke"].local_updates * SCALES["smoke"].batch_size


# Each builder maps a time-stretch factor to the scenario's DynamicsConfig;
# registration goes through repro.registry.SCENARIOS, where the one-line
# descriptions shown by `repro list` live.  Third-party scenarios plug in
# the same way via @register_scenario("name", description="...").
@register_scenario("stable")
def _stable_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(scenario="stable")


@register_scenario("churn")
def _churn_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(
        scenario="churn",
        churn=True,
        mean_online_s=2.5 * f,
        mean_offline_s=0.8 * f,
        min_online_clients=1,
        first_event_s=0.3 * f,
        client_timeout_s=8.0 * f,
    )


@register_scenario("flaky-network")
def _flaky_network_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(
        scenario="flaky-network",
        bandwidth_rate_per_s=2.0 / f,
        bandwidth_low_factor=0.02,
        bandwidth_high_factor=0.6,
        mean_bandwidth_hold_s=1.0 * f,
        first_event_s=0.1 * f,
    )


@register_scenario("straggler-burst")
def _straggler_burst_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(
        scenario="straggler-burst",
        slowdown_rate_per_s=1.5 / f,
        slowdown_factor=5.0,
        mean_slowdown_s=1.5 * f,
        first_event_s=0.1 * f,
    )


@register_scenario("mega-churn")
def _mega_churn_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(
        scenario="mega-churn",
        churn=True,
        mean_online_s=1.2 * f,
        mean_offline_s=1.0 * f,
        min_online_clients=1,
        first_event_s=0.2 * f,
        client_timeout_s=5.0 * f,
        slowdown_rate_per_s=1.0 / f,
        slowdown_factor=4.0,
        mean_slowdown_s=1.0 * f,
        bandwidth_rate_per_s=1.0 / f,
        bandwidth_low_factor=0.05,
        bandwidth_high_factor=0.8,
        mean_bandwidth_hold_s=1.0 * f,
    )


# Transport-fault scenarios: the builder still returns the DynamicsConfig
# (loss bursts, churn, the client-timeout backstop); the TransportConfig
# knobs ride on the registration metadata and are resolved by
# :func:`scenario_transport`, with time-like knobs stretched like the
# dynamics time constants.
@register_scenario(
    "lossy",
    description="drop/duplicate/reorder/corrupt faults on every link, "
    "recovered by the reliable-delivery middleware (ACK + retransmit)",
    transport={
        "drop_rate": 0.15,
        "duplicate_rate": 0.05,
        "reorder_rate": 0.1,
        "reorder_max_delay_s": 0.05,
        "corrupt_rate": 0.02,
        "reliable": True,
        "ack_timeout_s": 0.35,
        "max_attempts": 4,
    },
)
def _lossy_scenario(f: float) -> DynamicsConfig:
    # The per-client timeout is the belt-and-braces bound: transport expiry
    # (ack_timeout_s * (1 + 2 + 4 + 8) * jitter, ~6f worst case) normally
    # degrades the round first, so no round ever hangs past it.
    return DynamicsConfig(scenario="lossy", client_timeout_s=8.0 * f)


@register_scenario(
    "lossy-churn",
    description="lossy links and churning clients at once: retransmissions "
    "race disconnects, expired sends degrade the round",
    transport={
        "drop_rate": 0.12,
        "duplicate_rate": 0.05,
        "reorder_rate": 0.08,
        "reorder_max_delay_s": 0.05,
        "corrupt_rate": 0.02,
        "reliable": True,
        "ack_timeout_s": 0.35,
        "max_attempts": 4,
    },
)
def _lossy_churn_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(
        scenario="lossy-churn",
        churn=True,
        mean_online_s=2.5 * f,
        mean_offline_s=0.8 * f,
        min_online_clients=1,
        first_event_s=0.3 * f,
        client_timeout_s=8.0 * f,
    )


@register_scenario(
    "partition-storm",
    description="random client links collapse to 90% loss in bursts; "
    "rounds finalize on a 3/4 quorum instead of waiting out the partition",
    transport={
        "drop_rate": 0.05,
        "duplicate_rate": 0.03,
        "reliable": True,
        "ack_timeout_s": 0.35,
        "max_attempts": 4,
        "quorum_fraction": 0.75,
    },
)
def _partition_storm_scenario(f: float) -> DynamicsConfig:
    return DynamicsConfig(
        scenario="partition-storm",
        loss_burst_rate_per_s=1.5 / f,
        loss_burst_drop_rate=0.9,
        mean_loss_burst_s=1.2 * f,
        first_event_s=0.1 * f,
        client_timeout_s=8.0 * f,
    )


def available_scenarios() -> Tuple[str, ...]:
    """All registered scenarios, sorted (with ``stable`` first)."""
    names = sorted(name for name in SCENARIOS.names() if name != "stable")
    return ("stable", *names) if "stable" in SCENARIOS else tuple(names)


def scenario_description(name: str) -> str:
    """One-line description of a named scenario (used by ``repro list``)."""
    return SCENARIOS.describe(name)


def scenario_dynamics(name: str, scale: Optional[ScaleProfile] = None) -> DynamicsConfig:
    """Build the :class:`DynamicsConfig` behind a named scenario.

    Time constants stretch with the scale profile's per-round client work
    (``local_updates x batch_size``) so that, relative to a round, the
    dynamics are equally aggressive at every scale.
    """
    builder = SCENARIOS.get(name)
    stretch = 1.0
    if scale is not None:
        stretch = (scale.local_updates * scale.batch_size) / _SMOKE_ROUND_WORK
    return builder(stretch)


#: TransportConfig knobs that are virtual-time durations (stretched with
#: the scale profile, like the dynamics time constants).
_TRANSPORT_TIME_KNOBS = ("ack_timeout_s", "reorder_max_delay_s")


def scenario_transport(name: str, scale: Optional[ScaleProfile] = None) -> TransportConfig:
    """The :class:`TransportConfig` a named scenario implies.

    Scenarios attach their transport knobs as ``transport={...}``
    registration metadata; scenarios without it (all the pre-transport
    ones) resolve to the null config.  Time-like knobs stretch with the
    scale profile exactly like :func:`scenario_dynamics` time constants.
    """
    SCENARIOS.get(name)  # import the provider so metadata is complete
    knobs = SCENARIOS.entry(name).metadata.get("transport")
    if not knobs:
        return TransportConfig()
    knobs = dict(knobs)
    stretch = 1.0
    if scale is not None:
        stretch = (scale.local_updates * scale.batch_size) / _SMOKE_ROUND_WORK
    for knob in _TRANSPORT_TIME_KNOBS:
        if knob in knobs:
            knobs[knob] = knobs[knob] * stretch
    return TransportConfig(**knobs)


def known_datasets() -> Tuple[str, ...]:
    """Datasets the evaluation harness has a default architecture for."""
    return tuple(
        entry.name for entry in DATASETS.entries() if "architecture" in entry.metadata
    )


def architecture_for(dataset: str) -> str:
    """The network the paper pairs with each dataset (§5.1 "Networks").

    Derived from the ``architecture`` metadata attached when the dataset was
    registered (:func:`repro.registry.register_dataset`).
    """
    if dataset in DATASETS:
        architecture = DATASETS.entry(dataset).metadata.get("architecture")
        if architecture:
            return str(architecture)
    raise KeyError(f"no default architecture for dataset {dataset!r}")


def evaluation_config(
    dataset: str,
    algorithm: str,
    partition: str,
    scale: ScaleProfile,
    seed: int = 42,
    classes_per_client: int = 3,
    scenario: Optional[str] = None,
    **overrides,
) -> ExperimentConfig:
    """The per-figure building block: one algorithm on one dataset.

    Cifar-10 is substantially more expensive than the 28x28 datasets, so the
    scale profile shrinks its client count and round count by the configured
    fractions, exactly like the paper uses fewer rounds of the heavier
    workloads' wall-clock budget.

    ``scenario`` selects a named dynamics scenario (``"stable"``,
    ``"churn"``, ...) with time constants stretched to the scale profile;
    an explicit ``dynamics=...`` override takes precedence.
    """
    num_clients = scale.num_clients
    clients_per_round = scale.clients_per_round
    rounds = scale.rounds
    local_updates = scale.local_updates
    train_size = scale.train_size
    if dataset.startswith("cifar"):
        num_clients = max(3, int(round(num_clients * scale.cifar_client_fraction)))
        clients_per_round = min(clients_per_round, num_clients)
        rounds = max(2, int(round(rounds * scale.cifar_round_fraction)))
        local_updates = max(4, int(round(local_updates * scale.cifar_round_fraction)))
        train_size = max(240, int(round(train_size * scale.cifar_client_fraction * 0.5)))

    config = ExperimentConfig(
        dataset=dataset,
        architecture=architecture_for(dataset),
        algorithm=algorithm,
        partition=partition,
        classes_per_client=classes_per_client,
        num_clients=num_clients,
        clients_per_round=min(clients_per_round, num_clients),
        rounds=rounds,
        local_updates=local_updates,
        profile_batches=scale.profile_batches,
        train_size=train_size,
        test_size=scale.test_size,
        batch_size=scale.batch_size,
        resources=ResourceConfig(scheme="uniform", low=0.1, high=1.0),
        dynamics=scenario_dynamics(scenario if scenario is not None else "stable", scale),
        transport=scenario_transport(scenario if scenario is not None else "stable", scale),
        seed=seed,
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def motivation_deadline_config(
    deadline_seconds: float | None,
    scale: ScaleProfile,
    partition: str = "noniid",
    seed: int = 42,
) -> ExperimentConfig:
    """Configuration behind Figures 1(b) and 1(c): MNIST with round deadlines.

    The compute rate is slowed down (relative to the evaluation configs) so
    that an unconstrained round lasts on the order of the paper's tens of
    seconds, making the paper's absolute deadline values (70/50/30/10 s)
    directly meaningful in virtual time.
    """
    return ExperimentConfig(
        dataset="mnist",
        architecture="mnist-cnn",
        algorithm="deadline",
        partition=partition,
        classes_per_client=3,
        num_clients=scale.num_clients,
        clients_per_round=scale.num_clients,
        rounds=max(3, scale.rounds),
        local_updates=scale.local_updates,
        profile_batches=0,
        train_size=scale.train_size,
        test_size=scale.test_size,
        batch_size=scale.batch_size,
        deadline_seconds=deadline_seconds,
        resources=ResourceConfig(
            scheme="uniform", low=0.1, high=1.0, base_flops_per_second=8.0e7
        ),
        seed=seed,
    )


def heterogeneity_config(
    num_clients: int,
    variance: float,
    scale: ScaleProfile,
    seed: int = 42,
) -> ExperimentConfig:
    """Configuration behind Figure 1(a): CPU-variance sweep on MNIST/FedAvg."""
    return ExperimentConfig(
        dataset="mnist",
        architecture="mnist-cnn",
        algorithm="fedavg",
        partition="iid",
        num_clients=num_clients,
        clients_per_round=num_clients,
        rounds=max(2, scale.rounds // 2),
        local_updates=scale.local_updates,
        profile_batches=0,
        train_size=max(scale.train_size // 2, 200),
        test_size=max(scale.test_size // 2, 80),
        batch_size=scale.batch_size,
        resources=ResourceConfig(scheme="variance", mean=0.5, variance=variance),
        seed=seed,
    )


def similarity_factor_config(
    factor: float,
    scale: ScaleProfile,
    seed: int = 42,
) -> ExperimentConfig:
    """Configuration behind Figure 9: FMNIST, non-IID, subset selection."""
    clients_per_round = max(3, scale.num_clients // 2)
    return evaluation_config(
        dataset="fmnist",
        algorithm="aergia",
        partition="noniid",
        scale=scale,
        seed=seed,
        aergia_similarity_factor=factor,
        clients_per_round=clients_per_round,
    )


def noniid_degree_configs(scale: ScaleProfile, seed: int = 42) -> List[Tuple[str, ExperimentConfig]]:
    """Configurations behind Figure 10: IID and non-IID(10/5/2) on FMNIST."""
    configs: List[Tuple[str, ExperimentConfig]] = [
        ("IID", evaluation_config("fmnist", "aergia", "iid", scale, seed=seed)),
    ]
    for classes in (10, 5, 2):
        configs.append(
            (
                f"non-IID({classes})",
                evaluation_config(
                    "fmnist",
                    "aergia",
                    "noniid",
                    scale,
                    seed=seed,
                    classes_per_client=classes,
                ),
            )
        )
    return configs
