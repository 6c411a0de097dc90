"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.model import Phase, PhaseTrace
from repro.simulation.clock import LocalClock
from repro.simulation.cluster import FEDERATOR_ID, SimulatedCluster
from repro.simulation.cost import ComputeCostModel
from repro.simulation.events import EventQueue, SimulationEnvironment
from repro.simulation.network import LinkSpec, Network, payload_size_bytes
from repro.simulation.resources import (
    ResourceProfile,
    TransientLoad,
    speeds_with_variance,
    tiered_speed_profiles,
    uniform_speed_profiles,
)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule(2.0, lambda: fired.append("late"))
        env.schedule(1.0, lambda: fired.append("early"))
        env.run()
        assert fired == ["early", "late"]
        assert env.now == pytest.approx(2.0)

    def test_ties_fire_in_fifo_order(self):
        env = SimulationEnvironment()
        fired = []
        for i in range(5):
            env.schedule(1.0, lambda i=i: fired.append(i))
        env.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancelled_events_are_skipped(self):
        env = SimulationEnvironment()
        fired = []
        event = env.schedule(1.0, lambda: fired.append("cancelled"))
        env.schedule(2.0, lambda: fired.append("kept"))
        event.cancel()
        env.run()
        assert fired == ["kept"]

    def test_nested_scheduling(self):
        env = SimulationEnvironment()
        fired = []

        def outer():
            fired.append(("outer", env.now))
            env.schedule(0.5, lambda: fired.append(("inner", env.now)))

        env.schedule(1.0, outer)
        env.run()
        assert fired == [("outer", 1.0), ("inner", 1.5)]

    def test_run_until_limit(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule(1.0, lambda: fired.append(1))
        env.schedule(5.0, lambda: fired.append(5))
        env.run(until=2.0)
        assert fired == [1]
        assert env.now == pytest.approx(2.0)
        env.run()
        assert fired == [1, 5]

    def test_cannot_schedule_in_the_past(self):
        env = SimulationEnvironment()
        with pytest.raises(ValueError):
            env.schedule(-1.0, lambda: None)
        env.schedule(1.0, lambda: None)
        env.run()
        with pytest.raises(ValueError):
            env.schedule_at(0.5, lambda: None)

    def test_queue_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        assert len(queue) == 1
        assert queue.peek_time() == pytest.approx(2.0)

    def test_max_events_limit(self):
        env = SimulationEnvironment()
        for i in range(10):
            env.schedule(float(i), lambda: None)
        env.run(max_events=3)
        assert env.events_processed == 3
        assert env.pending_events() == 7


class TestLocalClock:
    def test_drifting_clock_scales_durations(self):
        env = SimulationEnvironment()
        clock = LocalClock(env, offset=3.0, drift=1e-3)
        assert clock.measure(10.0) == pytest.approx(10.0 * 1.001)

    def test_now_includes_offset(self):
        env = SimulationEnvironment()
        env.schedule(5.0, lambda: None)
        env.run()
        clock = LocalClock(env, offset=2.0, drift=0.0)
        assert clock.now() == pytest.approx(7.0)

    def test_elapsed(self):
        env = SimulationEnvironment()
        clock = LocalClock(env)
        start = clock.now()
        env.schedule(4.0, lambda: None)
        env.run()
        assert clock.elapsed(start) == pytest.approx(4.0)

    def test_invalid_drift_rejected(self):
        env = SimulationEnvironment()
        with pytest.raises(ValueError):
            LocalClock(env, drift=0.5)
        with pytest.raises(ValueError):
            LocalClock(env).measure(-1.0)

    def test_random_clock_within_bounds(self):
        env = SimulationEnvironment()
        clock = LocalClock.random(env, rng=np.random.default_rng(0))
        assert abs(clock.drift) <= 1e-3
        assert abs(clock.offset) <= 5.0


class TestResources:
    def test_effective_rate_scales_with_speed(self):
        fast = ResourceProfile(speed_fraction=1.0, base_flops_per_second=1e9)
        slow = ResourceProfile(speed_fraction=0.25, base_flops_per_second=1e9)
        assert fast.effective_rate() == pytest.approx(4 * slow.effective_rate())

    def test_seconds_for_flops(self):
        profile = ResourceProfile(speed_fraction=0.5, base_flops_per_second=1e9)
        assert profile.seconds_for_flops(1e9) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            profile.seconds_for_flops(-1.0)

    def test_transient_load_reduces_rate_periodically(self):
        load = TransientLoad(amplitude=0.5, period=10.0, duty=0.5, phase=0.0)
        profile = ResourceProfile(speed_fraction=1.0, transient_load=load)
        busy = profile.effective_rate(time=1.0)
        idle = profile.effective_rate(time=6.0)
        assert busy == pytest.approx(idle * 0.5)

    def test_transient_load_validation(self):
        with pytest.raises(ValueError):
            TransientLoad(amplitude=1.5)
        with pytest.raises(ValueError):
            TransientLoad(period=0.0)

    def test_uniform_profiles_within_range(self):
        profiles = uniform_speed_profiles(50, low=0.1, high=1.0, rng=np.random.default_rng(0))
        speeds = [p.speed_fraction for p in profiles]
        assert min(speeds) >= 0.1
        assert max(speeds) <= 1.0

    def test_tiered_profiles_use_given_tiers(self):
        profiles = tiered_speed_profiles(9, tiers=(0.25, 0.5, 1.0), rng=np.random.default_rng(0))
        assert {round(p.speed_fraction, 2) for p in profiles} == {0.25, 0.5, 1.0}

    def test_variance_zero_gives_identical_speeds(self):
        profiles = speeds_with_variance(6, mean=0.5, variance=0.0)
        assert all(p.speed_fraction == pytest.approx(0.5) for p in profiles)

    def test_variance_increases_spread(self):
        low = speeds_with_variance(40, mean=0.5, variance=0.01, rng=np.random.default_rng(0))
        high = speeds_with_variance(40, mean=0.5, variance=0.2, rng=np.random.default_rng(0))
        assert np.std([p.speed_fraction for p in high]) > np.std([p.speed_fraction for p in low])

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            ResourceProfile(speed_fraction=0.0)
        with pytest.raises(ValueError):
            uniform_speed_profiles(0)
        with pytest.raises(ValueError):
            speeds_with_variance(3, variance=-1.0)


def _make_trace(ff=1e6, fc=1e5, bc=2e5, bf=3e6) -> PhaseTrace:
    trace = PhaseTrace()
    trace.add(Phase.FORWARD_FEATURES, ff)
    trace.add(Phase.FORWARD_CLASSIFIER, fc)
    trace.add(Phase.BACKWARD_CLASSIFIER, bc)
    trace.add(Phase.BACKWARD_FEATURES, bf)
    return trace


class TestCostModel:
    def test_batch_seconds_inverse_to_speed(self):
        cost = ComputeCostModel(overhead_seconds_per_batch=0.0)
        trace = _make_trace()
        fast = ResourceProfile(speed_fraction=1.0, base_flops_per_second=1e9)
        slow = ResourceProfile(speed_fraction=0.5, base_flops_per_second=1e9)
        assert cost.batch_seconds(trace, slow) == pytest.approx(2 * cost.batch_seconds(trace, fast))

    def test_frozen_batch_excludes_bf(self):
        cost = ComputeCostModel(overhead_seconds_per_batch=0.0)
        trace = _make_trace()
        profile = ResourceProfile(speed_fraction=1.0, base_flops_per_second=1e9)
        full = cost.batch_seconds(trace, profile)
        frozen = cost.frozen_batch_seconds(trace, profile)
        assert frozen < full
        assert frozen == pytest.approx(full - trace.flops[Phase.BACKWARD_FEATURES] / 1e9)

    def test_feature_training_excludes_bc(self):
        cost = ComputeCostModel(overhead_seconds_per_batch=0.0)
        trace = _make_trace()
        profile = ResourceProfile(speed_fraction=1.0, base_flops_per_second=1e9)
        feature_only = cost.feature_training_seconds(trace, profile)
        assert feature_only < cost.batch_seconds(trace, profile)
        assert feature_only > cost.frozen_batch_seconds(trace, profile)

    def test_phase_seconds_keys(self):
        cost = ComputeCostModel()
        trace = _make_trace()
        profile = ResourceProfile(speed_fraction=1.0)
        assert set(cost.phase_seconds(trace, profile)) == set(Phase)


class TestNetwork:
    def test_delivery_time_includes_latency_and_bandwidth(self):
        env = SimulationEnvironment()
        network = Network(env, default_link=LinkSpec(latency_s=0.1, bandwidth_bytes_per_s=100.0))
        received = []
        network.register("a", lambda m: None)
        network.register("b", lambda m: received.append(env.now))
        network.send("a", "b", "ping", payload=None, size_bytes=50.0)
        env.run()
        assert received[0] == pytest.approx(0.1 + 0.5)

    def test_link_override(self):
        env = SimulationEnvironment()
        network = Network(env)
        network.set_link("a", "b", LinkSpec(latency_s=1.0, bandwidth_bytes_per_s=1e9))
        assert network.transfer_time("a", "b", 0.0) == pytest.approx(1.0)
        assert network.transfer_time("b", "a", 0.0) == pytest.approx(0.01)

    def test_unknown_recipient_raises(self):
        env = SimulationEnvironment()
        network = Network(env)
        network.register("a", lambda m: None)
        with pytest.raises(KeyError):
            network.send("a", "ghost", "ping")

    def test_duplicate_registration_rejected(self):
        env = SimulationEnvironment()
        network = Network(env)
        network.register("a", lambda m: None)
        with pytest.raises(ValueError):
            network.register("a", lambda m: None)

    def test_messages_preserve_fifo_per_link_when_equal_size(self):
        env = SimulationEnvironment()
        network = Network(env)
        received = []
        network.register("a", lambda m: None)
        network.register("b", lambda m: received.append(m.payload))
        for i in range(3):
            network.send("a", "b", "ping", payload=i, size_bytes=10.0)
        env.run()
        assert received == [0, 1, 2]

    def test_payload_size_of_weight_dict(self):
        weights = {"w": np.zeros((10, 10)), "b": np.zeros(10)}
        assert payload_size_bytes(weights) == pytest.approx(110 * 8)

    def test_stats_accumulate(self):
        env = SimulationEnvironment()
        network = Network(env)
        network.register("a", lambda m: None)
        network.register("b", lambda m: None)
        network.send("a", "b", "ping", size_bytes=10.0)
        network.send("b", "a", "pong", size_bytes=20.0)
        assert network.messages_sent == 2
        assert network.bytes_sent == pytest.approx(30.0)

    def test_link_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1.0)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            LinkSpec().transfer_time(-5.0)


class TestCluster:
    def test_cluster_registers_federator_and_clients(self):
        profiles = uniform_speed_profiles(4, rng=np.random.default_rng(0))
        cluster = SimulatedCluster(profiles)
        assert cluster.num_clients == 4
        assert FEDERATOR_ID in cluster.nodes
        assert cluster.client_ids == [0, 1, 2, 3]

    def test_profile_lookup(self):
        profiles = uniform_speed_profiles(2, rng=np.random.default_rng(0))
        cluster = SimulatedCluster(profiles)
        assert cluster.profile(0) is profiles[0]
        with pytest.raises(KeyError):
            cluster.profile(99)
        with pytest.raises(KeyError):
            cluster.profile(FEDERATOR_ID)  # type: ignore[arg-type]

    def test_describe_summary(self):
        profiles = uniform_speed_profiles(8, rng=np.random.default_rng(0))
        cluster = SimulatedCluster(profiles)
        summary = cluster.describe()
        assert summary["num_clients"] == 8
        assert 0.0 < summary["speed_min"] <= summary["speed_mean"] <= summary["speed_max"] <= 1.0

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster([])

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_cluster_size_property(self, n):
        cluster = SimulatedCluster(uniform_speed_profiles(n, rng=np.random.default_rng(n)))
        assert cluster.num_clients == n
        assert len(cluster.client_ids) == n


class TestEventCancellationSemantics:
    """Event.cancel contracts the dynamics engine leans on (peek/pop/FIFO)."""

    def test_cancelled_head_is_skipped_by_peek_time(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == 1.0
        first.cancel()
        # peek_time must look through the cancelled head to the live event.
        assert queue.peek_time() == 2.0

    def test_cancelled_events_are_never_popped(self):
        queue = EventQueue()
        events = [queue.push(float(t), lambda: None) for t in (1, 2, 3)]
        events[0].cancel()
        events[2].cancel()
        popped = queue.pop()
        assert popped is events[1]
        assert queue.pop() is None

    def test_pop_on_fully_cancelled_queue_returns_none(self):
        queue = EventQueue()
        for t in (1.0, 2.0):
            queue.push(t, lambda: None).cancel()
        assert queue.peek_time() is None
        assert queue.pop() is None
        assert len(queue) == 0
        assert not queue

    def test_cancel_after_peek_still_skips(self):
        queue = EventQueue()
        event = queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0  # peek does not consume
        event.cancel()
        assert queue.pop() is None

    def test_fifo_tie_break_at_equal_timestamps(self):
        env = SimulationEnvironment()
        fired = []
        for tag in ("a", "b", "c", "d"):
            env.schedule(1.0, lambda t=tag: fired.append(t))
        env.run()
        assert fired == ["a", "b", "c", "d"]

    def test_fifo_tie_break_survives_cancellations(self):
        env = SimulationEnvironment()
        fired = []
        events = [
            env.schedule(1.0, lambda t=tag: fired.append(t))
            for tag in ("a", "b", "c", "d", "e")
        ]
        events[1].cancel()
        events[3].cancel()
        env.run()
        assert fired == ["a", "c", "e"]

    def test_cancelling_inside_a_callback_affects_later_events(self):
        env = SimulationEnvironment()
        fired = []
        victim = env.schedule(2.0, lambda: fired.append("victim"))
        env.schedule(1.0, lambda: victim.cancel())
        env.run()
        assert fired == []


_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.5, 4.0])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    ),
    max_size=80,
)


class TestEventQueueAgainstModel:
    """The queue against a brute-force model: every live event, sorted."""

    @staticmethod
    def _check_counts(queue: EventQueue, live: dict) -> None:
        heap = queue._heap
        scanned = sum(1 for entry in heap if not entry[2].cancelled)
        assert len(queue) == scanned == len(live)
        assert bool(queue) == bool(live)
        assert queue._cancelled == len(heap) - scanned
        # Compaction must leave a valid heap behind.
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))

    @given(_QUEUE_OPS)
    @settings(max_examples=300, deadline=None)
    def test_fire_order_matches_a_sorted_model(self, ops):
        env = SimulationEnvironment()
        queue = env._queue
        fired = []
        events = []
        live = {}  # sequence -> (time, sequence) of events still to fire
        for op, arg in ops:
            if op == "push":
                event = env.schedule(arg, lambda n=len(events): fired.append(n))
                events.append(event)
                live[event.sequence] = (event.time, event.sequence)
            elif op == "cancel" and events:
                # Any event ever pushed: covers double cancels and cancels
                # of events that already fired.
                event = events[arg % len(events)]
                event.cancel()
                live.pop(event.sequence, None)
            elif op == "step":
                expected = min(live.values()) if live else None
                assert env.step() is (expected is not None)
                if expected is not None:
                    assert fired[-1] == expected[1]
                    assert env.now == expected[0]
                    del live[expected[1]]
            elif op == "peek":
                assert queue.peek_time() == (min(live.values())[0] if live else None)
            elif op == "run_until":
                until = env.now + arg
                due = sorted(key for key in live.values() if key[0] <= until)
                before = len(fired)
                env.run(until=until)
                assert fired[before:] == [sequence for _time, sequence in due]
                for _time, sequence in due:
                    del live[sequence]
                if live:
                    assert env.now == until
                elif due:
                    assert env.now == due[-1][0]
            self._check_counts(queue, live)
        # Sequences are assigned in push order, so the model's tie-break
        # is FIFO; draining must still honour it after any compaction.
        rest = sorted(live.values())
        before = len(fired)
        env.run()
        assert fired[before:] == [sequence for _time, sequence in rest]
        self._check_counts(queue, {})

    def test_compaction_keeps_time_order(self):
        env = SimulationEnvironment()
        fired = []
        times = [float(t) for t in np.random.default_rng(3).permutation(20)]
        events = {t: env.schedule(t, lambda t=t: fired.append(t)) for t in times}
        # Cancelling the eleven earliest leaves them outnumbering the live
        # nine, so the queue compacts with the old root gone.
        for t in range(11):
            events[float(t)].cancel()
        assert len(env._queue._heap) == 9
        env.run()
        assert fired == [float(t) for t in range(11, 20)]

    def test_fifo_ties_survive_compaction(self):
        env = SimulationEnvironment()
        queue = env._queue
        fired = []
        events = [env.schedule(1.0, lambda i=i: fired.append(i)) for i in range(10)]
        for event in events[1::2] + events[:2]:
            event.cancel()
        # Six cancelled, four live: the queue compacted down to the live.
        assert len(queue._heap) == len(queue) == 4
        env.run()
        assert fired == [2, 4, 6, 8]
        assert env.pending_events() == 0


class TestLocalClockRoundTrip:
    """Offset/drift round-tripping between global and local time."""

    def test_to_global_inverts_now(self):
        env = SimulationEnvironment()
        clock = LocalClock(env, offset=3.5, drift=5e-4)
        env.schedule(7.25, lambda: None)
        env.run()
        assert env.now == 7.25
        local = clock.now()
        assert clock.to_global(local) == pytest.approx(env.now, abs=1e-12)

    def test_round_trip_for_many_offset_drift_pairs(self):
        env = SimulationEnvironment()
        env.schedule(123.456, lambda: None)
        env.run()
        rng = np.random.default_rng(99)
        for _ in range(50):
            clock = LocalClock(
                env,
                offset=float(rng.uniform(-5, 5)),
                drift=float(rng.uniform(-1e-3, 1e-3)),
            )
            assert clock.to_global(clock.now()) == pytest.approx(env.now, rel=1e-12)

    def test_measured_duration_round_trips_through_drift(self):
        env = SimulationEnvironment()
        clock = LocalClock(env, offset=-2.0, drift=1e-3)
        global_duration = 4.0
        local_duration = clock.measure(global_duration)
        assert local_duration == pytest.approx(global_duration * 1.001)
        # Undo the drift scaling: the local measurement maps back exactly.
        assert local_duration / (1.0 + clock.drift) == pytest.approx(
            global_duration, rel=1e-12
        )

    def test_elapsed_matches_measure_between_readings(self):
        env = SimulationEnvironment()
        clock = LocalClock(env, offset=1.0, drift=2e-4)
        start_local = clock.now()
        env.schedule(3.0, lambda: None)
        env.run()
        assert clock.elapsed(start_local) == pytest.approx(clock.measure(3.0), rel=1e-12)
