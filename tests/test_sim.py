"""Simulator tests: event loop, radio medium, sniffer, workload."""

import random

import pytest

from repro.sim import FrameTally, RadioMedium, Simulator, Sniffer, poisson_arrival_times
from repro.sim.medium import PHY_OVERHEAD_BYTES


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_run_until_stops(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator()
        errors = []

        def late() -> None:
            # At t=2.0, scheduling for t=1.0 is a past time: it must
            # raise instead of silently clamping to "now".
            try:
                sim.schedule_at(1.0, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        sim.schedule(2.0, late)
        sim.run()
        assert len(errors) == 1
        assert "simulated time" in errors[0]

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_at(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]

    def test_schedule_many_matches_sequential_order(self):
        batched = Simulator()
        fired_batched = []
        batched.schedule_many(
            (time, fired_batched.append, (tag,))
            for time, tag in [(2.0, "b"), (1.0, "a"), (2.0, "c"), (1.0, "d")]
        )
        batched.run()
        sequential = Simulator()
        fired_sequential = []
        for time, tag in [(2.0, "b"), (1.0, "a"), (2.0, "c"), (1.0, "d")]:
            sequential.schedule_at(time, fired_sequential.append, tag)
        sequential.run()
        # Same (time, sequence) keys -> identical pop order, including
        # the FIFO tie-break at equal timestamps.
        assert fired_batched == fired_sequential == ["a", "d", "b", "c"]

    def test_schedule_many_interleaves_with_singles(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "single")
        events = sim.schedule_many(
            [(1.0, fired.append, ("x",)), (2.0, fired.append, ("y",))]
        )
        assert len(events) == 2
        sim.run()
        assert fired == ["x", "single", "y"]

    def test_schedule_many_rejects_past_times_atomically(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_many(
                [(3.0, fired.append, ("ok",)), (1.0, fired.append, ("past",))]
            )
        # All-or-nothing: the valid entry must not have been scheduled.
        sim.run()
        assert fired == []

    def test_schedule_many_events_cancellable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many(
            [(1.0, fired.append, (1,)), (2.0, fired.append, (2,))]
        )
        events[1].cancel()
        sim.run()
        assert fired == [1]

    def test_same_timestamp_callbacks_coalesce_under_compaction(self):
        # Same-timestamp pops coalesce inside run(); a callback that
        # triggers mass cancellation (hence heap compaction, which
        # replaces the heap list) must not break the batch in flight.
        sim = Simulator()
        fired = []
        doomed = [
            sim.schedule(5.0, fired.append, f"late{i}") for i in range(600)
        ]

        def cancel_all():
            fired.append("cancel")
            for event in doomed:
                event.cancel()

        sim.schedule_many(
            [(1.0, cancel_all, ()), (1.0, fired.append, ("after",))]
        )
        sim.run()
        assert fired == ["cancel", "after"]

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=1000)

    def test_deterministic_rng(self):
        assert Simulator(seed=9).rng.random() == Simulator(seed=9).rng.random()

    def test_pending_count(self):
        """Of the scheduled events, the ones not cancelled fire."""
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        event.cancel()
        sim.run()
        assert fired == [2]

    def test_cancel_after_fire_is_noop(self):
        """Cancelling an event that already ran changes nothing (timers
        are often cancelled after firing)."""
        sim = Simulator()
        log = []
        fired = sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        sim.run(until=1.5)
        fired.cancel()
        fired.cancel()
        assert fired.fired and not fired.cancelled
        sim.run()
        assert log == [1, 2]

    def test_pending_cancel_idempotent(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        event.cancel()
        event.cancel()
        assert event.cancelled
        sim.run()
        assert fired == []

    def test_pending_tracks_fired_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.5)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_mass_cancellation_compacts_heap(self):
        """Cancelled events are purged lazily so long sweeps don't
        accumulate dead heap entries."""
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(1000)]
        keeper = sim.schedule(2.0, lambda: None)
        for event in events:
            event.cancel()
        assert len(sim._heap) < 1000
        fired = []
        keeper.callback = lambda: fired.append(True)
        keeper.args = ()
        sim.run()
        assert fired == [True]

    def test_compaction_preserves_order(self):
        sim = Simulator()
        sim.COMPACT_MIN_SIZE  # class attr exists
        fired = []
        cancelled = [
            sim.schedule(0.5, fired.append, "dead") for _ in range(200)
        ]
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        for event in cancelled:
            event.cancel()
        sim.run()
        assert fired == ["a", "b", "c"]


class TestMedium:
    def _medium(self, loss=0.0, seed=1, retries=3):
        sim = Simulator(seed=seed)
        medium = RadioMedium(sim, l2_retries=retries)
        received = []
        medium.register("a", lambda src, f, md: received.append(("a", f)))
        medium.register("b", lambda src, f, md: received.append(("b", f)))
        medium.connect("a", "b", loss=loss)
        return sim, medium, received

    def test_delivery(self):
        sim, medium, received = self._medium()
        medium.transmit("a", "b", b"frame", {})
        sim.run()
        assert received == [("b", b"frame")]

    def test_airtime_at_250kbps(self):
        sim, medium, _ = self._medium()
        airtime = medium.airtime(127)
        expected = ((127 + PHY_OVERHEAD_BYTES + 11) * 8) / 250_000
        assert airtime == pytest.approx(expected)

    def test_channel_serialisation(self):
        """Two frames queued back-to-back occupy consecutive airtime."""
        sim, medium, received = self._medium()
        times = []
        medium.register("c", lambda *args: None)
        medium.connect("a", "c")
        medium.add_observer(lambda t, *args: times.append(t))
        medium.transmit("a", "b", bytes(100), {})
        medium.transmit("a", "c", bytes(100), {})
        sim.run()
        assert times[1] - times[0] == pytest.approx(medium.airtime(100))

    def test_unknown_link_rejected(self):
        _, medium, _ = self._medium()
        with pytest.raises(ValueError):
            medium.transmit("a", "zz", b"", {})

    def test_duplicate_interface_rejected(self):
        sim = Simulator()
        medium = RadioMedium(sim)
        medium.register("x", lambda *a: None)
        with pytest.raises(ValueError):
            medium.register("x", lambda *a: None)

    def test_loss_with_retries_recovers(self):
        sim, medium, received = self._medium(loss=0.5, seed=3)
        for _ in range(20):
            medium.transmit("a", "b", b"f", {})
        sim.run()
        # With 3 retries at 50% loss almost every frame gets through.
        assert len(received) >= 17
        assert medium.frames_lost > 0

    def test_no_retries_drops(self):
        sim, medium, received = self._medium(loss=0.9, seed=4, retries=0)
        for _ in range(20):
            medium.transmit("a", "b", b"f", {})
        sim.run()
        assert medium.frames_dropped > 0
        assert len(received) + medium.frames_dropped == 20

    def test_loss_probability_validated(self):
        sim = Simulator()
        medium = RadioMedium(sim)
        medium.register("a", lambda *a: None)
        medium.register("b", lambda *a: None)
        with pytest.raises(ValueError):
            medium.connect("a", "b", loss=1.0)

    def test_neighbours(self):
        _, medium, _ = self._medium()
        assert medium.neighbours("a") == ["b"]


class TestFrameTally:
    def _wired_pair(self):
        from repro.sim import FrameTally

        sim = Simulator()
        medium = RadioMedium(sim)
        tally = FrameTally(medium)
        for name in "ab":
            medium.register(name, lambda *a: None)
        medium.connect("a", "b")
        return sim, medium, tally

    def test_matches_sniffer_aggregates(self):
        from repro.sim import FrameTally

        sim = Simulator()
        medium = RadioMedium(sim)
        sniffer = Sniffer(medium)
        tally = FrameTally(medium)
        for name in "ab":
            medium.register(name, lambda *a: None)
        medium.connect("a", "b")
        medium.transmit("a", "b", bytes(10), {"kind": "query"})
        medium.transmit("b", "a", bytes(25), {"kind": "response"})
        medium.transmit("a", "b", bytes(40), {"kind": "query"})
        sim.run()
        records = sniffer.records
        assert tally.frame_count("a", "b") == len(records) == 3
        assert tally.bytes_on_link("a", "b") == sum(r.length for r in records)
        assert tally.by_kind() == {"query": 2, "response": 1} == {
            kind: sum(r.metadata["kind"] == kind for r in records)
            for kind in ("query", "response")
        }

    def test_empty_tally(self):
        _, _, tally = self._wired_pair()
        assert tally.frame_count("a", "b") == 0
        assert tally.bytes_on_link("a", "b") == 0
        assert tally.by_kind() == {}


class TestSniffer:
    def test_records_frames(self):
        sim = Simulator()
        medium = RadioMedium(sim)
        sniffer = Sniffer(medium)
        medium.register("a", lambda *a: None)
        medium.register("b", lambda *a: None)
        medium.connect("a", "b")
        medium.transmit("a", "b", bytes(60), {"kind": "query"})
        sim.run()
        assert len(sniffer.records) == 1
        record = sniffer.records[0]
        assert record.length == 60
        assert record.metadata["kind"] == "query"

    def test_link_aggregation_bidirectional(self):
        sim = Simulator()
        medium = RadioMedium(sim)
        tally = FrameTally(medium)
        for name in "ab":
            medium.register(name, lambda *a: None)
        medium.connect("a", "b")
        medium.transmit("a", "b", bytes(10), {})
        medium.transmit("b", "a", bytes(20), {})
        sim.run()
        assert tally.frame_count("a", "b") == 2
        assert tally.bytes_on_link("a", "b") == 30

    def test_sniffer_coexists_with_another_observer(self):
        """A sniffer must not clobber (or be clobbered by) another
        observer: both see every frame."""
        sim = Simulator()
        medium = RadioMedium(sim)
        sniffer = Sniffer(medium)
        seen = []
        medium.add_observer(lambda t, *args: seen.append(t))
        for name in "ab":
            medium.register(name, lambda *a: None)
        medium.connect("a", "b")
        medium.transmit("a", "b", bytes(10), {})
        sim.run()
        assert len(sniffer.records) == 1
        assert len(seen) == 1

    def test_two_sniffers_both_record(self):
        sim = Simulator()
        medium = RadioMedium(sim)
        first, second = Sniffer(medium), Sniffer(medium)
        for name in "ab":
            medium.register(name, lambda *a: None)
        medium.connect("a", "b")
        medium.transmit("a", "b", bytes(10), {})
        sim.run()
        assert len(first.records) == len(second.records) == 1

    def test_double_attach_rejected(self):
        sim = Simulator()
        medium = RadioMedium(sim)
        observer = lambda *args: None
        medium.add_observer(observer)
        with pytest.raises(ValueError):
            medium.add_observer(observer)


class TestWorkload:
    def test_count_and_monotonic(self):
        times = poisson_arrival_times(random.Random(1), 5.0, 50)
        assert len(times) == 50
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_rate(self):
        times = poisson_arrival_times(random.Random(2), 5.0, 5000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(0.2, rel=0.1)

    def test_start_offset(self):
        times = poisson_arrival_times(random.Random(3), 1.0, 5, start=100.0)
        assert all(t > 100.0 for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(random.Random(1), 0.0, 5)
        with pytest.raises(ValueError):
            poisson_arrival_times(random.Random(1), 1.0, -1)


class TestScheduleManyBitIdentity:
    def test_sweep_grid_identical_with_sequential_scheduling(self, monkeypatch):
        # The batched arrival path (Simulator.schedule_many + coalesced
        # same-timestamp pops) must be a pure optimisation: the full
        # 8-cell perf-sweep grid replays bit-identically when arrivals
        # are scheduled one at a time through schedule_at.
        from repro.api import sweep
        from repro.scenarios import Scenario, WorkloadSpec
        from repro.sim.core import Simulator

        grid = dict(
            transports=("coap", "oscore"),
            topologies=("figure2", "one-hop"),
            losses=(0.05, 0.25),
        )
        base = Scenario(workload=WorkloadSpec(num_queries=6))
        batched = sweep(base, **grid)

        def sequential(self, entries):
            return [
                self.schedule_at(time, callback, *args)
                for time, callback, args in entries
            ]

        monkeypatch.setattr(Simulator, "schedule_many", sequential)
        looped = sweep(base, **grid)

        assert len(batched) == 8
        assert list(batched) == list(looped)
        for report_b, report_l in zip(batched.values(), looped.values()):
            assert report_b.raw.outcomes == report_l.raw.outcomes
            assert report_b.raw.link == report_l.raw.link
            assert report_b.raw.cache_stats == report_l.raw.cache_stats
            assert report_b.metrics == report_l.metrics
