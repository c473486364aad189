"""Event queue: ordering, determinism, safety."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import EventQueue
from repro.errors import SimulationError


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for index in range(10):
            queue.push(5.0, index)
        assert [queue.pop()[1] for _ in range(10)] == list(range(10))

    def test_equal_time_never_compares_payloads(self):
        # The heap entry is (time, sequence, payload); the unique
        # sequence makes tuple comparison total before the payload is
        # ever reached. This regression test would raise TypeError on
        # any implementation that lets a tie fall through to the
        # payload — the simulator schedules non-comparable payloads
        # (tuples mixing strings, requests, and None) at equal times
        # constantly (e.g. an arrival, a tick, and a cap landing all
        # at t = 80.0).
        class Opaque:
            __lt__ = None  # even attempting a compare raises

        queue = EventQueue()
        payloads = [
            ("arrival", Opaque(), 3),
            ("tick",),
            ("cap", None, 1380.0, 7),
            ("arrival", Opaque(), 4),
            ("brake_on", 2),
        ]
        for payload in payloads:
            queue.push(80.0, payload)
        # Interleave a pop with further equal-time pushes: heap sift-up
        # and sift-down paths both hit the tie comparison.
        assert queue.pop() == (80.0, payloads[0])
        queue.push(80.0, ("obs", Opaque()))
        popped = [queue.pop()[1] for _ in range(len(queue))]
        assert popped[:4] == payloads[1:]
        assert popped[4][0] == "obs"

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(1.0, "x")
        assert queue.peek_time() == 1.0
        assert len(queue) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestSafety:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_scheduling_into_past_rejected(self):
        queue = EventQueue()
        queue.push(10.0, "late")
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(5.0, "too-late")

    def test_scheduling_at_current_time_allowed(self):
        queue = EventQueue()
        queue.push(10.0, "a")
        queue.pop()
        queue.push(10.0, "b")  # same instant is fine
        assert queue.pop() == (10.0, "b")

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, "x")
        assert queue and len(queue) == 1


def static_queue(entries):
    """A sealed queue whose static schedule holds ``entries``."""
    queue = EventQueue()
    queue.extend_static(
        [time for time, _ in entries], [payload for _, payload in entries]
    )
    queue.seal()
    return queue


class TestStaticSchedule:
    """The presorted static part merges with the dynamic heap exactly
    as one heap over the same pushes would pop."""

    @settings(max_examples=60, deadline=None)
    @given(
        static=st.lists(st.integers(0, 6), max_size=12),
        dynamic=st.lists(
            st.tuples(st.integers(0, 6), st.booleans()), max_size=12
        ),
    )
    def test_pops_like_one_heap(self, static, dynamic):
        # Coarse integer times force equal-time ties between the two
        # parts. Each dynamic entry is pushed either up front or right
        # after a pop, never into the past.
        queue = static_queue([(float(t), ("s", i)) for i, t in
                              enumerate(static)])
        reference = []
        for i, t in enumerate(static):
            heapq.heappush(reference, (float(t), i, ("s", i)))
        sequence = len(static)

        def push_both(time, payload):
            nonlocal sequence
            queue.push(time, payload)
            heapq.heappush(reference, (time, sequence, payload))
            sequence += 1

        deferred = []
        for j, (t, up_front) in enumerate(dynamic):
            if up_front:
                push_both(float(t), ("d", j))
            else:
                deferred.append((t, ("d", j)))
        popped, expected = [], []
        while reference:
            assert len(queue) == len(reference)
            assert queue.peek_time() == reference[0][0]
            time, payload = queue.pop()
            popped.append((time, payload))
            entry = heapq.heappop(reference)
            expected.append((entry[0], entry[2]))
            if deferred:
                offset, late = deferred.pop(0)
                push_both(time + offset, late)
        assert popped == expected
        assert not queue and len(queue) == 0
        assert queue.peek_time() is None

    def test_equal_time_static_entries_pop_before_later_pushes(self):
        queue = static_queue([(5.0, "static-a"), (5.0, "static-b")])
        queue.push(5.0, "dynamic")
        assert [queue.pop()[1] for _ in range(3)] == [
            "static-a", "static-b", "dynamic",
        ]

    def test_seal_sorts_by_time_then_insertion(self):
        queue = static_queue([(3.0, "c"), (1.0, "a"), (3.0, "d"),
                              (2.0, "b")])
        assert [queue.pop()[1] for _ in range(4)] == ["a", "b", "c", "d"]

    def test_push_into_the_past_raises_after_a_static_pop(self):
        queue = static_queue([(10.0, "static")])
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(5.0, "too-late")
        queue.push(10.0, "now")
        assert queue.pop() == (10.0, "now")

    def test_len_bool_and_peek_span_both_parts(self):
        queue = static_queue([(2.0, "s")])
        assert queue and len(queue) == 1 and queue.n_static == 1
        queue.push(1.0, "d")
        assert len(queue) == 2 and queue.peek_time() == 1.0
        assert queue.pop() == (1.0, "d")
        assert len(queue) == 1 and queue.peek_time() == 2.0
        assert queue.pop() == (2.0, "s")
        assert not queue and len(queue) == 0
        assert queue.n_static == 1
        with pytest.raises(SimulationError):
            queue.pop()

    def test_resume_from_a_snapshot_with_static_entries_pending(self):
        entries = [(float(t), ("s", t)) for t in range(6)]
        template = static_queue(entries)
        live = static_queue(entries)
        live.pop()
        live.push(2.5, "dynamic")
        live.pop()
        snapshot = live.snapshot()
        resumed = EventQueue.resume(template, snapshot)
        assert len(resumed) == len(live) == 5
        rest = [live.pop() for _ in range(5)]
        assert [resumed.pop() for _ in range(5)] == rest
        assert rest[1] == (2.5, "dynamic")
        with pytest.raises(SimulationError):
            resumed.push(1.0, "past")
        # The template's schedule is shared, never consumed.
        assert len(template) == 6
        assert [template.pop()[1] for _ in range(6)] == \
            [payload for _, payload in entries]


class TestCoreRestoreWithPendingStatic:
    def test_restored_core_matches_the_straight_run(self):
        from repro.cluster.core import SimulationCore
        from repro.cluster.simulator import ClusterConfig, ClusterSimulator
        from repro.core.policy import DualThresholdPolicy

        from .test_obs import assert_results_bit_identical, make_requests

        config = ClusterConfig(n_base_servers=8, added_fraction=0.25)
        requests = make_requests(4.0, 240.0, seed=3)
        straight = ClusterSimulator(config, DualThresholdPolicy()).run(
            requests, 240.0
        )
        blobs = []
        core = ClusterSimulator(config, DualThresholdPolicy()).start(
            requests, 240.0
        )
        core.run_all(100.0, lambda when, c: blobs.append((
            c.checkpoint(), len(c.queue),
            c.queue.n_static - c.queue._cursor, c.policy.level,
        )))
        blob, pending, static_pending, level = blobs[0]
        assert static_pending > 0
        # The restored core runs under the template's freshly reset
        # policy, which matches the run's only while it is uncapped.
        assert level == 0
        template = ClusterSimulator(config, DualThresholdPolicy()).start(
            requests, 240.0
        )
        restored = SimulationCore.restore(blob, template, core.series())
        assert len(restored.queue) == pending
        assert len(template.queue) == template.n_static
        restored.run_all()
        assert_results_bit_identical(restored.finalize(), straight)
