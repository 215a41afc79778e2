"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order(sim):
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "middle")
    assert sim.run() == 3
    assert fired == ["early", "middle", "late"]


def test_same_time_events_run_fifo(sim):
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.schedule(7.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5, 7.25]
    assert sim.now == 7.25


def test_run_until_is_inclusive(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(2.0001, fired.append, "c")
    processed = sim.run(until=2.0)
    assert processed == 2
    assert fired == ["a", "b"]
    assert sim.now == 2.0


def test_run_until_advances_clock_without_events(sim):
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_events_scheduled_during_run_are_processed(sim):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_cancel_drops_callback_references(sim):
    class Heavy:
        pass

    heavy = Heavy()
    handle = sim.schedule(1.0, lambda obj: None, heavy)
    handle.cancel()
    assert handle.args == ()


def test_stop_halts_run(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending == 1


def test_run_resumes_after_stop(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    sim.run()
    assert fired == ["a", "b"]


def test_max_events_limits_processing(sim):
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.run() == 6


def test_a_capped_run_leaves_the_clock_at_its_last_event(sim):
    """``max_events`` stops before ``until``: the clock must not jump there."""
    fired = []
    sim.schedule_at(1.0, fired.append, 1.0)
    sim.schedule_at(2.0, fired.append, 2.0)
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 1.0
    # t = 5 lies between the clock and the horizon: still schedulable
    sim.schedule_at(5.0, fired.append, 5.0)
    assert sim.run() == 2
    assert fired == [1.0, 2.0, 5.0]
    assert sim.now == 5.0


def test_a_stopped_run_leaves_the_clock_at_its_last_event(sim):
    sim.schedule_at(1.0, sim.stop)
    sim.schedule_at(2.0, lambda: None)
    assert sim.run(until=10.0) == 1
    assert sim.now == 1.0


def test_a_capped_run_that_meets_the_horizon_advances_the_clock(sim):
    """Nothing else is due before ``until``, so the cap changes nothing."""
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(20.0, lambda: None)
    sim.schedule_at(3.0, lambda: None).cancel()
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 10.0
    assert sim.run(until=15.0, max_events=0) == 0
    assert sim.now == 15.0


def test_step_processes_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_step_skips_cancelled(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    handle.cancel()
    assert sim.step() is True
    assert fired == ["b"]


def test_peek_time(sim):
    assert sim.peek_time() is None
    handle = sim.schedule(3.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    assert sim.peek_time() == 3.0
    handle.cancel()
    assert sim.peek_time() == 5.0


def test_processed_counter(sim):
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed == 5


def test_start_time_offset():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0
    with pytest.raises(SimulationError):
        sim.schedule_at(50.0, lambda: None)


def test_ties_broken_by_scheduling_order_across_times(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule_at(1.0, fired.append, 2)
    sim.schedule(0.5, lambda: sim.schedule_at(1.0, fired.append, 3))
    sim.run()
    assert fired == [1, 2, 3]


def test_pending_counts_cancelled_but_live_pending_does_not(sim):
    """Regression: ``pending`` is documented as an upper bound that
    includes lazily-cancelled events; ``live_pending`` is exact."""
    handles = [sim.schedule(float(t), lambda: None) for t in range(1, 5)]
    handles[0].cancel()
    handles[2].cancel()
    assert sim.pending == 4
    assert sim.live_pending == 2
    assert sim.run() == 2
    assert sim.pending == 0
    assert sim.live_pending == 0


def test_reschedule_reuses_handle(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "tick")
    sim.run()
    assert fired == ["tick"]
    rearmed = sim.reschedule(handle, 2.0)
    assert rearmed is handle
    assert not handle.cancelled
    sim.run()
    assert fired == ["tick", "tick"]


def test_reschedule_in_past_raises(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.reschedule(handle, 0.5)


def test_reschedule_keeps_fifo_ties_with_fresh_events(sim):
    fired = []
    recycled = sim.schedule(1.0, fired.append, "old")
    sim.run()
    fired.clear()
    sim.reschedule(recycled, 5.0)
    sim.schedule_at(5.0, fired.append, "new")
    sim.run()
    assert fired == ["old", "new"]


def test_reschedule_of_a_queued_handle_moves_it(sim):
    """Regression: re-arming a handle that is still in the heap used to
    leave two entries aliasing one object. It is a move: the event fires
    once, at the new time, behind events already scheduled there."""
    fired = []
    handle = sim.schedule(1.0, fired.append, "moved")
    sim.schedule_at(5.0, fired.append, "before")
    sim.reschedule(handle, 5.0)
    sim.schedule_at(5.0, fired.append, "after")
    assert sim.pending == 4
    assert sim.live_pending == 3
    assert sim.peek_time() == 5.0
    assert sim.run() == 3
    assert fired == ["before", "moved", "after"]
    assert sim.pending == 0


def test_reschedule_after_cancel_fires_once(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    handle.fn, handle.args = fired.append, ("x",)
    sim.reschedule(handle, 2.0)
    assert sim.live_pending == 1
    assert sim.run() == 1
    assert fired == ["x"]
    assert sim.now == 2.0


# ----------------------------------------------------------------------
# Model-based test: the engine against a sorted list
# ----------------------------------------------------------------------
#: few distinct offsets, so same-instant ties are the common case
OFFSETS = st.sampled_from([0.0, 0.25, 1.0, 1.5, 4.0])
PICK = st.integers(min_value=0, max_value=10**6)
OPERATIONS = st.one_of(
    st.tuples(st.just("schedule"), OFFSETS),
    st.tuples(st.just("schedule_at"), OFFSETS),
    st.tuples(st.just("cancel"), PICK),
    st.tuples(st.just("reschedule"), PICK, OFFSETS),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), OFFSETS),
    st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=4)),
    st.tuples(
        st.just("run_until_max"), OFFSETS, st.integers(min_value=0, max_value=4)
    ),
)


class ReferenceQueue:
    """What the engine promises, spelled as a dict and ``min``."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.processed = 0
        self.live = {}  # tag -> (time, seq)
        self.fired = []

    def arm(self, tag, time):
        self.live[tag] = (time, self.seq)
        self.seq += 1

    def fire_next(self, until=None):
        if not self.live:
            return False
        tag = min(self.live, key=self.live.get)
        time, _ = self.live[tag]
        if until is not None and time > until:
            return False
        del self.live[tag]
        self.now = time
        self.processed += 1
        self.fired.append((tag, time))
        return True

    def due(self, until):
        """Whether a live event is scheduled at or before ``until``."""
        return any(time <= until for time, _ in self.live.values())


@given(st.lists(OPERATIONS, max_size=60))
@settings(max_examples=300, deadline=None)
def test_engine_matches_a_sorted_list_reference(operations):
    sim = Simulator()
    ref = ReferenceQueue()
    fired = []
    handles = []

    def record(tag):
        fired.append((tag, sim.now))

    for name, *params in operations:
        if name in ("schedule", "schedule_at"):
            (offset,) = params
            tag = len(handles)
            if name == "schedule":
                handles.append(sim.schedule(offset, record, tag))
            else:
                handles.append(sim.schedule_at(sim.now + offset, record, tag))
            ref.arm(tag, ref.now + offset)
        elif name == "cancel" and handles:
            tag = params[0] % len(handles)
            handles[tag].cancel()
            ref.live.pop(tag, None)
        elif name == "reschedule" and handles:
            # any handle: fired, cancelled, or still queued
            tag, offset = params[0] % len(handles), params[1]
            handle = handles[tag]
            if handle.cancelled:
                handle.fn, handle.args = record, (tag,)
            assert sim.reschedule(handle, sim.now + offset) is handle
            ref.arm(tag, ref.now + offset)
        elif name == "step":
            assert sim.step() == ref.fire_next()
        elif name == "run_until":
            until = ref.now + params[0]
            count = 0
            while ref.fire_next(until):
                count += 1
            ref.now = until
            assert sim.run(until=until) == count
        elif name == "run_max":
            count = sum(ref.fire_next() for _ in range(params[0]))
            assert sim.run(max_events=params[0]) == count
        elif name == "run_until_max":
            until, cap = ref.now + params[0], params[1]
            count = 0
            while count < cap and ref.fire_next(until):
                count += 1
            if not ref.due(until):
                ref.now = until  # only the horizon moves the clock there
            assert sim.run(until=until, max_events=cap) == count

        assert fired == ref.fired
        assert sim.now == ref.now
        assert sim.processed == ref.processed
        # peek_time discards dead entries at the head: check on both sides
        assert sim.pending >= sim.live_pending == len(ref.live)
        expected_head = min(ref.live.values())[0] if ref.live else None
        assert sim.peek_time() == expected_head
        assert sim.pending >= sim.live_pending == len(ref.live)
