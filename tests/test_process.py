"""Unit tests for periodic processes (the wait(Δ) loop)."""

import random

import pytest

from repro.sim.process import PeriodicProcess


def ticks_of(sim, period, phase, until):
    times = []
    process = PeriodicProcess(sim, period, lambda: times.append(sim.now), phase=phase)
    process.start()
    sim.run(until=until)
    return times, process


def test_ticks_on_grid(sim):
    times, _ = ticks_of(sim, period=10.0, phase=3.0, until=45.0)
    assert times == [3.0, 13.0, 23.0, 33.0, 43.0]


def test_zero_phase_first_tick_at_zero(sim):
    times, _ = ticks_of(sim, period=5.0, phase=0.0, until=11.0)
    assert times == [0.0, 5.0, 10.0]


def test_random_phase_within_period(sim):
    rng = random.Random(7)
    for _ in range(50):
        process = PeriodicProcess(sim, 10.0, lambda: None, rng=rng)
        assert 0.0 <= process.phase < 10.0


def test_phase_requires_rng_or_value(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 10.0, lambda: None)


def test_invalid_period_rejected(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 0.0, lambda: None, phase=0.0)
    with pytest.raises(ValueError):
        PeriodicProcess(sim, -5.0, lambda: None, phase=0.0)


def test_phase_out_of_range_rejected(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 10.0, lambda: None, phase=10.0)
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 10.0, lambda: None, phase=-1.0)


def test_stop_halts_ticking(sim):
    times = []
    process = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), phase=0.0)
    process.start()
    sim.schedule_at(25.0, process.stop)
    sim.run(until=100.0)
    assert times == [0.0, 10.0, 20.0]
    assert not process.running


def test_restart_resumes_on_same_grid(sim):
    times = []
    process = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), phase=2.0)
    process.start()
    sim.schedule_at(25.0, process.stop)
    sim.schedule_at(47.0, process.start)
    sim.run(until=75.0)
    # Stopped after ticks at 2, 12, 22; restart at 47 resumes at 52.
    assert times == [2.0, 12.0, 22.0, 52.0, 62.0, 72.0]


def test_double_start_raises(sim):
    process = PeriodicProcess(sim, 10.0, lambda: None, phase=0.0)
    process.start()
    with pytest.raises(RuntimeError):
        process.start()


def test_stop_is_idempotent(sim):
    process = PeriodicProcess(sim, 10.0, lambda: None, phase=0.0)
    process.start()
    process.stop()
    process.stop()


def test_start_mid_simulation_picks_next_grid_point(sim):
    times = []
    process = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), phase=4.0)
    sim.schedule_at(17.0, process.start)
    sim.run(until=40.0)
    assert times == [24.0, 34.0]


def test_ticks_fired_counter(sim):
    process = PeriodicProcess(sim, 10.0, lambda: None, phase=0.0)
    process.start()
    sim.run(until=55.0)
    assert process.ticks_fired == 6  # t = 0, 10, 20, 30, 40, 50


def test_callback_cost_does_not_drift_grid(sim):
    """Ticks stay on phase + k*period even if callbacks schedule work."""
    times = []

    def callback():
        times.append(sim.now)
        sim.schedule(3.0, lambda: None)  # unrelated event between ticks

    PeriodicProcess(sim, 10.0, callback, phase=1.0).start()
    sim.run(until=41.0)
    assert times == [1.0, 11.0, 21.0, 31.0, 41.0]


def test_stop_inside_callback(sim):
    times = []
    process = None

    def callback():
        times.append(sim.now)
        if len(times) == 2:
            process.stop()

    process = PeriodicProcess(sim, 10.0, callback, phase=0.0)
    process.start()
    sim.run(until=100.0)
    assert times == [0.0, 10.0]
    assert sim.pending == sim.live_pending == 0


def test_next_tick_time(sim):
    process = PeriodicProcess(sim, 10.0, lambda: None, phase=3.0)
    process.start()
    assert process.next_tick_time() == 3.0
    sim.run(until=3.0)
    assert process.next_tick_time() == 13.0


def test_restart_inside_own_callback_ticks_once_per_grid_point(sim):
    """Regression: ``stop(); start()`` from the callback armed the new
    handle twice — ``start()`` scheduled it and ``_fire`` then re-armed
    the same, still-queued handle — leaving a second heap entry behind."""
    times = []

    def callback():
        times.append(sim.now)
        if sim.now == 20.0:
            process.stop()
            process.start()

    process = PeriodicProcess(sim, 10.0, callback, phase=0.0)
    process.start()
    sim.run(until=25.0)
    assert sim.pending == sim.live_pending == 1
    sim.run(until=55.0)
    assert times == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert process.ticks_fired == 6
    assert sim.pending == sim.live_pending == 1

