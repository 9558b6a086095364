"""Unit tests for the event-calendar engine."""

import functools

import pytest

from repro.sim import (
    EarlyQuiescenceError,
    SimulationError,
    Simulator,
    Watchdog,
    WatchdogError,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_after_fires_in_order():
    sim = Simulator()
    fired = []
    sim.call_after(30.0, lambda: fired.append("c"))
    sim.call_after(10.0, lambda: fired.append("a"))
    sim.call_after(20.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.call_after(100.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [100.0]


def test_same_time_events_fifo():
    sim = Simulator()
    fired = []
    for label in range(5):
        sim.call_at(50.0, lambda l=label: fired.append(l))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_after(500.0, lambda: None)
    end = sim.run(until=200.0)
    assert end == 200.0
    assert sim.now == 200.0
    # The 500 ns event is still pending and fires on the next run.
    fired = []
    sim.call_after(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert sim.now == 500.0


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.call_at(100.0, lambda: fired.append("x"))
    sim.run(until=100.0)
    assert fired == ["x"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.call_after(10.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_after(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_after(5.0, lambda: fired.append("second"))

    sim.call_after(10.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 15.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, lambda: (fired.append(1), sim.stop()))
    sim.call_after(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, lambda: fired.append(1))
    sim.call_after(2.0, lambda: fired.append(2))
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_after(1.0, reenter)
    sim.run()
    assert len(errors) == 1


# ---------------------------------------------------------------------------
# strict_until: early calendar drain is an error, not a measurement
# ---------------------------------------------------------------------------
def test_strict_until_requires_until():
    with pytest.raises(SimulationError, match="requires until"):
        Simulator().run(strict_until=True)


def test_strict_until_raises_on_early_drain():
    sim = Simulator()
    sim.call_after(100.0, lambda: None)
    with pytest.raises(EarlyQuiescenceError) as excinfo:
        sim.run(until=1_000.0, strict_until=True)
    assert excinfo.value.now == 100.0
    assert excinfo.value.until == 1_000.0


def test_strict_until_quiet_when_events_reach_horizon():
    sim = Simulator()
    # A self-rescheduling ticker keeps the calendar alive past until.
    def tick():
        sim.call_after(50.0, tick)

    sim.call_after(0.0, tick)
    assert sim.run(until=1_000.0, strict_until=True) == 1_000.0


def test_strict_until_quiet_after_explicit_stop():
    # stop() means "the experiment ended on purpose" — not a dead
    # workload, so strict_until must not fire.
    sim = Simulator()
    sim.call_after(100.0, sim.stop)
    assert sim.run(until=1_000.0, strict_until=True) == 100.0


def test_alive_events_excludes_cancelled():
    sim = Simulator()
    kept = sim.call_after(10.0, lambda: None)
    cancelled = sim.call_after(20.0, lambda: None)
    cancelled.cancel()
    assert sim.pending_events == 2
    assert sim.alive_events == 1
    del kept


def test_pending_event_summary_names_and_overflow():
    sim = Simulator()

    def stuck_callback():
        pass

    for _ in range(3):
        sim.call_after(5.0, stuck_callback)
    lines = sim.pending_event_summary(limit=2)
    assert len(lines) == 3
    assert "stuck_callback" in lines[0]
    assert lines[-1] == "... and 1 more"


def test_pending_event_summary_names_partials():
    sim = Simulator()

    def stuck_callback(packet):
        pass

    sim.schedule_after(5.0, functools.partial(stuck_callback, "pkt"))
    (line,) = sim.pending_event_summary()
    assert line.endswith(".<locals>.stuck_callback")


# ---------------------------------------------------------------------------
# Watchdog: quiesced-but-unfinished runs raise with a pending trace
# ---------------------------------------------------------------------------
def test_watchdog_raises_on_no_progress():
    sim = Simulator()

    def spin():
        sim.call_after(1.0, spin)  # livelock: busy but going nowhere

    sim.call_after(0.0, spin)
    watchdog = Watchdog(sim, interval_ns=100.0, progress=lambda: 0)
    watchdog.arm()
    with pytest.raises(WatchdogError) as excinfo:
        sim.run(until=10_000.0)
    assert "no progress" in str(excinfo.value)
    assert any("spin" in line for line in excinfo.value.pending_trace)


def test_watchdog_message_previews_next_pending_events():
    sim = Simulator()

    def spin():
        sim.call_after(1.0, spin)

    sim.call_after(0.0, spin)
    watchdog = Watchdog(sim, interval_ns=100.0, progress=lambda: 0)
    watchdog.arm()
    with pytest.raises(WatchdogError) as excinfo:
        sim.run(until=10_000.0)
    message = str(excinfo.value)
    # The message itself names what the calendar was about to run, so a
    # bare log line is enough to start debugging a livelock: up to
    # three "t=<ns> seq=<n> <callback>" entries after "next:".
    assert "next:" in message
    preview = message.split("next:", 1)[1]
    assert "spin" in preview
    assert "t=" in preview and "seq=" in preview
    assert preview.count(";") <= 2  # at most three entries


def test_watchdog_tolerates_progress():
    sim = Simulator()
    work = []

    def produce():
        work.append(len(work))
        sim.call_after(10.0, produce)

    sim.call_after(0.0, produce)
    watchdog = Watchdog(sim, interval_ns=100.0, progress=lambda: len(work))
    watchdog.arm()
    sim.run(until=1_000.0)
    assert watchdog.checks >= 5
    assert len(work) > 50


def test_watchdog_disarms_when_run_finishes():
    sim = Simulator()
    sim.call_after(10.0, lambda: None)
    watchdog = Watchdog(sim, interval_ns=100.0, progress=lambda: 0)
    watchdog.arm()
    # The workload ends before the first check; the watchdog must see
    # an empty calendar and stand down instead of raising.
    sim.run(until=1_000.0)
    assert watchdog.checks == 1


def test_watchdog_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError, match="interval"):
        Watchdog(sim, interval_ns=0.0, progress=lambda: 0)


def test_watchdog_rearms_after_error():
    # Regression: _armed used to stay True after a WatchdogError, so a
    # second arm() was a silent no-op and the next run was unguarded.
    sim = Simulator()

    def spin():
        sim.call_after(1.0, spin)

    sim.call_after(0.0, spin)
    watchdog = Watchdog(sim, interval_ns=100.0, progress=lambda: 0)
    watchdog.arm()
    with pytest.raises(WatchdogError):
        sim.run(until=10_000.0)
    first_checks = watchdog.checks
    watchdog.arm()
    with pytest.raises(WatchdogError):
        sim.run(until=20_000.0)
    assert watchdog.checks > first_checks


# ---------------------------------------------------------------------------
# Housekeeping events: observers are invisible to alive_events
# ---------------------------------------------------------------------------
def test_housekeeping_excluded_from_alive_events():
    sim = Simulator()
    sim.call_after(10.0, lambda: None)
    sim.call_after(5.0, lambda: None, housekeeping=True)
    assert sim.pending_events == 2
    assert sim.alive_events == 1


def test_housekeeping_excluded_from_pending_summary():
    sim = Simulator()

    def workload():
        return None

    def observer():
        return None

    sim.call_after(10.0, workload)
    sim.call_after(5.0, observer, housekeeping=True)
    lines = sim.pending_event_summary()
    assert len(lines) == 1
    assert "workload" in lines[0]


def test_housekeeping_only_calendar_triggers_early_quiescence():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    # A periodic observer alone must not mask the drained workload.
    def tick():
        if sim.now < 400.0:
            sim.call_after(100.0, tick, housekeeping=True)

    sim.call_after(100.0, tick, housekeeping=True)
    with pytest.raises(EarlyQuiescenceError):
        sim.run(until=10_000.0, strict_until=True)


def test_executed_events_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_after(float(i), lambda: None)
    cancelled = sim.call_after(10.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.executed_events == 5
