"""Live progress: emitter throttle, bus semantics, engine heartbeats."""

import threading

from repro.obs.progress import (
    PROGRESS,
    ProgressBus,
    ProgressConfig,
    ProgressEmitter,
    ProgressPrinter,
    format_progress_event,
)

TOGGLE = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := !x;
SPEC AG EF x
SPEC EG (x | !x)
"""


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestEmitter:
    def test_disabled_by_default(self):
        emitter = ProgressEmitter()
        assert not emitter.enabled
        emitter.emit("obligation.tick")  # no sink: must not raise

    def test_first_due_passes_immediately(self):
        clock = FakeClock(100.0)
        emitter = ProgressEmitter(clock=clock)
        emitter.activate(lambda e: None, interval=0.05)
        assert emitter.due()  # activation resets the throttle

    def test_due_throttles_by_interval(self):
        clock = FakeClock()
        emitter = ProgressEmitter(clock=clock)
        emitter.activate(lambda e: None, interval=0.05)
        assert emitter.due()
        assert not emitter.due()  # same instant: gated
        clock.now += 0.01
        assert not emitter.due()  # within the interval: gated
        clock.now += 0.05
        assert emitter.due()  # past the interval: passes once
        assert not emitter.due()

    def test_zero_interval_always_due(self):
        clock = FakeClock()
        emitter = ProgressEmitter(clock=clock)
        emitter.activate(lambda e: None, interval=0.0)
        assert emitter.due() and emitter.due() and emitter.due()

    def test_tick_shape_and_field_stamping(self):
        clock = FakeClock(10.0)
        emitter = ProgressEmitter(clock=clock)
        events = []
        emitter.activate(events.append, obligation="c0.spec1", pid=7)
        clock.now = 10.5
        emitter.tick("eu", iterations=18, size=4211)
        (event,) = events
        assert event == {
            "kind": "obligation.tick",
            "obligation": "c0.spec1",
            "pid": 7,
            "phase": "eu",
            "iterations": 18,
            "size": 4211,
            "elapsed": 0.5,
        }

    def test_deactivate_stops_emission(self):
        emitter = ProgressEmitter()
        events = []
        emitter.activate(events.append)
        emitter.deactivate()
        emitter.emit("obligation.start")
        assert events == [] and not emitter.enabled
        emitter.deactivate()  # idempotent

    def test_active_context_manager_restores(self):
        emitter = ProgressEmitter()
        events = []
        with emitter.active(events.append, obligation="spec0"):
            assert emitter.enabled
            emitter.emit("obligation.start")
        assert not emitter.enabled
        assert events == [{"kind": "obligation.start", "obligation": "spec0"}]


class TestBus:
    def test_publish_stamps_seq_and_ts(self):
        bus = ProgressBus(clock=FakeClock(42.0))
        first = bus.publish({"kind": "a"})
        second = bus.publish({"kind": "b"})
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["ts"] == 42.0
        assert bus.last_seq == 2

    def test_events_since_resumes_mid_stream(self):
        bus = ProgressBus()
        for kind in "abcd":
            bus.publish({"kind": kind})
        assert [e["kind"] for e in bus.events_since(2)] == ["c", "d"]
        assert bus.events_since(4) == []

    def test_bounded_retention_drops_oldest(self):
        bus = ProgressBus(maxlen=3)
        for i in range(5):
            bus.publish({"i": i})
        retained = bus.events_since(0)
        assert [e["seq"] for e in retained] == [3, 4, 5]
        assert bus.last_seq == 5  # sequence numbers never reset

    def test_wait_returns_existing_events_immediately(self):
        bus = ProgressBus()
        bus.publish({"kind": "a"})
        assert [e["kind"] for e in bus.wait(0, timeout=0.0)] == ["a"]

    def test_wait_times_out_empty(self):
        bus = ProgressBus()
        assert bus.wait(0, timeout=0.01) == []

    def test_wait_wakes_on_publish(self):
        bus = ProgressBus()
        got = []

        def waiter():
            got.extend(bus.wait(0, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        bus.publish({"kind": "late"})
        thread.join(timeout=5.0)
        assert [e["kind"] for e in got] == ["late"]

    def test_close_wakes_waiters_for_good(self):
        bus = ProgressBus()
        done = threading.Event()

        def waiter():
            bus.wait(0, timeout=30.0)
            done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        bus.close()
        assert done.wait(5.0)
        thread.join(timeout=5.0)
        assert bus.closed
        assert bus.wait(0, timeout=0.0) == []  # closed + empty: no block

    def test_publish_after_close_is_dropped(self):
        bus = ProgressBus()
        bus.publish({"kind": "job.state", "state": "done"})
        bus.close()
        late = bus.publish({"kind": "obligation.tick", "obligation": "spec0"})
        assert "seq" not in late  # returned unstamped, not buffered
        assert bus.last_seq == 1
        assert [e["kind"] for e in bus.events_since(0)] == ["job.state"]


class TestConfig:
    def test_obligation_names_are_prefixed(self):
        config = ProgressConfig(publish=lambda e: None, prefix="c2.")
        assert config.obligation(0) == "c2.spec0"
        assert config.obligation(11) == "c2.spec11"

    def test_default_prefix_is_bare(self):
        config = ProgressConfig(publish=lambda e: None)
        assert config.obligation(3) == "spec3"


class TestRendering:
    def test_printer_computes_tick_rate(self):
        import io

        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer(
            {"kind": "obligation.tick", "obligation": "spec0",
             "phase": "eu", "iterations": 10, "size": 5, "elapsed": 1.0}
        )
        printer(
            {"kind": "obligation.tick", "obligation": "spec0",
             "phase": "eu", "iterations": 30, "size": 5, "elapsed": 2.0}
        )
        first, second = stream.getvalue().splitlines()
        assert "(" not in first  # no rate on the first tick
        assert "(20 it/s)" in second

    def test_format_covers_lifecycle_kinds(self):
        assert format_progress_event(
            {"kind": "obligation.queued", "obligation": "s", "engine": "symbolic"}
        ) == "s queued (symbolic)"
        assert format_progress_event(
            {"kind": "obligation.cache_hit", "obligation": "s"}
        ) == "s cached"
        assert "STALLED" in format_progress_event(
            {"kind": "obligation.stall", "obligation": "s",
             "idle_seconds": 1.5, "deadline": 0.5}
        )
        assert format_progress_event(
            {"kind": "job.state", "state": "running"}
        ) == "job running"


class TestEngineHeartbeats:
    """Ticks really come from inside the fixpoint loops of both engines."""

    def run_with_progress(self, engine):
        from repro.store.cached import cached_check

        events = []
        config = ProgressConfig(publish=events.append, interval=0.0)
        run = cached_check(TOGGLE, engine=engine, progress=config)
        assert run.all_true
        assert not PROGRESS.enabled  # always deactivated afterwards
        return events

    def test_symbolic_fixpoints_tick(self):
        events = self.run_with_progress("symbolic")
        kinds = [e["kind"] for e in events]
        assert kinds.count("obligation.start") == 2
        assert kinds.count("obligation.finish") == 2
        ticks = [e for e in events if e["kind"] == "obligation.tick"]
        assert ticks, "no heartbeat from inside the symbolic fixpoints"
        phases = {t["phase"] for t in ticks}
        assert phases <= {"eu", "eg", "eg_fair"} and "eu" in phases
        for tick in ticks:
            assert tick["iterations"] >= 1
            assert tick["size"] >= 1  # BDD nodes allocated
            assert tick["elapsed"] >= 0.0

    def test_explicit_fixpoints_tick(self):
        events = self.run_with_progress("explicit")
        ticks = [e for e in events if e["kind"] == "obligation.tick"]
        assert ticks, "no heartbeat from inside the explicit fixpoints"
        assert {t["phase"] for t in ticks} <= {"eu", "eg", "eg_fair"}

    def test_finish_seconds_are_the_checks_user_time(self):
        """In process, ``obligation.finish`` reports the checker's own
        measurement, the ``user_time`` of the spec's result."""
        from repro.store.cached import cached_check

        events = []
        config = ProgressConfig(publish=events.append, interval=0.0)
        run = cached_check(TOGGLE, engine="symbolic", progress=config)
        finished = {
            e["obligation"]: e["seconds"]
            for e in events
            if e["kind"] == "obligation.finish"
        }
        assert finished == {
            config.obligation(i): round(result.stats.user_time, 6)
            for i, result in enumerate(run.results)
        }

    def test_no_progress_config_emits_nothing(self):
        from repro.store.cached import cached_check

        run = cached_check(TOGGLE, engine="symbolic")
        assert run.all_true and not PROGRESS.enabled
