"""Unit tests for the discrete-event engine core."""

import gc

import pytest

from repro.block import BlockQueue, make_scheduler
from repro.config import SchedulerConfig
from repro.devices import Op, SolidStateDrive
from repro.errors import SimulationError
from repro.sim import Environment, Interrupt
from repro.units import KiB, MiB


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(0.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [1.5, 2.0]


def test_timeout_value_passed_back():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42
    assert env.now == 2.0


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_to_process():
    env = Environment()
    ev = env.event()
    caught = []

    def proc(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_raises_from_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError):
        env.run()


def test_process_exception_fails_process_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    p = env.process(proc(env))
    with pytest.raises(KeyError):
        env.run(until=p)


def test_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "b", 1.0))  # same time: creation order wins
    env.process(proc(env, "c", 0.5))
    env.run()
    assert order == ["c", "a", "b"]


def test_waiting_on_another_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        log.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [(2.0, "done")]


def test_all_of_waits_for_all():
    env = Environment()
    times = []

    def proc(env):
        t1, t2 = env.timeout(1.0, "x"), env.timeout(3.0, "y")
        result = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(result.values()) == {"x", "y"}

    env.process(proc(env))
    env.run()
    assert times == [3.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc(env):
        yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0]


def test_interrupt_wakes_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(1.0, "wake up")]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_process_catching_non_event_error_keeps_running():
    env = Environment()
    active = []

    def forgiving(env):
        try:
            yield 42
        except SimulationError:
            active.append(env.active_process)
        yield env.timeout(1)
        return "ok"

    p = env.process(forgiving(env))
    env.run()
    assert active == [p]
    assert env.now == 1.0
    assert not p.is_alive
    assert p.value == "ok"


def test_peek_and_step():
    env = Environment()
    env.timeout(2.0)
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_event_value_before_trigger_is_error():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_after_processed_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_run_until_past_time_is_error():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


# -- determinism regressions ------------------------------------------
# The engine's hot paths (inlined heap pushes, bare-slot bootstrap
# events, the run()-loop fast path) must never change the schedule: the
# heap entry layout is (time, priority, seq, event) with a monotone seq
# tie-break, and every fast path consumes seq numbers exactly like the
# straightforward implementation it replaced.

def _mixed_workload(env, log):
    """Processes, timeouts, events and interrupts with many ties."""

    def worker(env, ident):
        for step in range(4):
            yield env.timeout(0.5 * (ident % 3))
            log.append((env.now, ident, step))

    def poker(env, victim):
        yield env.timeout(1.0)
        if victim.is_alive:
            victim.interrupt("poke")

    workers = [env.process(worker(env, i)) for i in range(6)]
    env.process(poker(env, workers[0]))
    return workers


def test_schedule_snapshot_is_reproducible():
    """Same program -> identical queue snapshots, run after run."""
    snaps = []
    for _ in range(2):
        env = Environment()
        log = []

        def guarded(env, p):
            try:
                yield p
            except Interrupt:
                pass

        for p in _mixed_workload(env, log):
            env.process(guarded(env, p))
        # Snapshot mid-run: advance a few events, snapshot, finish.
        for _ in range(5):
            env.step()
        snaps.append((env.queue_snapshot(), tuple(log)))
        env.run()
        snaps.append(tuple(log))
    assert snaps[0] == snaps[2]
    assert snaps[1] == snaps[3]


def test_queue_snapshot_limit_is_a_prefix():
    """queue_snapshot(limit=k) == queue_snapshot()[:k] (nsmallest path)."""
    env = Environment()
    # Scrambled deadlines with deliberate ties: the seq tie-break must
    # order them identically through both the sorted() and nsmallest()
    # paths.
    for i in range(50):
        env.timeout(float((i * 7) % 11))
    full = env.queue_snapshot()
    assert len(full) == 50
    for k in (0, 1, 7, 50, 99):
        assert env.queue_snapshot(limit=k) == full[:k]


def test_seq_numbers_are_consumed_per_scheduling():
    """Spawn/succeed/timeout each consume exactly one seq number."""
    env = Environment()
    env.timeout(1.0)
    before = env.queue_snapshot()
    assert [s for (_, _, s, _) in before] == [1]

    def proc(env):
        yield env.timeout(2.0)

    env.process(proc(env))  # bootstrap event: seq 2
    ev = env.event()
    ev.succeed("x")  # seq 3
    after = env.queue_snapshot()
    assert [s for (_, _, s, _) in after] == [2, 3, 1]  # urgent first at t=0
    env.run()


# -- reference cycles ---------------------------------------------------
# Finished processes and completed block requests must be freed by
# reference count: anything left for the cyclic collector is paid for
# once per request on every run (docs/PERFORMANCE.md section 7).

def test_finished_process_leaves_no_cycle(collector_off):
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)
        return "done"

    p = env.process(quick(env))
    env.run()
    assert p.value == "done"
    with pytest.raises(SimulationError):
        p.interrupt()
    del p
    assert gc.collect() == 0


def test_block_request_completion_leaves_no_cycle(collector_off):
    env = Environment()
    q = BlockQueue(env, SolidStateDrive(),
                   make_scheduler(SchedulerConfig(kind="noop")))
    # Far apart, so each is its own dispatch; the runner's frame keeps
    # the last dispatch (and its request) until the next one.
    reqs = [q.submit(Op.READ, i * 10 * MiB, 64 * KiB) for i in range(4)]
    env.run()
    assert all(r.done.processed for r in reqs)
    assert q.completed == 4
    del reqs
    assert gc.collect() == 0
