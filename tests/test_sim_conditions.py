"""Additional edge-case tests for composite events and failure handling."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_all_of_empty_fires_immediately():
    env = Environment()
    ev = env.all_of([])
    assert ev.triggered


def test_all_of_fails_fast_on_component_failure():
    env = Environment()
    good = env.timeout(5.0)
    bad = env.event()
    caught = []

    def proc(env):
        try:
            yield env.all_of([good, bad])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(proc(env))
    bad.fail(ValueError("component failed"))
    env.run()
    assert caught == [(0.0, "component failed")]


def test_any_of_failure_propagates():
    env = Environment()
    bad = env.event()
    caught = []

    def proc(env):
        try:
            yield env.any_of([env.timeout(5.0), bad])
        except KeyError:
            caught.append(env.now)

    env.process(proc(env))
    bad.fail(KeyError("x"))
    env.run()
    assert caught == [0.0]


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    t = env2.timeout(1.0)
    with pytest.raises(SimulationError):
        env1.all_of([t])


def test_all_of_with_already_processed_events():
    env = Environment()
    t1 = env.timeout(1.0, "a")
    env.run(until=2.0)
    assert t1.processed
    got = []

    def proc(env):
        result = yield env.all_of([t1, env.timeout(1.0, "b")])
        got.append(sorted(result.values()))

    env.process(proc(env))
    env.run()
    assert got == [["a", "b"]]


def test_defused_failure_does_not_escape_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("handled"))
    ev.defuse()
    env.run()  # must not raise


def test_process_return_value_via_stopiteration():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return {"answer": 42}

    result = env.run(until=env.process(inner(env)))
    assert result == {"answer": 42}


def test_nested_process_failure_propagates_to_parent():
    env = Environment()
    seen = []

    def child(env):
        yield env.timeout(1.0)
        raise OSError("disk on fire")

    def parent(env):
        try:
            yield env.process(child(env))
        except OSError as exc:
            seen.append(str(exc))

    env.process(parent(env))
    env.run()
    assert seen == ["disk on fire"]


def test_member_failing_after_condition_resolved_is_defused():
    # Two events fail at the same instant: the first fails the AllOf
    # (whose waiter handles it); the second's failure arrives after the
    # condition triggered and must be absorbed, not escape env.run().
    env = Environment()
    a, b = env.event(), env.event()
    caught = []

    def waiter(env):
        try:
            yield env.all_of([a, b])
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1.0)
        a.fail(RuntimeError("first"))
        b.fail(RuntimeError("second"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["first"]


def test_any_of_loser_failure_after_win_is_defused():
    env = Environment()
    winner, loser = env.event(), env.event()
    got = []

    def waiter(env):
        got.append((yield env.any_of([winner, loser])))

    def driver(env):
        yield env.timeout(1.0)
        winner.succeed("ok")
        yield env.timeout(1.0)
        loser.fail(RuntimeError("too late"))

    env.process(waiter(env))
    env.process(driver(env))
    env.run()  # the late failure must not raise
    assert got == [{winner: "ok"}]


def test_any_of_with_unfired_loser_leaves_no_cycle(collector_off):
    # The CFQ-idle shape: a race whose losing event is dropped without
    # ever firing.  The loser still holds the condition's callback, so
    # a triggered condition must not hold the loser.
    env = Environment()
    loser = env.event()
    race = env.any_of([loser, env.timeout(1.0, "deadline")])
    env.run()
    assert list(race.value.values()) == ["deadline"]
    del race, loser
    assert gc.collect() == 0
