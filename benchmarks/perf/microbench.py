"""Engine micro-benchmarks: events/sec through the hot paths.

Each benchmark builds a fresh :class:`~repro.sim.Environment`, drives a
synthetic event pattern that isolates one engine hot path, and reports
a rate (operations per second, best of ``repeats`` runs).  The patterns
mirror what real workloads do millions of times per experiment:

* ``timeout_trampoline`` — the process/timeout round-trip that
  dominates every device-service loop.
* ``process_spawn`` — Process bootstrap cost (one per client request,
  per queue runner, per RPC).
* ``event_chain`` — event succeed + single-callback dispatch, the
  common case the run loop fast-paths.
* ``queue_snapshot`` — the audit/debug heap inspection with ``limit``
  (must not sort the whole heap).
* ``condition_race`` — ``any_of`` racing an event that never fires
  against a short timeout (the CFQ-idle and retry-deadline shape).

Every row also records ``gc0_collections``: the cyclic collector's
generation-0 passes during the best run.  Objects the engine frees by
reference count never reach the collector, so a reference cycle that
comes back shows up here before it shows up in ``ops_per_s``.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict

from repro.sim import Environment


def _gc0_collections() -> int:
    return gc.get_stats()[0]["collections"]


def _rate(op_count: int, fn: Callable[[], None], repeats: int = 3) -> Dict[str, Any]:
    """Best-of-``repeats`` wall time for ``fn``; returns ops/sec and the
    generation-0 collector passes of the best run."""
    best = float("inf")
    best_gc0 = 0
    for _ in range(repeats):
        gc0 = _gc0_collections()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, best_gc0 = elapsed, _gc0_collections() - gc0
    return {"ops": op_count, "seconds": best, "ops_per_s": op_count / best,
            "gc0_collections": best_gc0}


def bench_timeout_trampoline(nprocs: int = 100, iters: int = 2000,
                             repeats: int = 3) -> Dict[str, Any]:
    """N processes each yielding ``iters`` timeouts — the core loop."""
    def run() -> None:
        env = Environment()

        def worker(env: Environment) -> Any:
            for _ in range(iters):
                yield env.timeout(0.001)

        for _ in range(nprocs):
            env.process(worker(env))
        env.run()

    return _rate(nprocs * iters, run, repeats)


def bench_process_spawn(count: int = 50_000, repeats: int = 3) -> Dict[str, Any]:
    """Spawn ``count`` trivial processes: bootstrap + first resume cost."""
    def run() -> None:
        env = Environment()

        def noop(env: Environment) -> Any:
            return
            yield  # pragma: no cover - makes noop a generator

        for _ in range(count):
            env.process(noop(env))
        env.run()

    return _rate(count, run, repeats)


def bench_event_chain(count: int = 100_000, repeats: int = 3) -> Dict[str, Any]:
    """Succeed-then-wait on ``count`` events: single-callback fast path."""
    def run() -> None:
        env = Environment()

        def chain(env: Environment) -> Any:
            for _ in range(count):
                ev = env.event()
                ev.succeed(None)
                yield ev

        env.process(chain(env))
        env.run()

    return _rate(count, run, repeats)


def bench_queue_snapshot(depth: int = 10_000, limit: int = 10,
                         calls: int = 1000, repeats: int = 3) -> Dict[str, Any]:
    """``queue_snapshot(limit)`` against a deep heap.

    Deadlines are scrambled (deterministically) so the heap's list
    order is not already sorted — pushing monotone deadlines leaves the
    backing list fully ordered, which lets a full ``sorted()`` degenerate
    to O(n) and makes the benchmark unrepresentative of a real stall
    dump's mixed-deadline queue.
    """
    env = Environment()
    for i in range(depth):
        env.timeout(float((i * 7919) % (depth + 7)))

    def run() -> None:
        for _ in range(calls):
            env.queue_snapshot(limit=limit)

    return _rate(calls, run, repeats)


def bench_condition_race(nprocs: int = 100, iters: int = 200,
                         repeats: int = 3) -> Dict[str, Any]:
    """N processes each racing ``iters`` never-fired events against a
    short timeout: the timeout always wins and the loser is dropped."""
    def run() -> None:
        env = Environment()

        def racer(env: Environment) -> Any:
            for _ in range(iters):
                yield env.any_of([env.event(), env.timeout(0.001)])

        for _ in range(nprocs):
            env.process(racer(env))
        env.run()

    return _rate(nprocs * iters, run, repeats)


def run_all(quick: bool = False) -> Dict[str, Dict[str, Any]]:
    """Run the micro suite; ``quick`` shrinks sizes for CI smoke runs."""
    shrink = 10 if quick else 1
    return {
        "timeout_trampoline": bench_timeout_trampoline(
            nprocs=100 // shrink or 10, iters=2000 // shrink),
        "process_spawn": bench_process_spawn(count=50_000 // shrink),
        "event_chain": bench_event_chain(count=100_000 // shrink),
        "queue_snapshot": bench_queue_snapshot(
            depth=10_000 // shrink, calls=1000 // shrink),
        "condition_race": bench_condition_race(
            nprocs=100 // shrink, iters=200 // shrink),
    }
