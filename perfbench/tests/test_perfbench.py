"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import bench  # noqa: E402
from perfbench.cells import Cell  # noqa: E402
from perfbench.layers import METRIC_NAME, Profiler  # noqa: E402
from repro import MpiIoTest  # noqa: E402
from repro.experiments.common import base_config  # noqa: E402
from repro.sim.core import Environment  # noqa: E402
from repro.units import KiB  # noqa: E402


# ------------------------------------------------------ generator wrapper
def _echo():
    """Yields 1, then echoes what it is sent; returns the last value."""
    got = yield 1
    while got != "stop":
        got = yield ("echo", got)
    return "done"


def _outer(prof, inner):
    result = yield from prof.drive("test", inner)
    return ("outer", result)


def test_drive_passes_values_and_return_value():
    prof = Profiler()
    gen = _outer(prof, _echo())
    assert next(gen) == 1
    assert gen.send("a") == ("echo", "a")
    assert gen.send(2) == ("echo", 2)
    with pytest.raises(StopIteration) as stop:
        gen.send("stop")
    assert stop.value.value == ("outer", "done")
    assert prof.self_ns["test"] > 0
    assert prof._stack == []


def test_drive_forwards_thrown_exceptions_to_the_inner_generator():
    def catcher():
        try:
            yield "waiting"
        except KeyError as exc:
            yield ("caught", exc)

    prof = Profiler()
    gen = prof.drive("test", catcher())
    assert next(gen) == "waiting"
    exc = KeyError("x")
    kind, seen = gen.throw(exc)
    assert kind == "caught" and seen is exc


def test_drive_propagates_exceptions_unchanged():
    boom = ValueError("boom")

    def raiser():
        yield "first"
        raise boom

    prof = Profiler()
    gen = prof.drive("test", raiser())
    next(gen)
    with pytest.raises(ValueError) as info:
        next(gen)
    assert info.value is boom
    assert prof._stack == []

    # An exception the inner generator does not catch comes back as is.
    gen = prof.drive("test", _echo())
    next(gen)
    thrown = RuntimeError("thrown")
    with pytest.raises(RuntimeError) as info:
        gen.throw(thrown)
    assert info.value is thrown


def test_drive_passes_stop_iteration_of_an_empty_generator():
    def empty():
        return 7
        yield  # pragma: no cover - makes this a generator

    prof = Profiler()
    with pytest.raises(StopIteration) as stop:
        next(prof.drive("test", empty()))
    assert stop.value.value == 7


def test_drive_close_closes_the_inner_generator():
    closed = []

    def inner():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = Profiler().drive("test", inner())
    next(gen)
    gen.close()
    assert closed == [True]


def test_self_time_excludes_nested_frames():
    prof = Profiler()
    inner = prof.wrap_call("inner", "inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        return "ok"

    outer = prof.wrap_call("outer", "outer", outer_body)
    assert outer() == "ok"
    assert prof.self_ns["inner"] >= 20_000_000
    assert prof.self_ns["outer"] < prof.self_ns["inner"]
    assert prof.calls == {"inner": 1, "outer": 1}


def test_installed_restores_every_entry_point():
    before = (Environment.run, Environment.process)
    with Profiler().installed():
        assert Environment.run is not before[0]
    assert (Environment.run, Environment.process) == before


# ---------------------------------------------------------- metric names
def test_metric_name_pattern():
    for good in ("sim_req_per_s", "core.hit_ratio", "pfs.cp_client_ms",
                 "a-b.c_9"):
        assert METRIC_NAME.fullmatch(good)
    for bad in ("", "two words", "a/b", "p99%", "x:y"):
        assert not METRIC_NAME.fullmatch(bad)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def test_declared_metric_names_match_the_pattern():
    e2e, layer = _declared()
    for name in e2e + layer:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layer)) == len(e2e + layer)


# ------------------------------------------------- end to end, tiny cell
def _tiny_workload(fraction: float):
    return MpiIoTest(nprocs=4, request_size=65 * KiB,
                     file_size=4 * 4 * 65 * KiB)


TINY = Cell("tiny", lambda seed: base_config(seed=seed, ibridge=True),
            _tiny_workload, sub_seeds=1, warm_runs=1)


def test_layer_run_is_schedule_neutral_and_reports_every_metric():
    report = bench.measure_layers(TINY, seed=5)
    assert report.failures == []
    _, layer = _declared()
    assert list(report.metrics) == layer
    assert report.metrics["sim.events"][0] > 0


def test_end_to_end_run_reports_every_metric():
    report = bench.measure_end_to_end(TINY, seed=5, seconds=0.0)
    assert report.failures == []
    assert report.attempted == 2 * 16 and report.failed == 0
    e2e, _ = _declared()
    assert list(report.metrics) == e2e
