"""Unit tests for the Noop, Deadline and CFQ schedulers."""

import pytest

from repro.block import CFQScheduler, DeadlineScheduler, NoopScheduler
from repro.block.request import BlockRequest
from repro.config import SchedulerConfig
from repro.devices import Op
from repro.sim import Environment
from repro.units import KiB


def mkreq(env, op=Op.READ, lbn=0, nbytes=4 * KiB, stream=0):
    return BlockRequest(env, op, lbn, nbytes, stream=stream)


# ---------------------------------------------------------------- noop
def test_noop_fifo_order():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=100 * KiB)
    b = mkreq(env, lbn=0)
    sched.add(a)
    sched.add(b)
    d1, _ = sched.select(0.0)
    d2, _ = sched.select(0.0)
    assert d1.members == [a]
    assert d2.members == [b]


def test_noop_merges_contiguous():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=0, nbytes=4 * KiB)
    b = mkreq(env, lbn=4 * KiB, nbytes=4 * KiB)
    c = mkreq(env, lbn=8 * KiB, nbytes=4 * KiB)
    for r in (a, b, c):
        sched.add(r)
    d, _ = sched.select(0.0)
    assert d.lbn == 0 and d.nbytes == 12 * KiB
    assert len(d.members) == 3
    assert sched.empty


def test_noop_front_merge():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=8 * KiB, nbytes=4 * KiB)
    b = mkreq(env, lbn=4 * KiB, nbytes=4 * KiB)
    sched.add(a)
    sched.add(b)
    d, _ = sched.select(0.0)
    assert d.lbn == 4 * KiB and d.nbytes == 8 * KiB


def test_noop_merge_sweeps_again_after_a_merge():
    # c only becomes contiguous once b has back-merged, which takes a
    # second sweep over the queue; z front-merges in the first.
    # Members record the merge order.
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    a = mkreq(env, lbn=4 * KiB)
    c = mkreq(env, lbn=12 * KiB)
    z = mkreq(env, lbn=0)
    b = mkreq(env, lbn=8 * KiB)
    for r in (a, c, z, b):
        sched.add(r)
    d, _ = sched.select(0.0)
    assert d.members == [a, z, b, c]
    assert d.lbn == 0 and d.nbytes == 16 * KiB
    assert sched.empty


def test_noop_does_not_merge_across_ops():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    sched.add(mkreq(env, op=Op.READ, lbn=0))
    sched.add(mkreq(env, op=Op.WRITE, lbn=4 * KiB))
    d, _ = sched.select(0.0)
    assert len(d.members) == 1


def test_noop_respects_merge_limit():
    env = Environment()
    sched = NoopScheduler(SchedulerConfig(kind="noop", max_merge_bytes=8 * KiB))
    for i in range(4):
        sched.add(mkreq(env, lbn=i * 4 * KiB))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB


def test_noop_empty_select():
    sched = NoopScheduler(SchedulerConfig(kind="noop"))
    assert sched.select(0.0) == (None, None)


# ---------------------------------------------------------------- deadline
def test_deadline_sweeps_by_lbn():
    env = Environment()
    sched = DeadlineScheduler(SchedulerConfig(kind="deadline"))
    far = mkreq(env, lbn=100 * KiB)
    near = mkreq(env, lbn=10 * KiB)
    sched.add(far)
    sched.add(near)
    d1, _ = sched.select(0.0)
    assert d1.members == [near]


def test_deadline_age_bound_forces_oldest():
    env = Environment()
    sched = DeadlineScheduler(SchedulerConfig(kind="deadline"), max_age=0.1)
    old = mkreq(env, lbn=500 * KiB)
    sched.add(old)
    sched.add(mkreq(env, lbn=10 * KiB))
    d, _ = sched.select(1.0)  # old request has aged out
    assert old in d.members


def test_deadline_merges_cross_stream():
    """A global elevator reassembles interleaved streams (ablation)."""
    env = Environment()
    sched = DeadlineScheduler(SchedulerConfig(kind="deadline"))
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB


# ---------------------------------------------------------------- CFQ
def cfq(quantum=4, idle=0.0005):
    return CFQScheduler(SchedulerConfig(kind="cfq", quantum=quantum,
                                        idle_window=idle))


def test_cfq_serves_single_stream_in_lbn_order():
    env = Environment()
    sched = cfq()
    reqs = [mkreq(env, lbn=lbn, stream=1)
            for lbn in (100 * KiB, 8 * KiB, 300 * KiB)]
    for r in reqs:
        sched.add(r)
    order = []
    while not sched.empty:
        d, _ = sched.select(0.0)
        order.append(d.lbn)
    assert order == sorted(order)


def test_cfq_merges_within_stream():
    env = Environment()
    sched = cfq()
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=1))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB


def test_cfq_global_merge_across_streams_by_default():
    """Linux elevator semantics: insert-time merging is process-blind."""
    env = Environment()
    sched = cfq()
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d, _ = sched.select(0.0)
    assert d.nbytes == 8 * KiB
    assert sched.insert_merges == 1


def test_cfq_per_stream_merge_only_when_global_disabled():
    """Ablation: restricting merges to a stream isolates the paper's
    cross-process merge-failure effect."""
    env = Environment()
    sched = CFQScheduler(SchedulerConfig(kind="cfq", global_merge=False))
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d, _ = sched.select(0.0)
    assert d.nbytes == 4 * KiB


def test_cfq_no_merge_once_partner_dispatched():
    """The timing race: a late-arriving contiguous request cannot merge
    with a partner that has already been dispatched."""
    env = Environment()
    sched = cfq(idle=0.0)
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    d1, _ = sched.select(0.0)
    assert d1.nbytes == 4 * KiB
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=2))
    d2, _ = sched.select(0.0)
    assert d2.nbytes == 4 * KiB


def test_cfq_round_robin_with_quantum():
    env = Environment()
    sched = cfq(quantum=2, idle=0.0)
    for i in range(4):
        sched.add(mkreq(env, lbn=i * 100 * KiB, stream=1))
    for i in range(4):
        sched.add(mkreq(env, lbn=(10 + i) * 100 * KiB, stream=2))
    streams = []
    while not sched.empty:
        d, _ = sched.select(0.0)
        streams.append(d.members[0].stream)
    assert streams == [1, 1, 2, 2, 1, 1, 2, 2]


def test_cfq_idles_for_active_stream():
    env = Environment()
    sched = cfq(idle=0.001)
    sched.add(mkreq(env, lbn=0, stream=1))
    d, _ = sched.select(0.0)
    assert d is not None
    # Stream 1 drained; another stream waits, but CFQ idles first.
    sched.add(mkreq(env, lbn=100 * KiB, stream=2))
    d, hint = sched.select(0.0)
    assert d is None
    assert hint == pytest.approx(0.001)
    # After the window expires, stream 2 is served.
    d, _ = sched.select(0.002)
    assert d.members[0].stream == 2


def test_cfq_idle_cancelled_by_anticipated_arrival():
    env = Environment()
    sched = cfq(idle=0.001)
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.select(0.0)
    sched.add(mkreq(env, lbn=100 * KiB, stream=2))
    d, hint = sched.select(0.0)
    assert d is None  # idling for stream 1
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=1))
    d, _ = sched.select(0.0005)
    assert d is not None and d.members[0].stream == 1


def test_cfq_zero_idle_window_never_waits():
    env = Environment()
    sched = cfq(idle=0.0)
    sched.add(mkreq(env, lbn=0, stream=1))
    sched.select(0.0)
    sched.add(mkreq(env, lbn=100 * KiB, stream=2))
    d, hint = sched.select(0.0)
    assert d is not None


def test_cfq_pending_count_tracks_merges():
    env = Environment()
    sched = cfq()
    sched.add(mkreq(env, lbn=0, nbytes=4 * KiB, stream=1))
    sched.add(mkreq(env, lbn=4 * KiB, nbytes=4 * KiB, stream=1))
    assert len(sched) == 2
    sched.select(0.0)
    assert len(sched) == 0
