"""The coordinator's window loop against a fake in-memory driver.

No cluster is built: each fake shard is a sorted list of local event
times, some of which post a mailbox record to another shard.  That is
enough to pin the loop's contract — when a pass ends, when it cannot
progress, how the horizon-bounded settle treats late mail, and what the
budget guard and the barrier profiler see.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.parallel import _run_pass

_INF = float("inf")


class FakeShard:
    """Local events at fixed times; ``sends`` maps an event time to the
    destination shard of the record it posts.  Ranks are done once every
    event at or before ``done_after`` ran (``None``: never done)."""

    def __init__(self, shard_id, events=(), sends=None, done_after=None,
                 lookahead=1.0):
        self.shard_id = shard_id
        self.events = sorted(events)
        self.sends = dict(sends or {})
        self.done_after = done_after
        self.lookahead = lookahead
        self.ran = []          # local event times processed
        self.received = []     # arrival times of delivered mail
        self._mail = []        # arrivals scheduled but not yet run
        self._seq = 0

    def _next(self):
        return min(self.events[:1] + self._mail, default=_INF)

    def _done(self):
        return (self.done_after is not None
                and not any(t <= self.done_after for t in self.events))

    def launch(self):
        return self._next(), self._done()

    def peek(self):
        return self._next()

    def window(self, t_end, records):
        self._mail.extend(rec[2] + self.lookahead for rec in records)
        outbox = []
        ran = 0
        while self._next() < t_end:
            t = self._next()
            ran += 1
            if self._mail and t == min(self._mail):
                self._mail.remove(t)
                self.received.append(t)
                continue
            self.events.pop(0)
            self.ran.append(t)
            if t in self.sends:
                self._seq += 1
                outbox.append(("rep", self.sends[t], t, self.shard_id,
                               self._seq, self._seq))
        busy = 100 * (self.shard_id + 1) + 7 * ran
        idle = 3 + self.shard_id
        stats = (busy, idle, ran, len(outbox), len(records))
        return outbox, self._next(), self._done(), stats


class FakeDriver:
    def __init__(self, shards):
        self.shards = shards
        self.calls = []

    def call_all(self, method, args_list=None):
        self.calls.append(method)
        return [getattr(s, method)(*(args_list[i] if args_list else ()))
                for i, s in enumerate(self.shards)]


def run(shards, lookahead=1.0, **kw):
    driver = FakeDriver(shards)
    return _run_pass(driver, len(shards), lookahead, **kw), driver


def test_pass_waits_for_every_shard_and_an_empty_mailbox():
    # Shard 1 is done from launch and shard 0 finishes in the first
    # window, but the record shard 0 posted is still in the mailbox:
    # the pass must run one more window to deliver it.
    a = FakeShard(0, events=[0.5], sends={0.5: 1}, done_after=1.0)
    b = FakeShard(1, done_after=0.0)
    assert b.launch()[1] and not a.launch()[1]
    windows, driver = run([a, b])
    assert windows == 2
    assert b.received == [1.5]
    assert driver.calls == ["launch", "window", "window"]


def test_pass_keeps_running_for_a_busy_shard():
    # Shard 0 is done immediately; shard 1's ranks need all three events.
    a = FakeShard(0, done_after=0.0)
    b = FakeShard(1, events=[0.0, 2.0, 4.0], done_after=4.0)
    windows, _ = run([a, b])
    assert b.ran == [0.0, 2.0, 4.0]
    assert windows == 3


def test_pass_raises_when_nothing_is_schedulable():
    # Shard 0's ranks never finish and nobody has an event or mail.
    a = FakeShard(0, done_after=None)
    b = FakeShard(1, done_after=0.0)
    with pytest.raises(SimulationError, match="cannot progress"):
        run([a, b])


def test_settle_stops_at_until_but_delivers_late_mail():
    # The record departs at 0.95 and arrives at 1.05, past the horizon;
    # it is still delivered, but shard 0's event at 5.0 never runs.
    a = FakeShard(0, events=[0.95, 5.0], sends={0.95: 1}, lookahead=0.1)
    b = FakeShard(1, lookahead=0.1)
    windows, driver = run([a, b], lookahead=0.1, until=1.0)
    assert b.received == [pytest.approx(1.05)]
    assert a.ran == [0.95]
    assert windows == 2
    assert driver.calls == ["peek", "window", "window"]


def test_settle_with_nothing_before_until_runs_no_window():
    a = FakeShard(0, events=[5.0])
    b = FakeShard(1)
    windows, driver = run([a, b], until=1.0)
    assert windows == 0 and driver.calls == ["peek"]


def test_guard_sees_each_window_end_and_summed_events():
    a = FakeShard(0, events=[0.0, 0.5, 3.0], sends={0.5: 1},
                  done_after=3.0)
    b = FakeShard(1, events=[0.2], done_after=0.2)
    seen = []
    profile = []
    windows, _ = run([a, b], guard=lambda t, n: seen.append((t, n)),
                     profile=profile)
    assert len(seen) == windows == len(profile)
    assert [t for t, _ in seen] == [w["t_end"] for w in profile]
    assert [n for _, n in seen] == [sum(w["events"]) for w in profile]
    assert sum(n for _, n in seen) == 5   # 4 local events + 1 delivery


def test_profile_records_keep_the_barrier_identity():
    a = FakeShard(0, events=[0.0, 0.1, 0.2, 2.5], sends={0.2: 1},
                  done_after=2.5)
    b = FakeShard(1, events=[0.0, 3.0], sends={0.0: 0}, done_after=3.0)
    profile = []
    windows, _ = run([a, b], profile=profile)
    assert windows == len(profile) > 1
    for w in profile:
        work = [bz + i for bz, i in zip(w["busy_ns"], w["idle_ns"])]
        assert w["wall_ns"] == max(work)
        assert w["wait_ns"][w["gating"]] == 0
        for k in range(2):
            assert (w["busy_ns"][k] + w["idle_ns"][k] + w["wait_ns"][k]
                    == w["wall_ns"])
        assert w["width"] > 0
