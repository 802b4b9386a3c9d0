"""Property-based tests of iBridge cache-accounting invariants.

Drives a real DataServer with random sequences of reads and writes of
random sizes/offsets/flags, then checks the invariants the manager must
preserve no matter what:

* partition byte accounting equals the mapping table's contents,
* every cached entry's log extent is live, with correct sizes,
* cached ranges never overlap,
* per-class usage never exceeds the partition capacity (after drain),
* after drain, no dirty data remains and the disk holds everything.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core.manager import TABLE_ENTRY_BYTES
from repro.core.mapping import CacheKind
from repro.devices import HardDisk, Op, profile_device
from repro.pfs.messages import SubRequest
from repro.pfs.server import DataServer
from repro.sim import Environment
from repro.units import KiB, MiB

_PROFILE = None


def get_profile(cfg):
    global _PROFILE
    if _PROFILE is None:
        _PROFILE = profile_device(HardDisk(cfg.hdd))
    return _PROFILE


op_strategy = st.tuples(
    st.booleans(),                      # is_write
    st.integers(0, 63),                 # offset slot (4 KiB units)
    st.sampled_from([1, 2, 3, 4, 6, 8, 15]),  # size in 4 KiB units
    st.sampled_from(["none", "random", "fragment"]),
    st.integers(0, 7),                  # rank
)


def check_invariants(server):
    ib = server.ibridge
    entries = ib.mapping.entries

    # 1. Partition accounting matches the mapping table exactly.
    by_kind = {CacheKind.RANDOM: 0, CacheKind.FRAGMENT: 0}
    for e in entries:
        by_kind[e.kind] += e.nbytes
    assert ib.partition.used(CacheKind.RANDOM) == by_kind[CacheKind.RANDOM]
    assert ib.partition.used(CacheKind.FRAGMENT) == by_kind[CacheKind.FRAGMENT]

    # 2. Every entry's log extent is live, sized exactly data + the
    # persisted mapping-table entry — both admission paths (redirected
    # writes and read-miss fills) must charge the log identically.
    log = ib._log
    for e in entries:
        assert e.ssd_lbn in log._extents
        _seg, size = log._extents[e.ssd_lbn]
        assert size == e.nbytes + TABLE_ENTRY_BYTES

    # 3. Cached ranges never overlap (per handle).
    seen = {}
    for e in entries:
        ranges = seen.setdefault(e.handle, [])
        for s, t in ranges:
            assert e.end <= s or e.start >= t, "overlapping cache entries"
        ranges.append((e.start, e.end))

    # 4. Log live accounting is the sum of segment accounting.
    assert log.live_bytes == sum(seg.live_bytes for seg in log.segments)
    assert all(seg.live_bytes >= 0 for seg in log.segments)
    assert all(seg.live_bytes <= seg.write_cursor for seg in log.segments)


@settings(max_examples=25, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=40))
def test_random_ops_preserve_invariants(ops):
    env = Environment()
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        ssd_partition=256 * KiB)
    server = DataServer(env, 0, cfg, get_profile(cfg))
    server.disk_store.preallocate(1, 4 * MiB)  # backing data for reads

    for is_write, slot, units, flag, rank in ops:
        sub = SubRequest(
            parent_id=1, op=Op.WRITE if is_write else Op.READ, handle=1,
            server=0, local_offset=slot * 4 * KiB, nbytes=units * 4 * KiB,
            rank=rank,
            is_fragment=(flag == "fragment"),
            is_random=(flag == "random"),
            sibling_servers=(1,) if flag == "fragment" else (),
        )
        done = server.submit(sub)
        env.run(until=done)
        check_invariants(server)

    # Drain: writeback completes, nothing dirty remains, usage bounded.
    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)
    check_invariants(server)
    ib = server.ibridge
    assert ib.mapping.dirty_bytes == 0
    assert ib.partition.used() <= ib.partition.capacity


@settings(max_examples=10, deadline=None)
@given(st.lists(op_strategy, min_size=5, max_size=30), st.integers(0, 3))
def test_determinism_across_runs(ops, seed_salt):
    """Identical op sequences produce identical simulated timings."""
    def run_once():
        env = Environment()
        cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
            ssd_partition=256 * KiB)
        server = DataServer(env, 0, cfg, get_profile(cfg))
        server.disk_store.preallocate(1, 4 * MiB)
        for is_write, slot, units, flag, rank in ops:
            sub = SubRequest(
                parent_id=1, op=Op.WRITE if is_write else Op.READ, handle=1,
                server=0, local_offset=slot * 4 * KiB,
                nbytes=units * 4 * KiB, rank=rank,
                is_fragment=(flag == "fragment"),
                is_random=(flag == "random"),
                sibling_servers=(1,) if flag == "fragment" else (),
            )
            done = server.submit(sub)
            env.run(until=done)
        return env.now, server.hdd.stats.busy_time, server.ssd.stats.busy_time

    assert run_once() == run_once()


step_strategy = st.one_of(
    st.tuples(st.just("write"), op_strategy),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("drop"), st.integers(0, 63)),
    st.tuples(st.just("idle"), st.sampled_from([0.001, 0.01, 0.1])),
)


def recount_dirty(ib):
    return sum(e.nbytes for e in ib.mapping.entries if e.dirty)


@settings(max_examples=25, deadline=None)
@given(st.lists(step_strategy, min_size=1, max_size=40))
def test_dirty_counter_matches_recount(steps):
    """The mapping table's O(1) dirty-byte counter equals an O(n)
    recount after every write, writeback pass, drop and idle period."""
    env = Environment()
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        ssd_partition=256 * KiB)
    server = DataServer(env, 0, cfg, get_profile(cfg))
    server.disk_store.preallocate(1, 4 * MiB)
    ib = server.ibridge

    for kind, arg in steps:
        if kind == "write":
            _is_write, slot, units, flag, rank = arg
            sub = SubRequest(
                parent_id=1, op=Op.WRITE, handle=1, server=0,
                local_offset=slot * 4 * KiB, nbytes=units * 4 * KiB,
                rank=rank, is_fragment=(flag == "fragment"),
                is_random=(flag == "random"),
                sibling_servers=(1,) if flag == "fragment" else (),
            )
            env.run(until=server.submit(sub))
        elif kind == "flush":
            proc = env.process(ib._flush_some(ib.mapping.dirty_entries()),
                               name="flush")
            env.run(until=proc)
        elif kind == "drop":
            idle = [e for e in ib.mapping.entries if not e.busy]
            if idle:
                ib._drop_entry(idle[arg % len(idle)])
        else:
            env.run(until=env.now + arg)
        assert ib.mapping.dirty_bytes == recount_dirty(ib)

    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)
    assert ib.mapping.dirty_bytes == recount_dirty(ib) == 0
