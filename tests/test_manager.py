"""Integration tests for the iBridge server-side manager.

Driven through a real DataServer (devices, queues, local stores) with
hand-built sub-requests, so these cover the full redirect / cache /
coherence / writeback machinery.
"""

from repro.config import ClusterConfig, ReturnPolicy
from repro.core.mapping import CacheKind
from repro.core.service_model import TReport
from repro.devices import HardDisk, Op, profile_device
from repro.pfs.messages import SubRequest
from repro.pfs.server import DataServer
from repro.sim import Environment
from repro.units import KiB, MiB


def make_server(env=None, **ib_overrides):
    env = env or Environment()
    ib_overrides.setdefault("ssd_partition", 4 * MiB)
    cfg = ClusterConfig(num_servers=2, client_jitter=0.0).with_ibridge(
        **ib_overrides)
    profile = profile_device(HardDisk(cfg.hdd))
    server = DataServer(env, 0, cfg, profile)
    return env, server


def sub(op=Op.WRITE, offset=0, size=4 * KiB, fragment=False, random=False,
        siblings=(), rank=0, handle=1):
    return SubRequest(parent_id=1, op=op, handle=handle, server=0,
                      local_offset=offset, nbytes=size, rank=rank,
                      is_fragment=fragment, is_random=random,
                      sibling_servers=tuple(siblings))


def serve(env, server, s):
    done = server.submit(s)
    env.run(until=done)
    return done.value


def drain(env, server):
    proc = env.process(server.drain(), name="drain")
    env.run(until=proc)


def test_small_random_write_redirected_to_ssd():
    env, server = make_server()
    serve(env, server, sub(random=True))
    st = server.ibridge.stats
    assert st.ssd_redirected_writes == 1
    assert server.ssd.stats.writes == 1
    assert server.hdd.stats.writes == 0
    assert server.ibridge.mapping.dirty_bytes == 4 * KiB


def test_large_write_goes_to_disk():
    env, server = make_server()
    serve(env, server, sub(size=64 * KiB))
    assert server.hdd.stats.writes >= 1
    assert server.ibridge.stats.ssd_redirected_writes == 0


def test_fragment_write_redirected():
    env, server = make_server()
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    assert server.ibridge.stats.ssd_redirected_writes == 1
    assert server.ibridge.stats.fragments_seen == 1


def test_threshold_gates_classification():
    env, server = make_server(fragment_threshold=1 * KiB)
    serve(env, server, sub(size=2 * KiB, fragment=True, siblings=(1,)))
    # 2 KiB >= 1 KiB threshold: not a candidate, goes to disk.
    assert server.ibridge.stats.ssd_redirected_writes == 0
    assert server.hdd.stats.writes >= 1


def test_read_hit_served_from_ssd():
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, random=True))
    before = server.hdd.stats.reads
    serve(env, server, sub(op=Op.READ, random=True))
    assert server.hdd.stats.reads == before  # no disk read
    assert server.ibridge.stats.ssd_read_hits == 1


def test_read_miss_served_from_disk_then_admitted_when_idle():
    env, server = make_server()
    # Preallocate backing data so the read is legal.
    server.disk_store.preallocate(1, 1 * MiB)
    serve(env, server, sub(op=Op.READ, random=True))
    assert server.ibridge.stats.bytes_from_disk == 4 * KiB
    # Let the fill daemon run during idle time.
    env.run(until=env.now + 1.0)
    assert server.ibridge.stats.fill_bytes == 4 * KiB
    # A re-read now hits the SSD cache (the rerun scenario).
    before = server.hdd.stats.reads
    serve(env, server, sub(op=Op.READ, random=True))
    assert server.hdd.stats.reads == before


def test_admit_reads_disabled():
    env, server = make_server(admit_reads=False)
    server.disk_store.preallocate(1, 1 * MiB)
    serve(env, server, sub(op=Op.READ, random=True))
    env.run(until=env.now + 1.0)
    assert server.ibridge.stats.fill_bytes == 0


def test_dirty_data_flushed_on_drain():
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, random=True))
    assert server.ibridge.mapping.dirty_bytes > 0
    drain(env, server)
    assert server.ibridge.mapping.dirty_bytes == 0
    assert server.hdd.stats.writes >= 1  # the writeback reached the disk
    assert server.ibridge.stats.writeback_bytes == 4 * KiB


def test_ssd_fail_forfeit_leaves_no_dirty_bytes():
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, random=True))
    serve(env, server, sub(op=Op.WRITE, offset=64 * KiB, size=8 * KiB,
                           random=True))
    mgr = server.ibridge
    assert mgr.mapping.dirty_bytes == 12 * KiB
    proc = env.process(mgr.ssd_fail(policy="forfeit"), name="fail")
    env.run(until=proc)
    assert mgr.mapping.dirty_bytes == 0
    assert len(mgr.mapping) == 0
    assert mgr.stats.forfeited_bytes == 12 * KiB


def test_disk_read_sees_latest_ssd_data():
    """Coherence: dirty SSD data must serve reads that overlap it."""
    env, server = make_server()
    server.disk_store.preallocate(1, 1 * MiB)
    serve(env, server, sub(op=Op.WRITE, offset=8 * KiB, size=4 * KiB,
                           random=True))
    disk_reads_before = server.hdd.stats.bytes_read
    # A large read overlapping the dirty extent: the dirty piece must
    # come from the SSD, the rest from the disk.
    serve(env, server, sub(op=Op.READ, offset=0, size=64 * KiB))
    assert server.ssd.stats.bytes_read >= 4 * KiB
    assert (server.hdd.stats.bytes_read - disk_reads_before) == 60 * KiB


def test_large_disk_write_invalidates_and_preserves_dirty_tail():
    """A disk write overlapping a dirty entry flushes the uncovered
    part first, so no newer bytes are lost."""
    env, server = make_server()
    serve(env, server, sub(op=Op.WRITE, offset=0, size=8 * KiB, random=True))
    assert server.ibridge.mapping.dirty_bytes == 8 * KiB
    # Overwrite only the first half with a large (disk-bound) write.
    serve(env, server, sub(op=Op.WRITE, offset=0, size=4 * KiB))
    # The entry is gone; its uncovered tail got flushed beforehand.
    assert server.ibridge.mapping.dirty_bytes == 0
    assert server.ibridge.stats.writeback_bytes == 8 * KiB


def test_eviction_under_capacity_pressure():
    env, server = make_server(ssd_partition=64 * KiB,
                              dynamic_partition=False,
                              static_split=(0.0, 1.0))
    # 16 KiB class capacity is the whole 64 KiB for fragments; write
    # five 16 KiB fragments: the first must eventually be evicted.
    for i in range(5):
        serve(env, server, sub(op=Op.WRITE, offset=i * 16 * KiB,
                               size=16 * KiB, fragment=True, siblings=(1,)))
    used = server.ibridge.partition.used(CacheKind.FRAGMENT)
    assert used <= 64 * KiB
    assert server.ibridge.stats.writeback_bytes >= 16 * KiB


def test_zero_partition_disables_redirection():
    env, server = make_server(ssd_partition=0)
    serve(env, server, sub(op=Op.WRITE, random=True))
    assert server.ibridge.stats.ssd_redirected_writes == 0
    assert server.hdd.stats.writes >= 1


def test_paper_return_policy_rarely_redirects():
    """The literal Eq. 1 policy: per-request averages make small
    requests look cheap, so nothing gets redirected (DESIGN.md §5)."""
    env, server = make_server(return_policy=ReturnPolicy.PAPER)
    for i in range(8):
        serve(env, server, sub(op=Op.WRITE, offset=i * 64 * KiB,
                               size=64 * KiB))  # large writes raise T a bit
    for i in range(4):
        serve(env, server, sub(op=Op.WRITE, offset=(100 + i) * 16 * KiB,
                               size=4 * KiB, random=True))
    assert server.ibridge.stats.ssd_redirected_writes <= 1


def test_sibling_term_uses_broadcast_table():
    env, server = make_server()
    # The sibling's broadcast T is tiny, so this server's live T gates
    # the striped request and the fragment's return gains the
    # (T - T_sibling_max) * n boost.
    t_sibling = 1e-4
    server.ibridge.t_table.update(TReport(server=1, t_value=t_sibling,
                                          time=0.0))
    t_live = server.ibridge.model.t_value
    assert t_live > t_sibling
    serve(env, server, sub(op=Op.WRITE, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    [entry] = server.ibridge.mapping.entries
    # base > 0 is required for redirection, so ret exceeds the boost.
    assert entry.ret > t_live - t_sibling


def test_sibling_term_ignores_stale_self_report():
    """A stale broadcast entry for *this* server must not shadow the
    live T: the boost compares live T against the other servers only."""
    env, server = make_server()
    t_sibling = 1e-4
    # Absurdly high stale self-report; the buggy Eq. 3 would have used
    # it as T^max and inflated the boost to ~1 s.
    server.ibridge.t_table.update(TReport(server=0, t_value=1.0, time=0.0))
    server.ibridge.t_table.update(TReport(server=1, t_value=t_sibling,
                                          time=0.0))
    serve(env, server, sub(op=Op.WRITE, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    [entry] = server.ibridge.mapping.entries
    assert entry.ret < 0.5


def test_sibling_term_suppressed_when_sibling_slower():
    """When a sibling's disk is slower, that disk gates the parent
    request and this server's fragment gets no magnification."""
    env, server = make_server()
    server.ibridge.t_table.update(TReport(server=1, t_value=10.0, time=0.0))
    serve(env, server, sub(op=Op.WRITE, size=2 * KiB, fragment=True,
                           siblings=(1,)))
    entries = list(server.ibridge.mapping.entries)
    if entries:  # redirected on base return alone
        assert entries[0].ret < 1e-2


def test_log_cleaner_races_foreground_drops():
    """Regression: the cleaner yields on each extent's copy read and copy
    write while foreground writes keep dropping entries.  A drop during
    the read used to make ``relocate`` raise on an unknown extent; one
    during the write invalidated the stale pre-relocation LBN.  A BTIO
    cell on a 256 KiB partition hits both windows."""
    from repro.experiments.common import base_config, scaled_ibridge
    from repro.experiments.fig9 import make_btio
    from repro.pfs.cluster import Cluster
    from repro.workloads import run_workload

    cfg = scaled_ibridge(base_config(seed=20130520), 0.0006,
                         ssd_partition=256 * KiB).with_ftl()
    result = run_workload(Cluster(cfg), make_btio(64, 0.0006, steps=10))
    assert result.requests
    assert all(r.complete_time is not None for r in result.requests)


def test_log_cleaning_relocates_live_data():
    env, server = make_server(ssd_partition=64 * KiB,
                              dynamic_partition=False,
                              static_split=(0.0, 1.0))
    # Partition 64 KiB -> log region 128 KiB, 16 KiB segments.  Fill and
    # overwrite to generate garbage and force cleaning.
    for round_ in range(6):
        for i in range(3):
            serve(env, server, sub(op=Op.WRITE, offset=i * 16 * KiB,
                                   size=15 * KiB, fragment=True,
                                   siblings=(1,)))
    log = server.ibridge._log
    assert log.live_bytes <= 64 * KiB
    drain(env, server)
