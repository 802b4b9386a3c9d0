"""Tests for the partitioned-horizon parallel engine (repro.sim.parallel).

The contract under test, in order of importance:

* ``shards=1`` is **bit-identical** to the serial engine — same digest
  over every behavior-visible field of the result.
* Sharded runs are **deterministic**: a fixed ``(seed, shards)`` pair
  reproduces the same digest run over run, and the process driver
  matches the inline driver exactly.
* Sharding never loses work: every shard count completes the serial
  run's requests and moves the same bytes, and the cross-shard
  conservation ledger agrees (``xshard_conserved``).
* Fault plans compose with sharding: partitioned injectors replay the
  serial transition log (modulo shard tags), recovery telemetry merges
  at the coordinator, and client retry works across the mailbox.
* Features the protocol cannot support (barriers, collectives) fail
  loudly, not wrongly.
* The experiment-matrix cache treats the shard count as context: a
  result computed at one shard count is never replayed at another.
"""

import warnings

import pytest

from repro.config import ClusterConfig
from repro.devices.base import Op
from repro.errors import ConfigError, WorkloadError
from repro.experiments import common as exp_common
from repro.experiments.common import measure, warn_if_oversubscribed
from repro.faults import FaultPlan, fail_slow
from repro.pfs.cluster import Cluster
from repro.sim.parallel import (_merge_results, analyze_shard_profile,
                                format_shard_profile, run_digest,
                                run_sharded_workload)
from repro.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.mpi_io_test import MpiIoTest


def _cfg(**overrides) -> ClusterConfig:
    return ClusterConfig(num_servers=4, client_jitter=0.0, **overrides)


def _workload(op: Op = Op.READ) -> MpiIoTest:
    # 4 ranks on 4 client nodes: a 2-shard split owns 2 nodes each.
    return MpiIoTest(nprocs=4, request_size=65 * KiB, file_size=2 * MiB,
                     op=op)


# ------------------------------------------------------- bit-identity
def test_shards1_is_bit_identical_to_serial():
    serial = run_workload(Cluster(_cfg()), _workload())
    sharded = run_sharded_workload(_cfg(shards=1), _workload())
    assert run_digest(sharded) == run_digest(serial)


def test_sharded_runs_are_deterministic():
    cfg = _cfg(shards=2, shard_mode="inline")
    first = run_sharded_workload(cfg, _workload())
    second = run_sharded_workload(cfg, _workload())
    assert run_digest(first) == run_digest(second)
    assert first.extra["shards"] == 2.0
    assert first.extra["shard_windows"] > 0


def test_process_driver_matches_inline_driver():
    inline = run_sharded_workload(_cfg(shards=2, shard_mode="inline"),
                                  _workload())
    proc = run_sharded_workload(_cfg(shards=2, shard_mode="process"),
                                _workload())
    assert run_digest(proc) == run_digest(inline)


def test_inline_sharded_run_leaves_serial_engine_bit_identical():
    # The inline driver swaps the module-global request-id counter per
    # shard call; a serial run after a sharded one must not notice.
    before = run_workload(Cluster(_cfg()), _workload())
    run_sharded_workload(_cfg(shards=2, shard_mode="inline"), _workload())
    after = run_workload(Cluster(_cfg()), _workload())
    assert run_digest(after) == run_digest(before)


# ------------------------------------------------------- conservation
@pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
def test_sharded_run_completes_the_serial_requests(op):
    serial = run_workload(Cluster(_cfg()), _workload(op))
    sharded = run_sharded_workload(_cfg(shards=2), _workload(op))
    assert len(sharded.requests) == len(serial.requests)
    assert (sum(r.nbytes for r in sharded.requests)
            == sum(r.nbytes for r in serial.requests))
    # Same request population, keyed by identity (ids are per-shard).
    def key(r):
        return (r.rank, r.offset, r.nbytes, r.op)
    assert sorted(map(key, sharded.requests)) == \
        sorted(map(key, serial.requests))
    assert all(r.complete_time is not None for r in sharded.requests)
    assert sharded.extra["xshard_conserved"] == 1.0


def test_sharded_strict_audit_passes():
    cfg = _cfg(shards=2).with_audit()
    result = run_sharded_workload(cfg, _workload(Op.WRITE))
    assert result.audit_verdict["ok"]
    # ``checks`` lists only checks that *violated* (serial semantics);
    # a clean run records conservation in extra instead.
    assert "xshard-conservation" not in result.audit_verdict["checks"]
    assert result.extra["xshard_conserved"] == 1.0


def test_sharded_ibridge_with_warm_pass_runs_clean():
    cfg = _cfg(shards=2).with_ibridge(ssd_partition=8 * MiB).with_audit()
    first = run_sharded_workload(cfg, _workload(), warm_runs=1)
    second = run_sharded_workload(cfg, _workload(), warm_runs=1)
    assert first.audit_verdict["ok"]
    assert run_digest(first) == run_digest(second)
    assert 0.0 <= first.ssd_fraction <= 1.0


# ---------------------------------------------------- barrier profiler
def test_barrier_profile_accounts_window_wall_time_exactly():
    result = run_sharded_workload(_cfg(shards=2, shard_mode="inline"),
                                  _workload())
    profile = result.extra["shard_profile"]
    assert profile["nshards"] == 2
    assert profile["lookahead"] > 0
    windows = profile["windows"]
    assert len(windows) == int(result.extra["shard_windows"])
    for w in windows:
        assert w["width"] > 0
        for field in ("busy_ns", "idle_ns", "wait_ns", "events",
                      "sent", "recv"):
            assert len(w[field]) == 2
        # The accounting identity: every shard's busy + idle + wait
        # equals the window's wall time *exactly* (integer ns, no
        # float rounding), and the gating shard is the one that
        # waited zero.
        for k in range(2):
            assert (w["busy_ns"][k] + w["idle_ns"][k] + w["wait_ns"][k]
                    == w["wall_ns"])
        assert w["wait_ns"][w["gating"]] == 0


def test_barrier_profile_analysis_names_bottleneck():
    result = run_sharded_workload(_cfg(shards=2, shard_mode="inline"),
                                  _workload())
    profile = result.extra["shard_profile"]
    a = analyze_shard_profile(profile)
    assert a["nshards"] == 2 and a["windows"] == len(profile["windows"])
    # Totals are the column sums of the window records.
    for field in ("busy_ns", "idle_ns", "wait_ns", "events"):
        for k in range(2):
            assert a[field][k] == sum(w[field][k]
                                      for w in profile["windows"])
    assert sum(a["gated_windows"]) == a["windows"]
    assert a["bottleneck"] in (0, 1)
    assert 0.0 < a["efficiency"] <= 1.0
    table = format_shard_profile(profile)
    assert "parallel efficiency" in table
    assert f"bottleneck: shard {a['bottleneck']}" in table


def test_barrier_profile_is_excluded_from_run_digest():
    # The profile is host wall-clock telemetry: two identical simulated
    # runs profile differently, so the digest must not see it.
    result = run_sharded_workload(_cfg(shards=2, shard_mode="inline"),
                                  _workload())
    with_profile = run_digest(result)
    del result.extra["shard_profile"]
    assert run_digest(result) == with_profile


# ---------------------------------------------------- faults under shards
def _fault_plan() -> FaultPlan:
    # Targeted-only events (no broadcast kinds) with fixed windows, so
    # the merged transition log is comparable across shard counts.
    return FaultPlan(name="t", events=(
        fail_slow(0, 2.0, start=0.001, duration=0.01),
        fail_slow(3, 3.0, start=0.002, duration=0.01),
    ))


def test_faulted_shards1_is_bit_identical_to_serial():
    serial = run_workload(Cluster(_cfg(), fault_plan=_fault_plan()),
                          _workload())
    sharded = run_sharded_workload(_cfg(shards=1), _workload(),
                                   fault_plan=_fault_plan())
    assert run_digest(sharded) == run_digest(serial)


def test_faulted_sharded_run_is_deterministic_and_audited():
    cfg = _cfg(shards=2, shard_mode="inline").with_audit()
    first = run_sharded_workload(cfg, _workload(),
                                 fault_plan=_fault_plan())
    second = run_sharded_workload(cfg, _workload(),
                                  fault_plan=_fault_plan())
    assert run_digest(first) == run_digest(second)
    assert first.audit_verdict["ok"]
    assert first.recovery["timeouts"] == 0.0
    assert all(r.complete_time is not None for r in first.requests)


def test_injector_records_match_across_shard_counts():
    serial = run_workload(Cluster(_cfg(), fault_plan=_fault_plan()),
                          _workload())
    sharded = run_sharded_workload(_cfg(shards=2), _workload(),
                                   fault_plan=_fault_plan())

    def strip(events):
        return [{k: v for k, v in e.items() if k != "shard"}
                for e in events]

    assert strip(sharded.fault_events) == serial.fault_events
    # Every targeted event was driven by the shard owning its server.
    for e in sharded.fault_events:
        assert e["shard"] == e["event"]["server"] % 2


def test_crash_recovery_and_retry_across_the_mailbox():
    from repro.faults import server_outage
    plan = FaultPlan(name="crash", events=(
        server_outage(1, start=0.002, duration=0.01),))
    cfg = (_cfg(shards=2, shard_mode="inline")
           .with_retry(timeout=0.005, max_retries=20))
    first = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    second = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    assert run_digest(first) == run_digest(second)
    assert first.recovery["server_crashes"] == 1.0
    assert first.recovery["timeouts"] > 0
    assert first.recovery["retries"] > 0
    assert all(r.complete_time is not None for r in first.requests)


def test_net_fault_window_is_broadcast_and_deterministic():
    from repro.faults.plan import FaultEvent, FaultKind
    plan = FaultPlan(name="net", events=(
        FaultEvent(kind=FaultKind.NET_DROP, server=1, start=0.0,
                   duration=0.01, drop_prob=0.3),))
    cfg = (_cfg(shards=2, shard_mode="inline")
           .with_retry(timeout=0.005, max_retries=20))
    first = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    second = run_sharded_workload(cfg, _workload(), fault_plan=plan)
    assert run_digest(first) == run_digest(second)
    # Broadcast kind: both shards installed the window on their fabric
    # view, so the merged log carries one begin/end pair per shard.
    begins = [e for e in first.fault_events if e["phase"] == "begin"]
    assert sorted(e["shard"] for e in begins) == [0, 1]
    assert all(r.complete_time is not None for r in first.requests)


def test_process_driver_matches_inline_driver_under_faults():
    inline = run_sharded_workload(_cfg(shards=2, shard_mode="inline"),
                                  _workload(), fault_plan=_fault_plan())
    proc = run_sharded_workload(_cfg(shards=2, shard_mode="process"),
                                _workload(), fault_plan=_fault_plan())
    assert run_digest(proc) == run_digest(inline)
    assert proc.fault_events == inline.fault_events


def test_measure_threads_fault_plans_to_the_sharded_engine():
    result, cluster = measure(_cfg(shards=2), _workload(),
                              fault_plan=_fault_plan())
    assert cluster is None
    assert result.extra["shards"] == 2.0
    assert len(result.fault_events) == 4
    assert result.recovery["timeouts"] == 0.0


# ------------------------------------------------------ one result packer
def _obs_summary(shard: int, traces: int, mags) -> dict:
    """A hand-built per-cluster summary whose only telemetry is obs."""
    return {"shard": shard, "makespan": 1.0, "now": 1.0, "requests": [],
            "ibridge": None, "recovery": {"timeouts": 0.0}, "audit": None,
            "served": (0, 0), "asked": (0, 0), "fault_records": None,
            "obs": {"spans": traces, "traces": traces,
                    "mag_sum": sum(mags), "mag_count": len(mags)},
            "timeline": None}


def test_merged_mean_magnification_averages_magnified_requests():
    # Shard A: 10 traces, one multi-piece request magnified 2x; shard
    # B: 1 trace magnified 4x.  The mean over magnified requests is 3;
    # weighting shard means by trace count would give 24/11 ~ 2.18.
    profile = {"nshards": 2, "lookahead": 1e-5, "windows": []}
    merged = _merge_results(
        _cfg(shards=2), _workload(),
        [_obs_summary(0, 10, [2.0]), _obs_summary(1, 1, [4.0])], profile)
    assert merged.extra["obs_mean_magnification"] == 3.0
    assert merged.extra["obs_traces"] == 11.0
    single = _merge_results(_cfg(), _workload(),
                            [_obs_summary(0, 5, [2.0, 1.5, 1.25])])
    assert single.extra["obs_mean_magnification"] == (2.0 + 1.5 + 1.25) / 3
    assert "shards" not in single.extra


def test_serial_mean_magnification_is_the_run_report_mean():
    cluster = Cluster(_cfg().with_obs(trace=True, metrics=False))
    result = run_workload(cluster, _workload())
    mean = cluster.obs.analyze().mean_magnification
    assert mean > 1.0  # 65 KiB requests on 64 KiB stripes are magnified
    assert result.extra["obs_mean_magnification"] == mean


def test_sharded_timeline_last_keys_match_serial():
    cfg = _cfg().with_obs(timeline_dt=0.002)
    serial = run_workload(Cluster(cfg), _workload())
    sharded = run_sharded_workload(
        cfg.with_shards(2, shard_mode="inline"), _workload())

    def last_keys(result):
        return {k for k in result.extra if k.startswith("timeline_last[")}

    assert last_keys(serial)
    assert last_keys(sharded) == last_keys(serial)


# ------------------------------------------------ unsupported features
def test_barrier_workloads_are_rejected_with_shards():
    workload = MpiIoTest(nprocs=4, request_size=65 * KiB,
                         file_size=1 * MiB, use_barrier=True)
    with pytest.raises(WorkloadError):
        run_sharded_workload(_cfg(shards=2), workload)


def test_collective_workloads_are_rejected_with_shards():
    workload = MpiIoTest(nprocs=4, request_size=65 * KiB,
                         file_size=1 * MiB, collective=True)
    with pytest.raises(WorkloadError):
        run_sharded_workload(_cfg(shards=2), workload)


# ------------------------------------------------------- configuration
def test_shard_config_validation():
    with pytest.raises(ConfigError):
        _cfg(shards=0).validate()
    with pytest.raises(ConfigError):
        _cfg(shards=2, shard_mode="threads").validate()
    with pytest.raises(ConfigError):
        _cfg(shards=2, shard_lookahead=0.0).validate()
    cfg = _cfg().with_shards(4, shard_mode="inline")
    assert cfg.shards == 4 and cfg.shard_mode == "inline"


def test_measure_serial_fallback_when_cluster_needed():
    # Callers that inspect the finished cluster get the serial engine
    # (plus a one-time warning), never a silently missing cluster.
    exp_common._serial_fallback_warned = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, cluster = measure(_cfg(shards=2), _workload(),
                                  need_cluster=True)
    assert cluster is not None
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    serial = run_workload(Cluster(_cfg()), _workload())
    assert run_digest(result) == run_digest(serial)


def test_oversubscription_warns_once(monkeypatch):
    monkeypatch.setattr(exp_common, "_oversubscribed_warned", False)
    import os
    cpus = os.cpu_count() or 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert warn_if_oversubscribed(jobs=cpus, shards=2) is True
        assert warn_if_oversubscribed(jobs=cpus, shards=2) is False
    assert len(caught) == 1
    monkeypatch.setattr(exp_common, "_oversubscribed_warned", False)
    assert warn_if_oversubscribed(jobs=1, shards=1) is False


def test_cache_key_includes_shard_context(tmp_path):
    from repro.experiments.runner import cell, run_cells
    cells = [cell("tests.test_runner:_probe_cell", a=11)]
    run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    exp_common.set_default_shards(2)
    try:
        second = run_cells(cells, jobs=1, cache=True,
                           cache_dir=str(tmp_path))
        assert second.executed == 1 and second.cached == 0
        third = run_cells(cells, jobs=1, cache=True,
                          cache_dir=str(tmp_path))
        assert third.executed == 0 and third.cached == 1
    finally:
        exp_common.set_default_shards(1)
    fourth = run_cells(cells, jobs=1, cache=True, cache_dir=str(tmp_path))
    assert fourth.executed == 0 and fourth.cached == 1
