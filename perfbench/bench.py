"""Passes, output checks and metric assembly for ``perfbench/run.py``."""

from __future__ import annotations

import dataclasses
import gc
import heapq
import random
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import Cluster, run_workload
from repro.analysis import LatencyStats
from repro.sim.parallel import (analyze_shard_profile, run_digest,
                                run_sharded_workload)
from repro.units import MiB
from repro.workloads.base import recovery_snapshot

from .cells import Cell, expected_requests
from .layers import Profiler, diff
from .probe import PassClock

__all__ = ["measure_end_to_end", "measure_layers", "verify_audited"]

#: Relative tolerance of the check that the per-layer self times add up
#: to the traced pass's wall time.  The remainder is host time outside
#: every wrapped entry point: rank launch, the shard coordinator's
#: barrier bookkeeping, and the wrappers' own work between frames.
SELF_TIME_TOLERANCE = 0.05

#: Share of the timed workload the strict-audit verification runs (it
#: exercises the same paths under the auditor; it is not timed).
AUDIT_FRACTION = 0.5


@dataclasses.dataclass
class Report:
    metrics: Dict[str, Tuple[float, str]] = dataclasses.field(
        default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0


@dataclasses.dataclass
class Pass:
    """One simulated run of a cell at one seed."""

    seed: int
    config: object
    result: object
    clock: PassClock
    setup_s: float
    expected: int
    total_bytes: int
    cluster: Optional[Cluster]

    @property
    def wall_s(self) -> float:
        """Host seconds of the timed pass."""
        return self.clock.wall_s

    @property
    def completed(self) -> list:
        return [r for r in self.result.requests if r.latency is not None]

    def sim(self) -> Dict[str, float]:
        lats = LatencyStats.from_latencies(
            [r.latency for r in self.completed])
        return {"throughput": self.result.throughput_mib_s,
                "p50": lats.p50, "p99": lats.p99,
                "makespan": self.result.makespan, "count": lats.count}


def run_pass(cell: Cell, seed: int, fraction: float = 1.0,
             traced: bool = False, audit: bool = False,
             profiler: Optional[Profiler] = None) -> Pass:
    """Build the cell's cluster(s) at ``seed`` and run it once.

    ``traced`` turns on the program's span tracer with the metrics
    sampler off, which leaves the event schedule unchanged.

    Shards run in this process (``shard_mode="inline"``, which the
    program keeps result-identical to forked workers): the hooks that
    mark the timed pass must see them, and forked workers exchange a
    pipe round trip per barrier window whose latency on a shared
    2-vCPU host swung by 4x within an hour, swamping the engine's own
    cost.  The audited run forks real workers.
    """
    cfg = cell.make_config(seed)
    if audit:
        cfg = cfg.with_audit()
    else:
        cfg = cfg.replace(shard_mode="inline")
    if traced:
        cfg = cfg.with_obs(trace=True, metrics=False)
    wl = cell.make_workload(fraction)
    clock = PassClock(profiler)
    gc.collect()
    cluster = None
    t0 = time.perf_counter()
    with clock.installed():
        if cfg.shards == 1:
            cluster = Cluster(cfg)
            result = run_workload(cluster, wl, warm_runs=cell.warm_runs)
        else:
            result = run_sharded_workload(cfg, wl, warm_runs=cell.warm_runs)
    # Set-up is everything before the timed pass: building the
    # cluster(s), preparing files and any warm pass.
    setup_s = (clock.start_t or t0) - t0
    return Pass(seed, cfg, result, clock, setup_s,
                expected_requests(wl), wl.total_bytes, cluster)


# ------------------------------------------------------------------ checks
def check_pass(p: Pass) -> List[str]:
    """Output checks every pass must meet (no faults are injected)."""
    out = []
    tag = f"seed {p.seed}"
    done = p.completed
    if len(p.result.requests) != p.expected or len(done) != p.expected:
        out.append(f"{tag}: {len(done)} of {p.expected} requests completed "
                   f"({len(p.result.requests)} recorded)")
    payload = sum(r.nbytes for r in done)
    if payload != p.total_bytes:
        out.append(f"{tag}: payload {payload} B != workload "
                   f"{p.total_bytes} B")
    if p.cluster is not None:
        rec = recovery_snapshot(p.cluster)
        bad = {k: v for k, v in rec.items() if v}
        if bad:
            out.append(f"{tag}: recovery counters non-zero: {bad}")
    else:
        # Shard clusters live in the workers.  A sub-request can only
        # time out (and so be retried, or fail) after waiting the retry
        # timeout, so no parent request may have taken that long.
        limit = p.config.retry.timeout
        slowest = max((r.latency for r in done), default=0.0)
        if slowest >= limit:
            out.append(f"{tag}: a request took {slowest:.3f}s, past the "
                       f"{limit}s retry timeout")
        if p.result.extra.get("xshard_conserved") != 1.0:
            out.append(f"{tag}: cross-shard byte conservation failed")
    return out


def failed_requests(p: Pass) -> int:
    return p.expected - len(p.completed)


# -------------------------------------------------------------- end to end
def measure_end_to_end(cell: Cell, seed: int, seconds: float) -> Report:
    """Passes until ``seconds`` have elapsed, at least one per seed
    and one repetition.

    The first ``cell.sub_seeds`` passes run at distinct seeds and give
    the simulated metrics (median across seeds); later passes repeat
    those seeds in turn and must reproduce their run digests.  Host
    speed and set-up time are medians over every pass, each scaled to
    reference speed by the :func:`reference_s` runs around the pass.
    """
    report = Report()
    sims: List[Dict[str, float]] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    setups: List[float] = []
    digests: Dict[int, str] = {}
    totals = None
    begin = time.perf_counter()
    ref_before = reference_s()
    while (len(rates) <= cell.sub_seeds
           or time.perf_counter() - begin < seconds):
        # Only summaries outlive a pass: live clusters from earlier
        # passes would inflate memory and every later collector pause.
        p = run_pass(cell, cell.seed(seed, len(rates) % cell.sub_seeds))
        report.failures.extend(check_pass(p))
        digest = run_digest(p.result)
        if digests.setdefault(p.seed, digest) != digest:
            report.failures.append(f"seed {p.seed}: run digest changed "
                                   "between repetitions")
        report.attempted += p.expected
        report.failed += failed_requests(p)
        if len(sims) < cell.sub_seeds:
            sims.append(p.sim())
        if totals is None:
            totals = (p.seed, _totals(p))
        raw_rates.append(len(p.completed) / p.wall_s)
        setup_s = p.setup_s
        # Nothing of the program may be alive while the reference runs:
        # the collector would traverse it and slow the reference down.
        del p
        gc.collect()
        ref_after = reference_s()
        host = (ref_before + ref_after) / 2 / REFERENCE_S
        ref_before = ref_after
        rates.append(raw_rates[-1] * host)
        setups.append(setup_s / host)
    peak_rss_mib = _peak_rss_mib()

    m = report.metrics
    m["sim_req_per_s"] = (statistics.median(rates), "1/s")
    m["setup_s"] = (statistics.median(setups), "s")
    m["peak_rss_mib"] = (peak_rss_mib, "MiB")
    m["sim_throughput_mib_s"] = (
        statistics.median(s["throughput"] for s in sims), "MiB/s")
    m["sim_lat_p50_ms"] = (statistics.median(s["p50"] for s in sims) * 1e3,
                           "ms")
    m["sim_lat_p99_ms"] = (statistics.median(s["p99"] for s in sims) * 1e3,
                           "ms")
    failed_frac = report.failed / report.attempted
    report.notes.append(
        f"{len(rates)} passes in {time.perf_counter() - begin:.1f}s; "
        f"simulated metrics are medians over {cell.sub_seeds} seed(s) of "
        f"{sims[0]['count']} latency samples each "
        f"({int(sims[0]['count'] * 0.01)} beyond p99)")
    report.notes.append(
        f"uncorrected sim_req_per_s {statistics.median(raw_rates):.6g}; "
        f"host speed factors {', '.join(f'{r / w:.3f}' for r, w in zip(rates, raw_rates))}")
    report.notes.append(f"failed_frac {failed_frac:g} "
                        f"({report.failed} of {report.attempted} requests)")

    if cell.make_config(seed).shards > 1:
        report.failures.extend(_check_against_serial(cell, *totals))
    return report


#: Median duration of :func:`reference_s` on the tuning host (2-vCPU
#: VM, Python 3.11.7); host-time metrics are expressed at that speed.
REFERENCE_S = 0.37


def reference_s() -> float:
    """Host seconds of a fixed pure-Python workload that uses no
    ``repro`` code: allocation, attribute and dict access and heap
    operations, like the simulator's, over a working set of about
    4 MiB (small enough not to set the run's peak memory).

    The tuning host's speed drifted by up to 1.8x over minutes (other
    tenants), far beyond any usable bound; this reference, run right
    before and after each pass, slowed with it (correlation 0.96 over
    30 passes of ``aligned_sharded``).  So
    ``sim_req_per_s`` and ``setup_s`` are scaled by the reference's
    speed relative to :data:`REFERENCE_S`.  A change to the program
    cannot move the reference.
    """
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap: list = []
    for _ in range(_REF_ROUNDS):
        objs = [_RefObj(i) for i in range(_REF_OBJECTS)]
        for i in range(_REF_OPS):
            o = objs[rng.randrange(_REF_OBJECTS)]
            heapq.heappush(heap, (o.a ^ i, i, o))
            if len(heap) > 1000:
                heapq.heappop(heap)
            o.b.append(i)
            o.c[i & 7] = i
    return time.perf_counter() - t0


_REF_ROUNDS = 8
_REF_OBJECTS = 10_000
_REF_OPS = 12_000


class _RefObj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = [a]
        self.c = {"k": a}


def _totals(p: Pass) -> Tuple[int, int]:
    """(requests, payload bytes) a pass completed."""
    done = p.completed
    return len(done), sum(r.nbytes for r in done)


def _peak_rss_mib() -> float:
    """Peak resident memory of this process (shards run in it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_against_serial(cell: Cell, seed: int,
                          sharded: Tuple[int, int]) -> List[str]:
    """The sharded cell must complete what the serial engine does."""
    cfg = cell.make_config(seed).with_shards(1)
    wl = cell.make_workload(1.0)
    cluster = Cluster(cfg)
    result = run_workload(cluster, wl, warm_runs=cell.warm_runs)
    serial = Pass(seed, cfg, result, PassClock(), 0.0,
                  expected_requests(wl), wl.total_bytes, cluster)
    out = [f"serial reference: {f}" for f in check_pass(serial)]
    if _totals(serial) != sharded:
        out.append(f"sharded run completed (requests, bytes) {sharded}, "
                   f"serial {_totals(serial)}")
    return out


# ------------------------------------------------------------------ audit
def verify_audited(cell: Cell, seed: int) -> List[str]:
    """A shorter run of the cell under the strict auditor.

    Strict audit raises at the first violated invariant (conservation
    ledgers, log accounting, FTL ledger, cross-shard conservation); the
    verdict is checked as well.  Auditing changes the event schedule,
    so none of this run's numbers are reported.
    """
    p = run_pass(cell, cell.seed(seed, 0), fraction=AUDIT_FRACTION,
                 audit=True)
    out = [f"audited run: {f}" for f in check_pass(p)]
    verdict = (p.cluster.audit.verdict() if p.cluster is not None
               else p.result.audit_verdict)
    if not verdict or not verdict.get("ok"):
        out.append(f"audited run: verdict {verdict}")
    return out


# -------------------------------------------------------------- per layer
def measure_layers(cell: Cell, seed: int) -> Report:
    """One untraced and one traced pass at the run's seed, in process.

    The traced pass installs the layer wrappers and the program's span
    tracer; its simulated results and event count must equal the
    untraced pass's, which shows the instrumentation left the event
    schedule alone.
    """
    report = Report()
    s0 = cell.seed(seed, 0)
    base = run_pass(cell, s0)
    profiler = Profiler()
    with profiler.installed():
        traced = run_pass(cell, s0, traced=True, profiler=profiler)
    for p in (base, traced):
        report.failures.extend(check_pass(p))
        report.attempted += p.expected
        report.failed += failed_requests(p)

    events = base.clock.counters["events"]
    if traced.sim() != base.sim() or \
            traced.clock.counters["events"] != events:
        report.failures.append(
            f"traced pass diverged from the untraced one: "
            f"{traced.sim()} / {traced.clock.counters['events']} events vs "
            f"{base.sim()} / {events} events")
    if sorted(r.latency for r in traced.completed) != \
            sorted(r.latency for r in base.completed):
        report.failures.append("traced pass changed request latencies")

    dropped = traced.clock.counters["obs_dropped_spans"]
    if dropped:
        report.failures.append(f"the tracer dropped {dropped} spans, so "
                               "the critical paths are incomplete")
    prof = diff(traced.clock.end_prof, traced.clock.start_prof)
    self_s = {k: v / 1e9 for k, v in prof["self_ns"].items()}
    covered = sum(self_s.values())
    if abs(covered - traced.wall_s) > SELF_TIME_TOLERANCE * traced.wall_s:
        report.failures.append(
            f"layer self times add up to {covered:.3f}s of a "
            f"{traced.wall_s:.3f}s traced pass (tolerance "
            f"{SELF_TIME_TOLERANCE:.0%})")
    report.notes.append(
        f"traced pass {traced.wall_s:.3f}s, layer self times cover "
        f"{covered:.3f}s; untraced pass {base.wall_s:.3f}s; "
        f"{events} events")
    report.notes.append("self_s by layer " + ", ".join(
        f"{k}={v:.3f}" for k, v in sorted(self_s.items())))
    report.metrics = layer_metrics(base, traced, self_s, prof["calls"])
    return report


def layer_metrics(base: Pass, traced: Pass, self_s: Dict[str, float],
                  calls: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    c: Counter = traced.clock.counters
    n = len(traced.completed)
    events = base.clock.counters["events"]
    cp, cp_count, mags = _critical_paths(traced.clock.reports)

    def per_req_ms(*kinds):
        return (sum(cp.get(k, 0.0) for k in kinds) / cp_count * 1e3
                if cp_count else 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    profile = base.result.extra.get("shard_profile")
    par = analyze_shard_profile(profile) if profile else None
    sub_requests = calls.get("DataServer.submit", 0)
    submitted = calls.get("BlockQueue.submit", 0)
    redirected = c["ib_ssd_redirected_writes"]
    m = {
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (ratio(base.wall_s * 1e9, events), "ns"),
        "sim.self_s": (self_s.get("sim", 0.0), "s"),
        "parallel.windows": (par["windows"] if par else 0, "count"),
        "parallel.mailbox_msgs": (sum(par["sent"]) if par else 0, "count"),
        "parallel.busy_s": (sum(par["busy_ns"]) / 1e9 if par else 0.0, "s"),
        "parallel.barrier_wait_s": (sum(par["wait_ns"]) / 1e9 if par
                                    else 0.0, "s"),
        "parallel.efficiency": (par["efficiency"] if par else 0.0, "ratio"),
        "parallel.self_s": (self_s.get("parallel", 0.0), "s"),
        "pfs.sub_requests": (sub_requests, "count"),
        "pfs.fanout": (ratio(sub_requests, n), "ratio"),
        "pfs.retries": (c["retries"], "count"),
        "pfs.client_self_s": (self_s.get("pfs.client", 0.0), "s"),
        "pfs.server_self_s": (self_s.get("pfs.server", 0.0), "s"),
        "pfs.cp_client_ms": (per_req_ms("client", "rpc"), "ms"),
        "pfs.cp_server_ms": (per_req_ms("server"), "ms"),
        "net.messages": (c["net_messages"], "count"),
        "net.mib": (c["net_bytes"] / MiB, "MiB"),
        "net.self_s": (self_s.get("net", 0.0), "s"),
        "net.cp_network_ms": (per_req_ms("network"), "ms"),
        "core.fragments_seen": (c["ib_fragments_seen"], "count"),
        "core.randoms_seen": (c["ib_randoms_seen"], "count"),
        "core.ssd_read_hits": (c["ib_ssd_read_hits"], "count"),
        "core.hit_ratio": (ratio(c["ib_ssd_read_hits"],
                                 c["ib_sub_requests"]), "ratio"),
        "core.admit_ratio": (ratio(redirected,
                                   redirected + c["ib_rejected_admissions"]),
                             "ratio"),
        "core.ssd_fraction": (ratio(c["ib_bytes_from_ssd"],
                                    c["ib_bytes_from_ssd"]
                                    + c["ib_bytes_from_disk"]), "ratio"),
        "core.writeback_mib": (c["ib_writeback_bytes"] / MiB, "MiB"),
        "core.log_relocations": (calls.get("LogStore.relocate", 0), "count"),
        "core.self_s": (self_s.get("core", 0.0), "s"),
        "block.submitted": (submitted, "count"),
        "block.dispatches": (c["blk_dispatches"], "count"),
        "block.merge_ratio": (ratio(submitted, c["blk_dispatches"]),
                              "ratio"),
        "block.self_s": (self_s.get("block", 0.0), "s"),
        "block.cp_queue_ms": (per_req_ms("queue"), "ms"),
        "devices.hdd_ops": (c["hdd_ops"], "count"),
        "devices.hdd_busy_s": (c["hdd_busy_s"], "s"),
        "devices.hdd_positioning_s": (c["hdd_positioning_s"], "s"),
        "devices.ssd_ops": (c["ssd_ops"], "count"),
        "devices.ssd_busy_s": (c["ssd_busy_s"], "s"),
        "devices.ftl_write_amplification": (
            ratio(c["ftl_device_pages"], c["ftl_host_pages"]), "ratio"),
        "devices.ftl_erases": (c["ftl_erases"], "count"),
        "devices.self_s": (self_s.get("devices", 0.0), "s"),
        "devices.cp_service_ms": (per_req_ms("service"), "ms"),
        "localfs.self_s": (self_s.get("localfs", 0.0), "s"),
        "mpi.self_s": (self_s.get("mpi", 0.0), "s"),
        "obs.self_s": (self_s.get("obs", 0.0), "s"),
        "python.gc_s": (self_s.get("gc", 0.0), "s"),
        "python.gc_collections": (calls.get("gc.collect", 0), "count"),
        "obs.trace_overhead_pct": (
            (traced.wall_s / base.wall_s - 1.0) * 100.0, "%"),
        "obs.mean_magnification": (
            sum(mags) / len(mags) if mags else 0.0, "ratio"),
    }
    return m


def _critical_paths(reports) -> Tuple[Dict[str, float], int, List[float]]:
    """Critical-path seconds by span kind, traces analysed, and the
    striping-magnification factors, over every shard's report."""
    totals: Counter = Counter()
    count = 0
    mags: List[float] = []
    for rep in reports:
        totals.update(rep.breakdown_totals())
        count += rep.count
        mags.extend(rep.magnifications())
    return dict(totals), count, mags
