"""Timed-pass boundaries and per-layer counters read from the clusters.

:class:`PassClock` marks where the timed pass of a run starts and ends
by hooking the public calls that bracket it:

* serial engine: the start of the last ``MPIRun.run_to_completion``
  (after any warm pass and the measurement reset) and the end of the
  ``Cluster.drain`` that follows it;
* partitioned engine (in-process shards only): the last
  ``ShardWorker.mark_start`` and the first ``ShardWorker.finalize``.

At both marks it snapshots each cluster's counters (:func:`probe`) and,
when a :class:`~perfbench.layers.Profiler` is active, the per-layer
host self times, so every per-layer number covers the timed pass only.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional

from repro.mpi.runtime import MPIRun
from repro.obs.critical_path import analyze
from repro.pfs.cluster import Cluster
from repro.sim.parallel import ShardWorker
from repro.workloads.base import recovery_snapshot


def probe(cluster: Cluster) -> Counter:
    """Cumulative counters of the cluster's locally simulated servers."""
    p: Counter = Counter()
    p["events"] = cluster.env._seq
    p["net_messages"] = cluster.network.stats.messages
    p["net_bytes"] = cluster.network.stats.bytes
    for server in cluster.servers:
        if server.is_remote:
            continue
        for unit in server.disks:
            st = unit.hdd.stats
            p["hdd_ops"] += st.reads + st.writes
            p["hdd_busy_s"] += st.busy_time
            p["hdd_positioning_s"] += st.positioning_time
            p["blk_dispatches"] += unit.queue.dispatches
            if unit.ibridge is not None:
                for key, value in vars(unit.ibridge.stats).items():
                    p["ib_" + key] += value
        st = server.ssd.stats
        p["ssd_ops"] += st.reads + st.writes
        p["ssd_busy_s"] += st.busy_time
        p["blk_dispatches"] += server.ssd_queue.dispatches
        ftl = server.ssd.ftl
        if ftl is not None:
            p["ftl_host_pages"] += ftl.host_pages_written
            p["ftl_device_pages"] += ftl.device_pages_written
            p["ftl_erases"] += ftl.erases
    if cluster.obs is not None and cluster.obs.tracer is not None:
        p["obs_dropped_spans"] = cluster.obs.tracer.dropped
    rec = recovery_snapshot(cluster)
    for key in ("timeouts", "retries", "request_failures",
                "exhausted_subrequests"):
        p[key] = rec[key]
    return p


class PassClock:
    """Wall time, counters and critical paths of one run's timed pass."""

    def __init__(self, profiler=None) -> None:
        self.profiler = profiler
        self.start_t: Optional[float] = None
        self.end_t: Optional[float] = None
        self.start: Counter = Counter()
        self.end: Counter = Counter()
        self.start_prof = None
        self.end_prof = None
        #: Sim time each cluster's timed pass started at (by env id).
        self._sim_start: Dict[int, float] = {}
        #: Critical-path reports of traced clusters, one per shard.
        self.reports: List = []

    @property
    def wall_s(self) -> float:
        return self.end_t - self.start_t

    @property
    def counters(self) -> Counter:
        out = Counter(self.end)
        out.subtract(self.start)
        return out

    def _snap(self):
        return None if self.profiler is None else self.profiler.snapshot()

    # ------------------------------------------------------------ marks
    def _mark_start(self, cluster: Cluster, reset: bool) -> None:
        if reset:
            self.start = Counter()
            self.end = Counter()
            self.end_t = None
            self.reports = []
        self.start.update(probe(cluster))
        self._sim_start[id(cluster.env)] = cluster.env.now
        self.start_prof = self._snap()
        self.start_t = time.perf_counter()

    def _mark_end(self, cluster: Cluster, reset: bool) -> None:
        t = time.perf_counter()
        prof = self._snap()
        if reset or self.end_t is None:
            self.end_t = t
            self.end_prof = prof
        if reset:
            self.end = Counter()
        self.end.update(probe(cluster))
        if cluster.obs is not None and cluster.obs.tracer is not None:
            t0 = self._sim_start[id(cluster.env)]
            self.reports.append(analyze(
                [s for s in cluster.obs.tracer.spans if s.start >= t0]))

    @contextlib.contextmanager
    def installed(self) -> Iterator["PassClock"]:
        clock = self
        saved = [(MPIRun, "run_to_completion"), (Cluster, "drain"),
                 (ShardWorker, "mark_start"), (ShardWorker, "finalize")]
        originals = [cls.__dict__[name] for cls, name in saved]
        run_to_completion, drain, mark_start, finalize = originals

        def timed_run(self, body):
            clock._mark_start(self.cluster, reset=True)
            return run_to_completion(self, body)

        def timed_drain(self):
            drain(self)
            if self.shard is None:
                clock._mark_end(self, reset=True)

        def timed_mark_start(self):
            out = mark_start(self)
            clock._mark_start(self.cluster, reset=False)
            return out

        def timed_finalize(self):
            clock._mark_end(self.cluster, reset=False)
            return finalize(self)

        patched = [timed_run, timed_drain, timed_mark_start, timed_finalize]
        try:
            for (cls, name), fn in zip(saved, patched):
                setattr(cls, name, fn)
            yield self
        finally:
            for (cls, name), fn in zip(saved, originals):
                setattr(cls, name, fn)
