"""Workload abstraction and the serial run entry point.

A workload knows how many ranks it needs, how to prepare files on a
cluster, and supplies the per-rank body generator.
:func:`run_workload` runs one on an existing cluster through the run
sequence every engine shares (:func:`repro.sim.parallel._drive`):
optional untimed warm runs (the paper's read-side benefit comes from
fragments cached in prior runs of the same program), the measured pass,
the drain of dirty data (the paper's methodology charges writeback to
the program), and the one result packer
(:func:`repro.sim.parallel._merge_results`) building the
:class:`RunResult`.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..analysis.metrics import RunResult
from ..mpi.runtime import RankContext
from ..pfs.cluster import Cluster
from ..sim.parallel import SerialEngine, run_engine


class Workload(abc.ABC):
    """Base class for benchmark workload models."""

    name: str = "workload"

    @property
    @abc.abstractmethod
    def nprocs(self) -> int:
        """Number of MPI ranks."""

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Payload bytes moved by one run (for throughput accounting)."""

    @abc.abstractmethod
    def prepare(self, cluster: Cluster) -> None:
        """Create files / record handles.  Called once per cluster."""

    @abc.abstractmethod
    def body(self, ctx: RankContext):
        """The rank body generator (yield events)."""

    #: Compute nodes to spread ranks over (None = one node per rank).
    client_nodes: Optional[int] = None


def run_workload(cluster: Cluster, workload: Workload, drain: bool = True,
                 warm_runs: int = 0, reset_after_warm: bool = True) -> RunResult:
    """Run ``workload`` on ``cluster`` (serial engine) and collect metrics.

    ``warm_runs`` untimed passes precede the measurement; they populate
    iBridge's SSD cache exactly the way earlier executions of the same
    program would.  Statistics and tracers are reset before the timed
    pass when ``reset_after_warm`` is set.  The cluster is left running
    (not shut down), so callers can inspect it afterwards.
    """
    return run_engine(SerialEngine(cluster, workload), warm_runs, drain,
                      reset_after_warm)


def recovery_snapshot(cluster: Cluster) -> dict:
    """Current recovery telemetry of a cluster as a flat dict.

    Part of every cluster's run summary
    (:meth:`repro.sim.parallel.ClusterRun.finalize`), so it is on
    ``RunResult.recovery`` of faulted runs and in the chaos episode
    verdict even when a run *aborted* — e.g. retry exhaustion raising
    out of the rank bodies — and no ``RunResult`` exists.
    """
    stats = cluster.ibridge_stats()
    clients = list(cluster._clients.values())
    return {
        "timeouts": float(sum(c.timeouts for c in clients)),
        "retries": float(sum(c.retries for c in clients)),
        "request_failures": float(sum(c.failures for c in clients)),
        "exhausted_subrequests": float(sum(c.exhausted for c in clients)),
        "retry_wallclock_exceeded": float(sum(c.wallclock_exhausted
                                              for c in clients)),
        "net_dropped": float(cluster.network.stats.dropped),
        "net_fault_delay_s": cluster.network.stats.fault_delay_time,
        "server_crashes": float(sum(s.crashes for s in cluster.servers)),
        "forfeited_bytes": float(stats.forfeited_bytes if stats else 0),
        "ssd_outages": float(stats.ssd_outages if stats else 0),
    }
