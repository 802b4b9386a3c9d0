"""Post-recovery health checks: did every fault window actually heal?

:func:`restoration_failures` is the restoration oracle both engines
read per cluster (:meth:`repro.sim.parallel.ClusterRun.health`) for
the chaos episode verdict.  It reads a settled cluster — one run past
its plan's horizon and drained — and reports
every wound the recovery paths failed to close: a server still crashed,
a block queue still paused, an iBridge manager still in SSD-bypass
mode, a GC storm still active, or an injector log whose ``begin``
transitions outnumber its ``end``\\ s.

On a sharded cluster the function sees one *shard's* view: remote
server stubs carry no devices and are skipped, and the log-balance
check counts only the events partitioned to the local injector
(:attr:`FaultInjector.events`), so each shard's answer covers exactly
the faults it drives.  The coordinator concatenates the per-shard
lists — the union is the fleet check the serial oracle performs.
"""

from __future__ import annotations

from typing import List


def restoration_failures(cluster) -> List[str]:
    """Post-settle recovery checks; every entry is one unhealed wound."""
    out = []
    for server in cluster.servers:
        if server.is_remote:
            continue
        if server.crashed:
            out.append(f"restore:server{server.id}-still-crashed")
        if server.ssd_queue.paused:
            out.append(f"restore:server{server.id}-ssd-queue-paused")
        if getattr(server.ssd, "_storm_depth", 0) > 0:
            out.append(f"restore:server{server.id}-ssd-storm-active")
        for d, unit in enumerate(server.disks):
            if unit.queue.paused:
                out.append(f"restore:server{server.id}-hdd{d}-queue-paused")
            if unit.ibridge is not None and not unit.ibridge.ssd_available:
                out.append(f"restore:server{server.id}-disk{d}-ssd-bypass")
    if cluster.faults is not None:
        records = cluster.faults.records
        begun = sum(1 for r in records if r.phase == "begin")
        ended = sum(1 for r in records if r.phase == "end")
        local = cluster.faults.events
        finite = sum(1 for _idx, e in local if e.duration is not None)
        if begun != len(local) or ended != finite:
            out.append(f"restore:fault-log-unbalanced"
                       f"({begun}/{len(local)} begun,"
                       f" {ended}/{finite} ended)")
    return out
