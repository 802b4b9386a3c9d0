"""Run one sampled chaos episode and judge it with the oracles.

An **episode** = build a fresh cluster from the spec, run the sampled
workload under the sampled fault plan, settle past the fault horizon so
every window has reverted, drain, and then read the oracles:

* the audit :meth:`~repro.audit.runtime.AuditRuntime.verdict`
  (conservation/coherence ledgers + livelock watchdog) collected
  non-strictly, so one episode reports every violation;
* **restoration** checks — after the last window reverts and the system
  settles, no server may still be crashed, no block queue paused, no
  iBridge manager in SSD-bypass mode, and every finite fault window
  must have logged its ``end`` transition;
* **recovery telemetry** — retry exhaustion means the client gave up on
  a sub-request even though the generator sized the retry budget to
  outlast every window: a recovery bug by construction.

A budget guard process bounds the episode in simulated seconds and
engine events (both deterministic) plus real seconds (backstop), so a
livelocked sample surfaces as a ``budget-exceeded`` verdict instead of
hanging the harness.

Everything an episode returns is a plain picklable dict, and
:func:`episode_signature` hashes the deterministic subset — the replay
contract ``same spec ⇒ same signature`` is what the CLI's determinism
check and the corpus replay assert.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..config import (AuditConfig, ClusterConfig, ObsConfig, RetryConfig,
                      ServerConfig)
from ..devices.base import Op
from ..errors import (AuditError, ChaosError, EpisodeBudgetError,
                      ReproError, RequestTimeoutError)
from ..experiments.runner import stable_hash
from ..faults.health import restoration_failures
from ..faults.plan import FaultPlan
from ..pfs.cluster import Cluster
from ..sim.parallel import (merge_audit, merge_fault_records, merge_recovery,
                            run_sharded_episode)
from ..workloads import IorMpiIo, MpiIoTest, recovery_snapshot, run_workload

#: Type alias for readability; an episode result is a plain dict.
EpisodeResult = Dict

#: Simulated seconds run past the fault horizon before the restoration
#: oracles are read — covers the injector's cleanup transitions and the
#: first post-recovery writeback pass.
SETTLE_SLACK = 0.05

#: Sim-time gap between budget-guard checks.  The guard is a sim
#: process (it consumes event-heap sequence numbers), but its schedule
#: is a pure function of the spec, so determinism is preserved.
_GUARD_PERIOD = 0.05


# ---------------------------------------------------------------- build
def build_config(spec: Dict) -> ClusterConfig:
    """The cluster config an episode runs under (audited, non-strict)."""
    c = spec["cluster"]
    config = ClusterConfig(
        num_servers=c["num_servers"],
        server=ServerConfig(disks_per_server=c["disks_per_server"]),
        audit=AuditConfig(enabled=True, strict=False),
        retry=RetryConfig(enabled=True, **spec["retry"]),
        obs=ObsConfig(enabled=False),
        seed=spec["seed"],
    )
    if c["ibridge"]:
        config = config.with_ibridge(ssd_partition=c["ssd_partition"])
    if c.get("ftl"):
        # Shrink the drive so the few-MiB chaos workloads actually put
        # the FTL under page pressure (a 120 GiB drive would never GC).
        from ..units import MiB
        config = config.with_ftl(
            capacity=max(8 * c["ssd_partition"], 64 * MiB))
    if int(c.get("shards", 1) or 1) > 1:
        # Inline driver only: episodes already fan out across processes
        # at the campaign level, and pickled exceptions across worker
        # pipes would blur the failure classification.
        config = config.with_shards(int(c["shards"]), shard_mode="inline")
    config.validate()
    return config


def build_workload(spec: Dict):
    w = spec["workload"]
    op = Op.READ if w["op"] == "read" else Op.WRITE
    size = w["iterations"] * w["nprocs"] * w["request_size"]
    if w["kind"] == "mpi-io-test":
        return MpiIoTest(nprocs=w["nprocs"], request_size=w["request_size"],
                         file_size=size, op=op,
                         offset_shift=w["offset_shift"])
    if w["kind"] == "ior":
        return IorMpiIo(nprocs=w["nprocs"], request_size=w["request_size"],
                        file_size=size, op=op)
    raise ChaosError(f"unknown workload kind {w['kind']!r}")


# ---------------------------------------------------------------- guard
def _check_budget(budget: Dict, now: float, events: int,
                  wall_start: float) -> None:
    """Raise :class:`EpisodeBudgetError` once any episode cap is passed."""
    if now > budget["sim_time"]:
        raise EpisodeBudgetError(
            f"episode passed {budget['sim_time']}s of simulated time "
            f"(now {now:.3f}s) — livelock or runaway workload")
    if events > budget["events"]:
        raise EpisodeBudgetError(
            f"episode scheduled more than {budget['events']} engine events")
    if time.monotonic() - wall_start > budget["wall_clock"]:
        raise EpisodeBudgetError(
            f"episode exceeded the {budget['wall_clock']}s real-time "
            "backstop")


def _budget_guard(env, budget: Dict, wall_start: float):
    """The serial guard: a sim process checking every ``_GUARD_PERIOD``."""
    while True:
        yield env.timeout(_GUARD_PERIOD)
        _check_budget(budget, env.now, env._seq, wall_start)


def _coordinator_guard(budget: Dict, wall_start: float):
    """The sharded guard: the coordinator calls it between window
    barriers, outside every shard's heap, with the window end and the
    engine events all shards scheduled in it (both deterministic)."""
    events = 0

    def guard(t_end: float, window_events: int) -> None:
        nonlocal events
        events += window_events
        _check_budget(budget, t_end, events, wall_start)

    return guard


def _classify(exc: BaseException) -> str:
    if isinstance(exc, EpisodeBudgetError):
        return "budget-exceeded"
    if isinstance(exc, RequestTimeoutError):
        return "retry-exhausted"
    if isinstance(exc, AuditError):
        return "violation"
    return "crash"


def _judge(spec: Dict, error: Optional[BaseException], verdict: Dict,
           recovery: Dict, restoration: List[str],
           makespan: float, fault_log: List[Dict],
           **extra) -> EpisodeResult:
    """Read the oracles into the episode result (both engines).

    ``error`` is the first in-simulation failure; ``restoration`` stays
    empty unless the settle completed and the oracle was read.
    """
    status = "ok" if error is None else _classify(error)
    failures = [] if error is None else [status]
    if not verdict["ok"]:
        failures.append("audit:" + "+".join(verdict["checks"]))
    elif verdict["watchdog_fired"]:
        failures.append("watchdog")
    if status == "ok" and recovery["exhausted_subrequests"] > 0:
        failures.append("retry-exhausted")
    failures.extend(restoration)
    result: EpisodeResult = {
        "spec": spec,
        "status": status,
        "ok": not failures,
        "failures": failures,
        "error": (None if error is None
                  else f"{type(error).__name__}: {error}"),
        "makespan": round(makespan, 9),
        "recovery": recovery,
        "verdict": verdict,
        "fault_log": fault_log,
        **extra,
    }
    result["signature"] = episode_signature(result)
    return result


def _fault_log(records: List[Dict], keys=()) -> List[Dict]:
    """Fault records as signed: rounded time, phase, event + ``keys``."""
    return [dict({"time": round(r["time"], 9), "phase": r["phase"],
                  "event": r["event"]}, **{k: r[k] for k in keys})
            for r in records]


# -------------------------------------------------------------- running
def run_episode(spec: Dict) -> EpisodeResult:
    """Execute one episode; never raises for in-simulation failures.

    Infrastructure errors (a broken spec, an unbuildable config) raise
    normally — those are tester bugs, not findings.
    """
    if spec.get("schema") != 1:
        raise ChaosError(f"unsupported episode spec schema "
                         f"{spec.get('schema')!r}")
    config = build_config(spec)
    workload = build_workload(spec)
    plan = FaultPlan.from_dict(spec["faults"])
    fault_plan = plan if len(plan) else None
    horizon = plan.horizon() + SETTLE_SLACK
    warm_runs = spec["workload"]["warm_runs"]
    wall_start = time.monotonic()
    if config.shards > 1:
        # Same phases and oracles, merged across shards.  Fault-log
        # entries also carry the plan ``index`` and the driving ``shard``
        # (broadcast events log once per shard).
        out = run_sharded_episode(
            config, workload, fault_plan=fault_plan, settle_until=horizon,
            warm_runs=warm_runs,
            guard=_coordinator_guard(spec["budget"], wall_start))
        summaries = out["summaries"]
        return _judge(spec, out["error"], merge_audit(summaries),
                      merge_recovery(summaries),
                      sorted(out["restoration"]),
                      max(s["now"] for s in summaries),
                      _fault_log(merge_fault_records(summaries),
                                 ("index", "shard")),
                      shards=config.shards, windows=out["windows"])

    cluster = Cluster(config, fault_plan=fault_plan)
    env = cluster.env
    env.process(_budget_guard(env, spec["budget"], wall_start),
                name="chaos-budget-guard")
    error: Optional[ReproError] = None
    start = env.now
    try:
        run_workload(cluster, workload, drain=True, warm_runs=warm_runs)
    except ReproError as exc:
        error = exc

    # Settle past the fault horizon so every window reverts, then drain
    # once more: recovery writeback after the last window is part of
    # the episode.  Skipped when the budget already fired — the guard
    # died raising and the run is torn anyway.
    settled = False
    if not isinstance(error, EpisodeBudgetError):
        try:
            if env.now < horizon:
                env.run(until=horizon)
            cluster.drain()
            settled = True
        except ReproError as exc:
            error = error or exc
    makespan = env.now - start
    cluster.shutdown()

    records = ([r.to_dict() for r in cluster.faults.records]
               if cluster.faults is not None else [])
    return _judge(spec, error, cluster.audit.verdict(),
                  recovery_snapshot(cluster),
                  restoration_failures(cluster) if settled else [],
                  makespan, _fault_log(records))


def episode_signature(result: EpisodeResult) -> str:
    """Hash of the deterministic episode outcome (the replay contract).

    The error *message* is excluded: the wall-clock backstop writes a
    real-time figure into budget messages, and determinism must not
    hinge on prose.  Everything else — spec, status, fault transition
    log, makespan, telemetry, verdict — replays bit-identically.
    """
    return stable_hash({
        "spec": result["spec"],
        "status": result["status"],
        "failures": result["failures"],
        "makespan": result["makespan"],
        "recovery": result["recovery"],
        "verdict": result["verdict"],
        "fault_log": result["fault_log"],
    })


def run_episode_cell(spec: Dict) -> EpisodeResult:
    """Cell-shaped entry point for the experiments process pool.

    The fuzz loop fans episodes out through
    :func:`repro.experiments.runner.run_cells` (cache off — a fuzz run
    should actually run), so ``--jobs N`` gives the same order-stable
    results as the experiment matrix does.
    """
    return run_episode(spec)
