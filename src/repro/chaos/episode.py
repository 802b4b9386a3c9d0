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

A budget guard bounds the episode in simulated seconds and engine
events (both deterministic) plus real seconds (backstop), so a
livelocked sample surfaces as a ``budget-exceeded`` verdict instead of
hanging the harness.  Serial and sharded episodes run the same sequence
(:func:`repro.sim.parallel.run_sharded_episode`) and are judged by the
same oracles.

Everything an episode returns is a plain picklable dict, and
:func:`episode_signature` hashes the deterministic subset — the replay
contract ``same spec ⇒ same signature`` is what the CLI's determinism
check and the corpus replay assert.
"""

from __future__ import annotations

import time
from typing import Dict

from ..config import (AuditConfig, ClusterConfig, ObsConfig, RetryConfig,
                      ServerConfig)
from ..devices.base import Op
from ..errors import (AuditError, ChaosError, EpisodeBudgetError,
                      RequestTimeoutError)
from ..experiments.runner import stable_hash
from ..faults.plan import FaultPlan
from ..sim.parallel import (merge_audit, merge_fault_records, merge_recovery,
                            run_sharded_episode)
from ..workloads import IorMpiIo, MpiIoTest

#: Type alias for readability; an episode result is a plain dict.
EpisodeResult = Dict

#: Simulated seconds run past the fault horizon before the restoration
#: oracles are read — covers the injector's cleanup transitions and the
#: first post-recovery writeback pass.
SETTLE_SLACK = 0.05


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
def _budget_guard(budget: Dict, wall_start: float):
    """The episode's budget guard, shared by both engines.

    The engine calls it with the simulated time and the engine events
    scheduled since the previous call (both deterministic): the serial
    engine from a sim process on a fixed simulated-time period, the
    sharded one at the coordinator after every window barrier, outside
    every shard's heap.  It raises :class:`EpisodeBudgetError` once any
    cap is passed; real time is only a backstop.
    """
    events = 0

    def guard(now: float, new_events: int) -> None:
        nonlocal events
        events += new_events
        if now > budget["sim_time"]:
            raise EpisodeBudgetError(
                f"episode passed {budget['sim_time']}s of simulated time "
                f"(now {now:.3f}s) — livelock or runaway workload")
        if events > budget["events"]:
            raise EpisodeBudgetError(
                f"episode scheduled more than {budget['events']} engine "
                "events")
        if time.monotonic() - wall_start > budget["wall_clock"]:
            raise EpisodeBudgetError(
                f"episode exceeded the {budget['wall_clock']}s real-time "
                "backstop")

    return guard


def _classify(exc: BaseException) -> str:
    if isinstance(exc, EpisodeBudgetError):
        return "budget-exceeded"
    if isinstance(exc, RequestTimeoutError):
        return "retry-exhausted"
    if isinstance(exc, AuditError):
        return "violation"
    return "crash"


def _judge(spec: Dict, out: Dict) -> EpisodeResult:
    """Read the oracles over :func:`run_sharded_episode`'s ``out``.

    ``out["error"]`` is the first in-simulation failure; the
    restoration findings stay empty unless the settle completed.
    Sharded episodes sort the per-shard findings, and their fault-log
    entries also carry the plan ``index`` and the driving ``shard``
    (broadcast events log once per shard).
    """
    summaries, error = out["summaries"], out["error"]
    sharded = len(summaries) > 1
    verdict = merge_audit(summaries)
    recovery = merge_recovery(summaries)
    status = "ok" if error is None else _classify(error)
    failures = [] if error is None else [status]
    if not verdict["ok"]:
        failures.append("audit:" + "+".join(verdict["checks"]))
    elif verdict["watchdog_fired"]:
        failures.append("watchdog")
    if status == "ok" and recovery["exhausted_subrequests"] > 0:
        failures.append("retry-exhausted")
    failures.extend(sorted(out["restoration"]) if sharded
                    else out["restoration"])
    keys = ("index", "shard") if sharded else ()
    result: EpisodeResult = {
        "spec": spec,
        "status": status,
        "ok": not failures,
        "failures": failures,
        "error": (None if error is None
                  else f"{type(error).__name__}: {error}"),
        "makespan": round(max(s["now"] for s in summaries), 9),
        "recovery": recovery,
        "verdict": verdict,
        # Fault records as signed: rounded time, phase, event (+ keys).
        "fault_log": [dict({"time": round(r["time"], 9),
                            "phase": r["phase"], "event": r["event"]},
                           **{k: r[k] for k in keys})
                      for r in merge_fault_records(summaries)],
        "shards": len(summaries),
        "windows": out["windows"],
    }
    result["signature"] = episode_signature(result)
    return result


# -------------------------------------------------------------- running
def run_episode(spec: Dict) -> EpisodeResult:
    """Execute one episode; never raises for in-simulation failures.

    Infrastructure errors (a broken spec, an unbuildable config) raise
    normally — those are tester bugs, not findings.
    """
    if spec.get("schema") != 1:
        raise ChaosError(f"unsupported episode spec schema "
                         f"{spec.get('schema')!r}")
    plan = FaultPlan.from_dict(spec["faults"])
    # Settle past the fault horizon so every window reverts, then drain
    # once more: recovery writeback after the last window is part of
    # the episode.
    return _judge(spec, run_sharded_episode(
        build_config(spec), build_workload(spec),
        fault_plan=plan if len(plan) else None,
        settle_until=plan.horizon() + SETTLE_SLACK,
        warm_runs=spec["workload"]["warm_runs"],
        guard=_budget_guard(spec["budget"], time.monotonic())))


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
