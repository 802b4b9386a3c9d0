"""Partitioned-horizon parallel DES: shard one cluster across workers.

One big simulated cluster is partitioned round-robin into ``shards``
pieces — server ``i`` lives on shard ``i % nshards``, client node ``c``
on shard ``c % nshards`` — and each shard runs its own
:class:`~repro.sim.core.Environment` (its own event heap, clock, RNG
streams and telemetry).  The shards advance in lock-step through
*conservative time windows* (Chandy–Misra style, window-barrier
variant):

1. every shard reports the time of its next pending event;
2. the coordinator sets the window end ``T = min(next events, pending
   cross-shard arrivals) + L`` where the lookahead ``L`` is the
   cross-shard message latency (``ClusterConfig.shard_lookahead``,
   default ``network.latency``);
3. each shard runs ``env.run(until=T)`` and collects the cross-shard
   messages that *departed* during the window into an outbox;
4. the coordinator routes the outboxes and delivers each record to its
   destination shard at ``arrival = departure + L``.

Safety: the earliest event any shard processes inside a window is at
``T - L`` (step 2), so every cross-shard departure ``d`` satisfies
``d >= T - L`` and its arrival ``d + L >= T`` — never in the receiver's
past.  Progress: ``L > 0`` makes each window strictly advance the
clock, and idle shards jump straight to the cluster-wide next event
(windows are *not* fixed-width).  See DESIGN.md §14 for the proof and
the fidelity deviations of the sharded network boundary.

Cross-shard traffic is exactly the client↔server RPC of
:mod:`repro.pfs`: a client whose target server lives elsewhere talks to
a :class:`~repro.pfs.remote.RemoteServerStub`, which plays the sender
leg of the request message locally and posts a pickled, span-stripped
:class:`~repro.pfs.messages.SubRequest` to the shard outbox; the owning
shard replays arrival → ``server.submit`` → service → reply leg and
posts a reply record that completes the client's (shared, late-reply
safe) attempt event.

Fault plans partition with the cluster: each shard's injector drives
the plan events targeting its own servers, while network windows and
fleet-wide storms install on every shard (a round trip plays its legs
on both shards).  Drop-RNG substreams are keyed by plan name + *plan*
event index, never by the partition, and the coordinator merges
transition logs, recovery counters, audit verdicts and restoration
checks (:func:`merge_fault_records`, :func:`merge_recovery`,
:func:`merge_audit`, :func:`run_sharded_episode`).

Determinism: for a fixed ``(seed, shards)`` the partition, the window
schedule, the per-destination record order (sorted by departure time,
source shard, sequence number) and every per-shard heap order are all
deterministic, so sharded runs are exactly repeatable.  ``shards=1``
runs the serial engine and is therefore *bit-identical* to an
unsharded run.  Request id spaces are partitioned (shard ``k`` draws
ids from ``k * 10**9 + 1``) so merged request lists never collide.

Both engines (:class:`SerialEngine`, :class:`ShardedEngine`) run the
one sequence :func:`_drive` and supply only the pass, the settle and
the drain; every cluster reports one :meth:`ClusterRun.finalize`
summary, and :func:`_merge_results` packs every result from them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import AuditError, SimulationError, WorkloadError

#: Each shard draws request ids from its own block so merged ledgers and
#: request lists never collide (10**9 ids per shard is far beyond any
#: run; the serial path keeps the ordinary shared counter).
ID_STRIDE = 10 ** 9

_INF = float("inf")


# --------------------------------------------------------------------------
# Shard context: partition map + cross-shard mailbox
# --------------------------------------------------------------------------
class ShardContext:
    """Partition ownership and the outgoing cross-shard mailbox.

    Passed to :class:`~repro.pfs.cluster.Cluster` as ``shard=``; the
    cluster builds :class:`~repro.pfs.remote.RemoteServerStub` objects
    for the servers this shard does not own, and the stubs post their
    wire records here.  The worker drains :attr:`outbox` at every
    window barrier.
    """

    def __init__(self, shard_id: int, nshards: int) -> None:
        self.shard_id = shard_id
        self.nshards = nshards
        #: Bound to the shard cluster's environment after construction.
        self.env = None
        #: Records departing this window: see the tuple formats below.
        self.outbox: List[tuple] = []
        #: token -> (attempt_done event, original SubRequest) for
        #: requests awaiting a remote reply.
        self.waiters: Dict[int, tuple] = {}
        self._tokens = itertools.count(1)
        #: Per-shard record sequence — the deterministic tie-breaker for
        #: same-instant departures at the coordinator's routing sort.
        self._seq = itertools.count(1)

    # ----------------------------------------------------------- ownership
    def owns_server(self, server_id: int) -> bool:
        return server_id % self.nshards == self.shard_id

    def owns_client(self, node_id: int) -> bool:
        return node_id % self.nshards == self.shard_id

    def shard_of_server(self, server_id: int) -> int:
        return server_id % self.nshards

    # ------------------------------------------------------------ mailbox
    # Record wire formats (plain picklable tuples):
    #   ("req", dst_shard, depart, src_shard, seq,
    #    token, server_id, client_name, wire_sub_pickle)
    #   ("rep", dst_shard, depart, src_shard, seq, token)
    def post_request(self, stub, client_name: str, wire_sub,
                     attempt_done, original_sub) -> None:
        """Queue one request record; the reply will complete
        ``attempt_done`` with ``original_sub`` as its value."""
        token = next(self._tokens)
        self.waiters[token] = (attempt_done, original_sub)
        self.outbox.append((
            "req", self.shard_of_server(stub.id), self.env.now,
            self.shard_id, next(self._seq),
            token, stub.id, client_name, pickle.dumps(wire_sub)))

    def post_reply(self, dst_shard: int, token: int) -> None:
        """Queue one reply record back to the requesting shard."""
        self.outbox.append((
            "rep", dst_shard, self.env.now, self.shard_id,
            next(self._seq), token))

    def take_outbox(self) -> List[tuple]:
        out = self.outbox
        self.outbox = []
        return out


# --------------------------------------------------------------------------
# The per-shard MPI run: launch only locally-owned ranks
# --------------------------------------------------------------------------
class _ForbiddenBarrier:
    """Barriers need every rank; a shard only has some of them."""

    def wait(self):
        raise WorkloadError(
            "MPI barriers are not supported with shards > 1: the barrier "
            "group spans shards (run this workload with shards=1)")


def _shard_run_cls():
    # Deferred import: repro.pfs imports repro.sim's package __init__,
    # so this module must not import repro.mpi/pfs at its own import
    # time from inside the repro.sim package namespace setup.
    from ..mpi.runtime import MPIRun, RankContext

    class _ShardRun(MPIRun):
        """One mpiexec job restricted to this shard's client nodes.

        Rank ``r`` runs on client node ``r % client_nodes``; the shard
        launches exactly the ranks whose node it owns.  Rank numbering,
        per-rank bodies and per-client RNG streams are unchanged, so
        the union over shards is the serial rank population.
        """

        def __init__(self, cluster, nprocs, client_nodes, shard):
            super().__init__(cluster, nprocs, client_nodes=client_nodes)
            self._shard = shard
            self.barrier = _ForbiddenBarrier()

        @property
        def collective(self):
            raise WorkloadError(
                "collective I/O is not supported with shards > 1: the "
                "two-phase exchange spans shards (run with shards=1)")

        def launch(self, body):
            env = self.cluster.env
            self._rank_procs = [
                env.process(body(RankContext(self, rank)),
                            name=f"rank{rank}")
                for rank in range(self.nprocs)
                if self._shard.owns_client(rank % self.client_nodes)
            ]
            return env.all_of(self._rank_procs)

    return _ShardRun


# --------------------------------------------------------------------------
# One cluster's side of the run sequence (both engines)
# --------------------------------------------------------------------------
class ClusterRun:
    """One cluster's side of the run sequence, shared by both engines:
    measurement reset, timed-pass mark, restoration oracle and the one
    picklable end-of-run summary (:meth:`finalize`) that
    :func:`_merge_results` packs every result from."""

    def __init__(self, cluster, workload, shard_id: int = 0) -> None:
        self.cluster = cluster
        self.workload = workload
        self.shard_id = shard_id
        self._start = 0.0
        self._base_bytes = (0, 0)

    def setup(self) -> None:
        self.workload.prepare(self.cluster)

    def reset(self) -> None:
        """Restore pristine machine state after warm passes; keep the cache.

        A warm pass models a *previous execution* of the program: between
        real executions only the iBridge SSD cache persists — disk head
        positions, elevator queues and OS noise sequences do not.  So the
        reset re-seeds the client jitter streams, parks the device heads,
        and rebuilds the (quiescent) schedulers, in addition to clearing
        counters.  Without this, warm runs would perturb timings of
        workloads iBridge does not even touch (e.g. fully aligned
        patterns) and bias stock-vs-iBridge comparisons.
        """
        from ..block.queue import make_scheduler
        from ..core.manager import IBridgeStats
        from ..util.rng import rng_stream

        cluster = self.cluster
        cluster.requests.clear()
        for client in cluster._clients.values():
            client._rng = rng_stream(cluster.config.seed,
                                     f"client:{client.id}")
        for server in cluster.servers:
            if server.is_remote:
                continue  # sharded build: stubs have no devices to reset
            for unit in server.disks:
                unit.hdd.reset_stats()
                unit.hdd._head = 0
                unit.queue.scheduler = make_scheduler(
                    cluster.config.hdd_scheduler)
                unit.tracer.clear()
                if unit.ibridge is not None:
                    unit.ibridge.stats = IBridgeStats()
            server.ssd.reset_stats()
            server.ssd.reset_streams()
            server.ssd_queue.scheduler = make_scheduler(
                cluster.config.ssd_scheduler)

    def mark_start(self) -> float:
        """Begin the measured pass: align telemetry, snapshot baselines."""
        cl = self.cluster
        if cl.obs is not None and cl.obs.registry is not None:
            # Align the sample clock with the measured pass so warm-run
            # drift does not offset the time series.
            cl.obs.registry.sample(cl.env.now)
        self._start = cl.env.now
        # Server byte counters accumulate across warm passes (the reset
        # deliberately keeps them), so the cross-shard conservation
        # ledger diffs against baselines taken here.
        self._base_bytes = self._served_bytes()
        return self._start

    def _served_bytes(self) -> Tuple[int, int]:
        """(read, written) bytes accounted by this cluster's own servers."""
        local = [s.stats for s in self.cluster.servers if not s.is_remote]
        return (sum(st.bytes_read for st in local),
                sum(st.bytes_written for st in local))

    def health(self) -> List[str]:
        """The restoration oracle (meaningful once settled)."""
        from ..faults.health import restoration_failures
        return restoration_failures(self.cluster)

    def finalize(self) -> Dict:
        """Close out the telemetry; return this cluster's summary."""
        from ..devices.base import Op
        from ..workloads.base import recovery_snapshot
        cl = self.cluster
        stats = cl.ibridge_stats()
        served = self._served_bytes()
        asked = {Op.READ: 0, Op.WRITE: 0}
        for p in cl.requests:
            if p.complete_time is not None and p.submit_time >= self._start:
                asked[p.op] += p.nbytes
        summary: Dict = {
            "shard": self.shard_id,
            "makespan": cl.env.now - self._start,
            "now": cl.env.now,
            "requests": list(cl.requests),
            "ibridge": None if stats is None else dict(vars(stats)),
            "recovery": recovery_snapshot(cl),
            "audit": None if cl.audit is None else cl.audit.verdict(),
            # (read, written) over the measured pass: bytes the servers
            # accounted vs bytes the completed requests asked for.
            "served": (served[0] - self._base_bytes[0],
                       served[1] - self._base_bytes[1]),
            "asked": (asked[Op.READ], asked[Op.WRITE]),
            "fault_records": (None if cl.faults is None else
                              [r.to_dict() for r in cl.faults.records]),
            "obs": None,
            "timeline": None,
        }
        if cl.obs is not None:
            # Export spans/metrics (when paths are configured) and carry
            # the headline critical-path numbers.
            cl.obs.finish_run()
            if cl.obs.tracer is not None:
                report = cl.obs.analyze()
                mags = report.magnifications()
                # Sum and count, not the mean: only multi-piece requests
                # have a magnification, so shard means do not combine
                # by trace count.
                summary["obs"] = {
                    "spans": len(cl.obs.tracer.spans),
                    "traces": report.count,
                    "mag_sum": sum(mags),
                    "mag_count": len(mags),
                }
            if cl.obs.timeline is not None:
                summary["timeline"] = {
                    "rows": len(cl.obs.timeline.rows),
                    "last": {key: series["last"] for key, series
                             in cl.obs.timeline_summary().items()},
                }
        return summary


# --------------------------------------------------------------------------
# The shard worker: one environment + cluster + window protocol endpoint
# --------------------------------------------------------------------------
def _shard_config(cfg, shard_id: int):
    """Give per-shard suffixes to every configured telemetry path so
    concurrent shard workers never interleave writes in one file."""
    changes = {}
    obs_changes = {}
    for name in ("trace_path", "metrics_path", "metrics_text_path",
                 "timeline_path"):
        path = getattr(cfg.obs, name, None)
        if path:
            obs_changes[name] = f"{path}.shard{shard_id}"
    if obs_changes:
        changes["obs"] = dataclasses.replace(cfg.obs, **obs_changes)
    if getattr(cfg.audit, "trace_path", None):
        changes["audit"] = dataclasses.replace(
            cfg.audit, trace_path=f"{cfg.audit.trace_path}.shard{shard_id}")
    return dataclasses.replace(cfg, **changes) if changes else cfg


class ShardWorker(ClusterRun):
    """Owns one shard: its cluster, its clock, its mailbox endpoint.

    Driven by the coordinator through a small RPC surface (`setup`,
    `launch`, `window`, `drain`, `sync`, `reset`, `mark_start`,
    `health`, `finalize`) that works identically in-process
    (``shard_mode="inline"``) and across a pipe to a forked worker
    (``"process"``).  Every return value is a plain picklable object.
    """

    def __init__(self, cfg, workload_pickle: bytes, shard_id: int,
                 nshards: int, lookahead: float,
                 fault_plan=None) -> None:
        super().__init__(None, pickle.loads(workload_pickle), shard_id)
        self.cfg = _shard_config(cfg, shard_id)
        self.nshards = nshards
        self.lookahead = lookahead
        self.fault_plan = fault_plan
        self.ctx = ShardContext(shard_id, nshards)
        self._done = None

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> None:
        from ..pfs.cluster import Cluster
        self.cluster = Cluster(self.cfg, shard=self.ctx,
                               fault_plan=self.fault_plan)
        self.ctx.env = self.cluster.env
        super().setup()

    def launch(self) -> Tuple[float, bool]:
        """Start this shard's ranks; returns (next event time, done?)."""
        wl = self.workload
        run_cls = _shard_run_cls()
        run = run_cls(self.cluster, wl.nprocs, wl.client_nodes or wl.nprocs,
                      self.ctx)
        self._done = run.launch(wl.body)
        return self.cluster.env.peek(), self._done.triggered

    # -------------------------------------------------------------- window
    def window(self, t_end: float, records: List[tuple]
               ) -> Tuple[List[tuple], float, bool, tuple]:
        """Deliver ``records``, run until ``t_end``, drain the outbox.

        Returns ``(outbox, next_event_time, ranks_done, stats)``.
        Records whose arrival falls beyond ``t_end`` stay queued in the
        local heap (their timeout simply fires in a later window) — the
        returned ``next_event_time`` accounts for them via ``peek``.

        ``stats`` is the barrier profiler's ``(busy_ns, idle_ns, events,
        sent, recv)``: integer ``perf_counter_ns`` clocks (so the
        coordinator's identity is exact), the heap sequence delta as a
        zero-cost event count, and the mailbox volume both ways.
        """
        t0 = time.perf_counter_ns()
        env = self.cluster.env
        for rec in records:
            arrival = rec[2] + self.lookahead
            if rec[0] == "req":
                token, server_id, client_name, wire = rec[5:9]
                sub = pickle.loads(wire)
                env.process(
                    self._serve_remote(arrival, rec[3], token,
                                       server_id, client_name, sub),
                    name=f"xshard-req:{rec[3]}:{token}")
            else:
                env.process(self._deliver_reply(arrival, rec[5]),
                            name=f"xshard-rep:{rec[3]}:{rec[5]}")
        seq0 = env._seq
        t1 = time.perf_counter_ns()
        env.run(until=t_end)
        t2 = time.perf_counter_ns()
        outbox = self.ctx.take_outbox()
        t3 = time.perf_counter_ns()
        stats = (t2 - t1,                      # busy: simulating
                 (t1 - t0) + (t3 - t2),        # idle: mailbox plumbing
                 env._seq - seq0, len(outbox), len(records))
        return (outbox, env.peek(),
                self._done is not None and self._done.triggered, stats)

    def _serve_remote(self, arrival: float, src_shard: int, token: int,
                      server_id: int, client_name: str, sub):
        """Replay the server-side middle of a cross-shard round trip."""
        from ..devices.base import Op
        env = self.cluster.env
        delay = arrival - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        server = self.cluster.servers[server_id]
        yield server.submit(sub)
        resp_payload = sub.nbytes if sub.op is Op.READ else 0
        ok = yield self.cluster.network.send_local_leg(
            server.name, client_name, resp_payload)
        if ok:
            self.ctx.post_reply(src_shard, token)

    def _deliver_reply(self, arrival: float, token: int):
        env = self.cluster.env
        delay = arrival - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        waiter = self.ctx.waiters.pop(token, None)
        if waiter is not None:
            attempt_done, original_sub = waiter
            # Shared attempt event: a late reply to an earlier attempt
            # may race a retry's — first one wins, the rest are no-ops.
            if not attempt_done.triggered:
                attempt_done.succeed(original_sub)

    # -------------------------------------------------------- pass control
    def drain(self) -> float:
        self.cluster.drain()
        return self.cluster.env.now

    def peek(self) -> float:
        """Next local event time (seeds the settle case of the window loop)."""
        return self.cluster.env.peek()

    def sync(self, t: float) -> float:
        """Advance the local clock to the cluster-wide time ``t``.

        Used after per-shard drains (which advance clocks unevenly) so
        the next pass's departures share one time base.  No rank is
        active, so request traffic in the outbox is a protocol
        violation.  Leftover *replies* are legal under faults (a retried
        sub-request's earlier serving completed during the drain, after
        its client resolved the shared attempt event) and are dropped:
        delivering them would be a no-op.
        """
        env = self.cluster.env
        if t > env.now or env.peek() <= t:
            env.run(until=t)
        leftover = self.ctx.take_outbox()
        if any(rec[0] != "rep" for rec in leftover):
            raise SimulationError(
                f"shard {self.shard_id}: cross-shard request traffic "
                "during clock sync (rank still active after its pass "
                "ended)")
        return env.now

    # mark_start/finalize are defined on this class, not only
    # inherited, so class-level hooks on ShardWorker's own methods (a
    # benchmark's pass clock) see sharded runs and never the serial one.
    def mark_start(self) -> float:
        return super().mark_start()

    def finalize(self) -> Dict:
        summary = super().finalize()
        self.cluster.shutdown()
        return summary


# --------------------------------------------------------------------------
# Drivers: inline (same process) and forked worker processes
# --------------------------------------------------------------------------
class _InlineDriver:
    """All shards in this process; request-id counter swapped per call.

    The id partition that a forked worker installs once must be
    emulated here: every worker call runs with its shard's private
    ``itertools.count`` installed as ``repro.pfs.messages._request_ids``
    and the caller's counter restored afterwards, so interleaved serial
    runs in the same process stay bit-identical.
    """

    def __init__(self, specs: List[Dict]) -> None:
        self._counters = [itertools.count(s["shard_id"] * ID_STRIDE + 1)
                          for s in specs]
        self.workers = [ShardWorker(**s) for s in specs]

    def _call(self, i: int, method: str, args: tuple):
        from ..pfs import messages
        saved = messages._request_ids
        messages._request_ids = self._counters[i]
        try:
            return getattr(self.workers[i], method)(*args)
        finally:
            messages._request_ids = saved

    def call_all(self, method: str,
                 args_list: Optional[List[tuple]] = None) -> List:
        return [self._call(i, method,
                           args_list[i] if args_list is not None else ())
                for i in range(len(self.workers))]

    def close(self) -> None:
        pass


def _worker_main(conn, spec: Dict) -> None:
    """Forked worker body: install the shard id block, serve RPCs."""
    from ..pfs import messages
    messages._request_ids = itertools.count(
        spec["shard_id"] * ID_STRIDE + 1)
    worker = ShardWorker(**spec)
    while True:
        try:
            method, args = conn.recv()
        except EOFError:
            break
        if method == "_stop":
            break
        try:
            result = getattr(worker, method)(*args)
        except BaseException as exc:  # noqa: BLE001 - forwarded verbatim
            try:
                conn.send(("err", exc))
            except Exception:
                conn.send(("err", SimulationError(
                    f"shard {spec['shard_id']}: {type(exc).__name__}: {exc}")))
        else:
            conn.send(("ok", result))
    conn.close()


class _ProcessDriver:
    """One OS process per shard, command/response over a pipe."""

    def __init__(self, specs: List[Dict]) -> None:
        self._procs = []
        self._conns = []
        for spec in specs:
            parent_conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_worker_main, args=(child_conn, spec), daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def call_all(self, method: str,
                 args_list: Optional[List[tuple]] = None) -> List:
        for i, conn in enumerate(self._conns):
            conn.send((method,
                       args_list[i] if args_list is not None else ()))
        results = []
        error: Optional[BaseException] = None
        for i, conn in enumerate(self._conns):
            try:
                status, value = conn.recv()
            except EOFError:
                status, value = "err", SimulationError(
                    f"shard worker {i} died (pipe closed) during {method!r}")
            if status == "err" and error is None:
                error = (value if isinstance(value, BaseException)
                         else SimulationError(str(value)))
            results.append(value if status == "ok" else None)
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        for conn in self._conns:
            with contextlib.suppress(Exception):
                conn.send(("_stop", ()))
            with contextlib.suppress(Exception):
                conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------
def _route(outboxes: List[List[tuple]], nshards: int) -> List[List[tuple]]:
    """Bucket records by destination shard, deterministically ordered."""
    buckets: List[List[tuple]] = [[] for _ in range(nshards)]
    for records in outboxes:
        for rec in records:
            buckets[rec[1]].append(rec)
    for bucket in buckets:
        # (departure time, source shard, per-source sequence): a total
        # order independent of outbox collection order.
        bucket.sort(key=lambda r: (r[2], r[3], r[4]))
    return buckets


def _run_pass(driver, nshards: int, lookahead: float,
              until: Optional[float] = None,
              profile: Optional[List[Dict[str, Any]]] = None,
              guard=None) -> int:
    """The coordinator's one window loop; returns the windows executed.

    ``until=None`` runs a workload pass: the shards launch their ranks,
    and it ends once all ranks are done and the mailbox is empty.
    ``until=t`` settles past a fault horizon: nothing launches, local
    events before ``t`` open windows, and pending mail is delivered
    even when it arrives after ``t``.  Windows end at ``min(candidates)
    + lookahead`` in both cases (DESIGN.md §14).

    ``profile`` (a list) receives one barrier-profiler record per
    window: per-shard busy/idle ns from the worker's own clock, the
    window's ``wall = max(busy + idle)`` (barrier arithmetic, immune to
    cross-process clock skew), ``wait = wall - work`` and the gating
    shard.  All integers, so ``busy + idle + wait == wall`` exactly.

    ``guard(t_end, events)`` (the chaos budget hook) runs after every
    window with its end time and the engine events all shards
    scheduled in it, and raises to abort.  It runs at the coordinator,
    outside every shard's heap, so it cannot perturb event order.
    """
    if until is None:
        horizon = _INF
        launches = driver.call_all("launch")
        next_times = [nxt for nxt, _ in launches]
        dones = [done for _, done in launches]
    else:
        horizon = until
        next_times = driver.call_all("peek")
        dones = [t >= until for t in next_times]
    pending: List[List[tuple]] = [[] for _ in range(nshards)]
    windows = 0
    t_prev: Optional[float] = None
    while not (all(dones) and not any(pending)):
        candidates = [t for t in next_times if t < horizon]
        for bucket in pending:
            candidates.extend(rec[2] + lookahead for rec in bucket)
        if not candidates:
            raise SimulationError(
                "sharded run cannot progress: every shard is out of "
                "events but some ranks never finished (lost cross-shard "
                "completion?)")
        if t_prev is None:
            t_prev = min(candidates)
        t_next = min(candidates) + lookahead
        results = driver.call_all(
            "window", [(t_next, pending[i]) for i in range(nshards)])
        windows += 1
        if profile is not None:
            stats = [r[3] for r in results]
            busy = [s[0] for s in stats]
            idle = [s[1] for s in stats]
            work = [b + i for b, i in zip(busy, idle)]
            wall = max(work)
            profile.append({
                "t_end": t_next,
                "width": t_next - t_prev,
                "wall_ns": wall,
                "gating": work.index(wall),
                "busy_ns": busy,
                "idle_ns": idle,
                "wait_ns": [wall - w for w in work],
                "events": [s[2] for s in stats],
                "sent": [s[3] for s in stats],
                "recv": [s[4] for s in stats],
            })
        t_prev = t_next
        if guard is not None:
            guard(t_next, sum(r[3][2] for r in results))
        next_times = [r[1] for r in results]
        dones = [r[2] if until is None else r[1] >= until
                 for r in results]
        pending = _route([r[0] for r in results], nshards)
    return windows


# --------------------------------------------------------------------------
# Engines: the pass, the settle and the drain
# --------------------------------------------------------------------------
#: Simulated seconds between two calls of the serial engine's guard.
_GUARD_PERIOD = 0.05


def _guard_process(env, guard):
    """The serial engine's guard: a sim process calling ``guard(now,
    events scheduled since the last call)`` every ``_GUARD_PERIOD``.
    Its schedule is a pure function of the run, so determinism holds."""
    seen = 0
    while True:
        yield env.timeout(_GUARD_PERIOD)
        guard(env.now, env._seq - seen)
        seen = env._seq


class SerialEngine(ClusterRun):
    """The serial engine over an existing cluster that the caller owns
    (never shut down here): a pass is one MPIRun to completion, and
    ``guard`` runs as a sim process (:func:`_guard_process`)."""

    profile = None

    def __init__(self, cluster, workload, guard=None) -> None:
        super().__init__(cluster, workload)
        self.cfg = cluster.config
        if guard is not None:
            cluster.env.process(_guard_process(cluster.env, guard),
                                name="budget-guard")

    def call_all(self, method: str) -> List:
        return [getattr(self, method)()]

    def run_pass(self, timed: bool = False) -> int:
        from ..mpi.runtime import MPIRun
        wl = self.workload
        MPIRun(self.cluster, wl.nprocs, client_nodes=wl.client_nodes
               ).run_to_completion(wl.body)
        return 0

    def settle(self, t: float) -> int:
        if self.cluster.env.now < t:
            self.cluster.env.run(until=t)
        return 0

    def drain(self) -> None:
        self.cluster.drain()

    def close(self) -> None:
        pass


class ShardedEngine:
    """``cfg.shards`` shard workers behind an inline or forked
    driver, advanced by :func:`_run_pass`: ``guard(t_end, events)`` runs
    at the coordinator after every window, and the timed pass is
    profiled into :attr:`profile` (``result.extra["shard_profile"]``)."""

    def __init__(self, cfg, workload, fault_plan=None, guard=None) -> None:
        self.cfg, self.workload, self.guard = cfg, workload, guard
        self.nshards = cfg.shards
        self.lookahead = (cfg.shard_lookahead
                          if cfg.shard_lookahead is not None
                          else cfg.network.latency)
        self.profile: Dict[str, Any] = {
            "nshards": self.nshards, "lookahead": self.lookahead,
            "windows": []}
        wire = pickle.dumps(workload)
        specs = [{"cfg": cfg, "workload_pickle": wire, "shard_id": k,
                  "nshards": self.nshards, "lookahead": self.lookahead,
                  "fault_plan": fault_plan}
                 for k in range(self.nshards)]
        self.driver = (_InlineDriver if cfg.shard_mode == "inline"
                       else _ProcessDriver)(specs)
        self.call_all = self.driver.call_all
        self.close = self.driver.close

    def run_pass(self, timed: bool = False) -> int:
        return _run_pass(self.driver, self.nshards, self.lookahead,
                         profile=self.profile["windows"] if timed else None,
                         guard=self.guard)

    def settle(self, t: float) -> int:
        windows = _run_pass(self.driver, self.nshards, self.lookahead,
                            until=t, guard=self.guard)
        self._sync(t)
        return windows

    def drain(self) -> None:
        """Drain every shard, then sync the clocks at the slowest one."""
        self._sync(max(self.call_all("drain")))

    def _sync(self, t: float) -> None:
        self.call_all("sync", [(t,)] * self.nshards)


def _engine(cfg, workload, fault_plan=None, guard=None):
    """The engine ``cfg.shards`` selects, over a fresh cluster."""
    if cfg.shards <= 1:
        from ..pfs.cluster import Cluster
        return SerialEngine(Cluster(cfg, fault_plan=fault_plan), workload,
                            guard=guard)
    return ShardedEngine(cfg, workload, fault_plan=fault_plan, guard=guard)


# --------------------------------------------------------------------------
# The one run sequence
# --------------------------------------------------------------------------
def _drive(engine, warm_runs: int, reset_after_warm: bool, drain: bool,
           settle_until: Optional[float] = None,
           episode: bool = False) -> Dict[str, Any]:
    """The run sequence of every engine: setup, warm passes, reset,
    ``mark_start``, the timed pass, finalize, close.  With ``drain``
    every pass ends with the engine's drain — writeback after the
    program ends is part of the measured time.

    ``episode`` is the chaos shape: a ReproError from the passes is
    returned instead of raised, the engine settles past
    ``settle_until`` and drains once more (not after a budget abort,
    which leaves the run torn), the restoration oracle is read only if
    that settle finished, and the clusters are always finalized.
    """
    from ..errors import EpisodeBudgetError, ReproError

    def one_pass(timed: bool = False) -> int:
        windows = engine.run_pass(timed)
        if drain:
            engine.drain()
        return windows

    out: Dict[str, Any] = {"error": None, "settled": False,
                           "restoration": [], "windows": 0}
    try:
        engine.call_all("setup")
        try:
            for _ in range(max(0, warm_runs)):
                out["windows"] += one_pass()
            if warm_runs and reset_after_warm:
                engine.call_all("reset")
            engine.call_all("mark_start")
            out["windows"] += one_pass(timed=True)
        except ReproError as exc:
            if not episode:
                raise
            out["error"] = exc
        if episode and not isinstance(out["error"], EpisodeBudgetError):
            try:
                if settle_until is not None:
                    out["windows"] += engine.settle(settle_until)
                engine.drain()
                out["settled"] = True
            except ReproError as exc:
                out["error"] = out["error"] or exc
        if out["settled"]:
            for failures in engine.call_all("health"):
                out["restoration"].extend(failures)
        out["summaries"] = engine.call_all("finalize")
    finally:
        engine.close()
    return out


def run_engine(engine, warm_runs: int = 0, drain: bool = True,
               reset_after_warm: bool = True):
    """Run ``engine``'s workload through :func:`_drive` and pack the
    :class:`~repro.analysis.metrics.RunResult`."""
    out = _drive(engine, warm_runs, reset_after_warm, drain)
    return _merge_results(engine.cfg, engine.workload, out["summaries"],
                          engine.profile)


def run_sharded_workload(cfg, workload, warm_runs: int = 0,
                         drain: bool = True,
                         reset_after_warm: bool = True,
                         fault_plan=None):
    """Run ``workload`` on a fresh cluster partitioned into ``cfg.shards``.

    Same pass structure as :func:`repro.workloads.base.run_workload`,
    with the result merged across shards (see :func:`_merge_results`):
    requests concatenated (canonically sorted), makespan = the slowest
    shard's, iBridge/obs counters summed, and the merged audit verdict
    (plus the cross-shard byte-conservation check) on
    ``result.audit_verdict``.  ``shards=1`` runs the serial engine and
    is bit-identical to :func:`~repro.workloads.base.run_workload`.

    ``fault_plan`` installs the plan *partitioned* across the shard
    injectors (see ``repro.faults.partition_events``); the merged
    result carries the coordinator-sorted transition log on
    ``result.fault_events`` (each record tagged with its driving shard)
    and the key-wise sum of the per-shard recovery snapshots on
    ``result.recovery``.
    """
    cfg.validate()
    return run_engine(_engine(cfg, workload, fault_plan), warm_runs,
                      drain, reset_after_warm)


def run_sharded_episode(cfg, workload, fault_plan=None,
                        settle_until: Optional[float] = None,
                        warm_runs: int = 0, guard=None) -> Dict:
    """Chaos-shaped run on either engine: passes, settle past the
    horizon, drain.

    Never raises for in-simulation failures (see :func:`_drive`).
    Returns ``summaries`` (per-cluster summaries), ``error`` (the first
    caught exception or ``None``), ``settled``, ``restoration``
    (oracle findings, shard by shard) and ``windows`` (all passes +
    settle; 0 on the serial engine).  ``guard(now, events)`` is called
    with the simulated time and the engine events scheduled since its
    previous call, and raises to abort.
    """
    cfg.validate()
    return _drive(_engine(cfg, workload, fault_plan, guard), warm_runs,
                  True, True, settle_until=settle_until, episode=True)


# --------------------------------------------------------------------------
# The one result packer
# --------------------------------------------------------------------------
def merge_audit(summaries: List[Dict]) -> Optional[Dict]:
    """Combine per-cluster audit verdicts into one verdict (``None``
    when nothing was audited).  One verdict merges to an equal copy."""
    verdicts = [s["audit"] for s in summaries if s["audit"] is not None]
    if not verdicts:
        return None
    firsts = [v["first"] for v in verdicts if v["first"] is not None]
    return {
        "ok": all(v["ok"] for v in verdicts),
        "violations": sum(v["violations"] for v in verdicts),
        "checks": sorted({c for v in verdicts for c in v["checks"]}),
        "watchdog_fired": sum(v["watchdog_fired"] for v in verdicts),
        "first": (min(firsts, key=lambda f: f.get("t") or 0.0)
                  if firsts else None),
    }


def merge_fault_records(summaries: List[Dict]) -> List[Dict]:
    """One cluster-wide fault transition log.

    A single summary's log is returned as its injector recorded it.
    Shard logs are tagged with the shard that drove them and sorted on
    ``(time, plan index, begin-before-end, shard)`` — the serial
    injector's chronological/plan order, so a targeted-only plan's
    merged log equals the serial log modulo the ``shard`` tags.
    Broadcast events (network windows, fleet storms) legitimately
    appear once per shard: each shard applied the window to its own
    fabric view, and the merged log says so.
    """
    if len(summaries) == 1:
        return list(summaries[0]["fault_records"] or ())
    events: List[Dict] = []
    for s in summaries:
        for rec in s["fault_records"] or ():
            events.append(dict(rec, shard=s["shard"]))
    events.sort(key=lambda r: (r["time"], r["index"],
                               0 if r["phase"] == "begin" else 1,
                               r["shard"]))
    return events


def merge_recovery(summaries: List[Dict]) -> Dict[str, float]:
    """Key-wise sum of per-cluster recovery snapshots.

    Every counter in :func:`repro.workloads.base.recovery_snapshot` is
    a sum over disjoint per-shard populations (local clients, local
    servers, the local fabric view), so addition is the exact merge.
    """
    merged: Dict[str, float] = {}
    for s in summaries:
        for key, value in s["recovery"].items():
            merged[key] = merged[key] + value if key in merged else value
    return merged


def _merge_results(cfg, workload, summaries: List[Dict],
                   profile: Optional[Dict[str, Any]] = None):
    """Pack a run's :class:`~repro.analysis.metrics.RunResult` from its
    per-cluster summaries.  One summary (the serial engine) packs what
    its cluster measured; shard summaries merge, and only they add the
    shard extras and the merged audit verdict with the cross-shard
    conservation ledger."""
    from ..analysis.metrics import RunResult

    sharded = len(summaries) > 1
    requests = [r for s in summaries for r in s["requests"]]
    if sharded:
        requests.sort(key=lambda r: (
            r.complete_time if r.complete_time is not None else _INF,
            r.submit_time if r.submit_time is not None else _INF,
            r.rank, r.offset, r.id))

    agg = None
    if any(s["ibridge"] for s in summaries):
        from ..core.manager import IBridgeStats
        agg = IBridgeStats()
        for s in summaries:
            if s["ibridge"]:
                for name, value in s["ibridge"].items():
                    setattr(agg, name, getattr(agg, name) + value)

    result = RunResult(
        name=workload.name,
        makespan=max(s["makespan"] for s in summaries),
        total_bytes=workload.total_bytes,
        requests=requests,
        ssd_fraction=agg.ssd_fraction if agg is not None else 0.0,
    )
    obs_parts = [s["obs"] for s in summaries if s["obs"] is not None]
    if obs_parts:
        mag_count = sum(o["mag_count"] for o in obs_parts)
        result.extra["obs_spans"] = float(sum(o["spans"] for o in obs_parts))
        result.extra["obs_traces"] = float(
            sum(o["traces"] for o in obs_parts))
        result.extra["obs_mean_magnification"] = (
            sum(o["mag_sum"] for o in obs_parts) / mag_count
            if mag_count else 0.0)
    timelines = [s["timeline"] for s in summaries
                 if s["timeline"] is not None]
    if timelines:
        result.extra["timeline_rows"] = float(
            sum(t["rows"] for t in timelines))
        # Flat last-value gauges so downstream consumers (the svc
        # worker result payload, the run report) need no timeline
        # object.  Every gauge is labelled by a server or client that
        # exactly one shard owns, so the union over shards is exact.
        for t in timelines:
            for key, last in t["last"].items():
                result.extra[f"timeline_last[{key}]"] = last
    if any(s["fault_records"] is not None for s in summaries):
        result.fault_events = merge_fault_records(summaries)
        result.recovery = merge_recovery(summaries)
    if not sharded:
        return result

    result.extra["shards"] = float(len(summaries))
    result.extra["shard_windows"] = float(len(profile["windows"]))
    # Wall-clock telemetry, deliberately excluded from run_digest (the
    # digest hashes only numeric extras): the same simulated run
    # profiles differently on every host.
    result.extra["shard_profile"] = profile

    merged = merge_audit(summaries)

    # Cross-shard conservation: with no timeouts (hence no duplicate
    # at-least-once servings), the bytes the servers accounted during
    # the measured pass must equal the bytes the completed application
    # requests asked for — the one ledger no single shard can check.
    timeouts = sum(s["recovery"]["timeouts"] for s in summaries)
    conserved = True
    if timeouts == 0:
        served = [sum(s["served"][i] for s in summaries) for i in (0, 1)]
        asked = [sum(s["asked"][i] for s in summaries) for i in (0, 1)]
        conserved = served == asked
        if not conserved:
            message = (f"servers read {served[0]} B for {asked[0]} B of "
                       f"completed read requests, wrote {served[1]} B "
                       f"for {asked[1]} B of completed write requests")
            if merged is None:
                merged = {"ok": False, "violations": 0, "checks": [],
                          "watchdog_fired": 0, "first": None}
            merged["ok"] = False
            merged["violations"] += 1
            merged["checks"] = sorted(set(merged["checks"])
                                      | {"xshard-conservation"})
            if merged["first"] is None:
                merged["first"] = {"check": "xshard-conservation",
                                   "message": message, "t": None}
            if cfg.audit.enabled and cfg.audit.strict:
                raise AuditError(f"[xshard-conservation] {message}")
    result.extra["xshard_conserved"] = 1.0 if conserved else 0.0
    result.audit_verdict = merged
    return result


# --------------------------------------------------------------------------
# Canonical run digests
# --------------------------------------------------------------------------
def run_digest(result) -> str:
    """A canonical sha256 over everything behavior-visible in a result.

    Request *ids* are excluded on purpose: the sharded engine draws ids
    from per-shard blocks (and back-to-back serial runs in one process
    keep counting up), but ids are labels — they never influence the
    event schedule.  Floats are hashed via ``float.hex`` so the digest
    is exact, not printf-rounded.

    Only numeric extras are hashed: non-numeric extras (the wall-clock
    ``shard_profile``) are host telemetry that varies run over run on
    identical simulated behavior.
    """
    def fhex(x):
        return None if x is None else float(x).hex()

    reqs = sorted(result.requests, key=lambda r: (
        r.complete_time if r.complete_time is not None else -1.0,
        r.submit_time if r.submit_time is not None else -1.0,
        r.rank, r.offset, r.nbytes, r.op.value))
    payload = {
        "name": result.name,
        "makespan": fhex(result.makespan),
        "total_bytes": int(result.total_bytes),
        "ssd_fraction": fhex(result.ssd_fraction),
        "requests": [
            [r.op.value, r.rank, r.offset, r.nbytes,
             fhex(r.submit_time), fhex(r.complete_time)] for r in reqs],
        "extra": {k: fhex(v) for k, v in sorted(result.extra.items())
                  if v is None or isinstance(v, (int, float))},
        "recovery": {k: fhex(v) for k, v in sorted(result.recovery.items())},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Barrier-profile analysis
# --------------------------------------------------------------------------
def analyze_shard_profile(profile: Dict[str, Any]) -> Dict[str, Any]:
    """Digest a ``result.extra["shard_profile"]`` record.

    Per shard, total busy (simulating), idle (mailbox plumbing), and
    barrier-wait nanoseconds, plus how many windows that shard gated
    (was the slowest worker in).  The *bottleneck* shard is the one
    with the largest total work (busy + idle) — the shard the barriers
    spend the run waiting for.  *Parallel efficiency* is aggregate busy
    time over aggregate wall time across all workers,
    ``sum(busy) / (nshards * sum(wall))``: 1.0 means every worker
    simulated for the whole run, lower means barrier waits and mailbox
    plumbing ate the difference.
    """
    nshards = profile["nshards"]
    windows = profile["windows"]

    def column(field: str) -> List[int]:
        return [sum(w[field][k] for w in windows) for k in range(nshards)]

    busy, idle, wait, events, sent, recv = map(column, (
        "busy_ns", "idle_ns", "wait_ns", "events", "sent", "recv"))
    gated = [sum(1 for w in windows if w["gating"] == k)
             for k in range(nshards)]
    wall_total = sum(w["wall_ns"] for w in windows)
    work = [b + i for b, i in zip(busy, idle)]
    bottleneck = work.index(max(work)) if nshards else 0
    efficiency = (sum(busy) / (nshards * wall_total)
                  if wall_total > 0 else 0.0)
    widths = [w["width"] for w in windows]
    return {
        "nshards": nshards,
        "lookahead": profile["lookahead"],
        "windows": len(windows),
        "mean_width": sum(widths) / len(widths) if widths else 0.0,
        "wall_ns": wall_total,
        "busy_ns": busy,
        "idle_ns": idle,
        "wait_ns": wait,
        "events": events,
        "sent": sent,
        "recv": recv,
        "gated_windows": gated,
        "bottleneck": bottleneck,
        "efficiency": efficiency,
    }


def format_shard_profile(profile: Dict[str, Any]) -> str:
    """Render :func:`analyze_shard_profile` as a console table."""
    a = analyze_shard_profile(profile)
    ms = 1e-6  # ns -> ms

    lines = [
        f"shard barrier profile: {a['windows']} windows, "
        f"lookahead {a['lookahead']:g}s, "
        f"mean width {a['mean_width']:.6g}s",
        f"parallel efficiency {a['efficiency']:.1%} "
        f"(bottleneck: shard {a['bottleneck']})",
        f"{'shard':>5} {'busy ms':>10} {'idle ms':>10} {'wait ms':>10} "
        f"{'events':>9} {'sent':>7} {'recv':>7} {'gated':>6}",
    ]
    for k in range(a["nshards"]):
        tag = "*" if k == a["bottleneck"] else " "
        lines.append(
            f"{k:>4}{tag} {a['busy_ns'][k] * ms:>10.2f} "
            f"{a['idle_ns'][k] * ms:>10.2f} {a['wait_ns'][k] * ms:>10.2f} "
            f"{a['events'][k]:>9} {a['sent'][k]:>7} {a['recv'][k]:>7} "
            f"{a['gated_windows'][k]:>6}")
    return "\n".join(lines)
