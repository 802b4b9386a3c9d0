"""Worker-fleet process: claim cells, execute, heartbeat, repeat.

A worker is deliberately dumb — all coordination state lives in the
:class:`~repro.svc.store.JobStore` (directly, or behind the server's
worker API).  The loop:

1. ``claim`` the oldest queued job under a lease;
2. execute it through the existing experiment-cell machinery — a warm
   ``.ibridge-cache`` hit completes the job with **zero** simulation
   steps, which is how resubmitted matrices finish instantly;
3. ``heartbeat`` on a side thread while the cell simulates, extending
   the lease so a long cell is not mistaken for a dead worker;
4. ``complete`` (or ``fail``) and go back to 1.

``kill -9`` safety falls out of the store's lease protocol: a killed
worker stops heartbeating, its claim expires, and the job requeues for
another worker — and the exactly-once result publish means even a
*zombie* (a worker that was only presumed dead) cannot double-record
the result.  There is deliberately no worker-side persistence: a worker
owns nothing the store does not.

Workers reach the queue through either transport:

* :class:`DirectQueue` — same-host access to the SQLite file; what
  crash tests and single-box fleets use.
* ``repro.svc.client.HttpQueue`` — the server's ``/claim`` /
  ``/heartbeat`` / ``/complete`` / ``/fail`` endpoints for fleets on
  the far side of a network (QCFractal's manager model).
"""

from __future__ import annotations

import os
import threading
import traceback
import uuid
from typing import Any, Callable, Dict, Optional, Tuple

from ..experiments.runner import (ResultCache, cell, encode_result)
from .store import JobStore

DEFAULT_LEASE = 30.0
DEFAULT_POLL = 0.5


# ----------------------------------------------------------- execution
def execute_submission(kind: str, spec: Dict[str, Any], key: str,
                       cache_dir: Optional[str] = None,
                       use_cache: bool = True) -> Tuple[Any, bool]:
    """Run one job payload; returns ``(value, from_cache)``.

    ``kind="cell"`` goes through the shared on-disk result cache under
    the submitter's key — the same key ``run_cells`` would compute, so
    the service and the CLI warm each other's caches.  ``campaign``
    jobs always execute (a fuzz campaign that does not run has no
    value); their dedup happens at the store's result table instead.
    """
    if kind == "cell":
        c = cell(spec["fn"], **spec["kwargs"])
        cache = ResultCache(cache_dir) if use_cache else None
        if cache is not None:
            hit, value = cache.get(key)
            if hit:
                return value, True
        value = c.resolve()(**dict(c.kwargs))
        if cache is not None:
            cache.put(key, value)
        return value, False
    if kind == "campaign":
        from ..chaos.runner import run_campaign_job
        return run_campaign_job(spec), False
    raise ValueError(f"unknown job kind {kind!r}")


def timeline_last_values(value: Any) -> Dict[str, float]:
    """Extract a result's timeline last-value gauges (``{series: v}``).

    Timeline-enabled runs attach flat ``timeline_last[<series>]`` float
    extras to their results (see :func:`repro.sim.parallel._merge_results`);
    workers ship them with ``complete`` so the service's ``/metrics``
    can expose the fleet's last-seen series values without ever
    unpickling a result.  Returns ``{}`` for results without extras.
    """
    extra = getattr(value, "extra", None)
    if extra is None and isinstance(value, dict):
        extra = value.get("extra")
    if not isinstance(extra, dict):
        return {}
    out: Dict[str, float] = {}
    for key, val in extra.items():
        if (isinstance(key, str) and key.startswith("timeline_last[")
                and key.endswith("]") and isinstance(val, (int, float))):
            out[key[len("timeline_last["):-1]] = float(val)
    return out


# ------------------------------------------------------------- queue API
class DirectQueue:
    """Queue transport backed by direct access to the SQLite store."""

    def __init__(self, store: JobStore) -> None:
        self.store = store

    def claim(self, worker: str, lease: float) -> Optional[Dict[str, Any]]:
        return self.store.claim(worker, lease)

    def heartbeat(self, worker: str, job_id: int, lease: float) -> bool:
        return self.store.heartbeat(worker, job_id, lease)

    def complete(self, worker: str, job_id: int, payload: bytes,
                 cached: bool,
                 timeline: Optional[Dict[str, float]] = None) -> str:
        # Direct store access has no /metrics surface; the timeline
        # summary only matters on the HTTP transport.
        return self.store.complete(job_id, worker, payload, cached=cached)

    def fail(self, worker: str, job_id: int, error: str) -> str:
        return self.store.fail(job_id, worker, error)


# --------------------------------------------------------------- worker
class Worker:
    """One claim-execute-complete loop (run it in a thread or process)."""

    def __init__(self, queue, cache_dir: Optional[str] = None,
                 worker_id: Optional[str] = None,
                 lease: float = DEFAULT_LEASE, poll: float = DEFAULT_POLL,
                 max_jobs: Optional[int] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.queue = queue
        self.cache_dir = cache_dir
        self.id = worker_id or f"w-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.lease = lease
        self.poll = poll
        self.max_jobs = max_jobs
        self.log = log or (lambda msg: None)
        self.jobs_done = 0
        self.stop_event = threading.Event()

    # one heartbeat every third of the lease keeps two missed beats of
    # slack before the claim expires.
    @property
    def _beat_interval(self) -> float:
        return max(0.05, self.lease / 3.0)

    def stop(self) -> None:
        """Ask the loop to exit after the current job."""
        self.stop_event.set()

    def run(self) -> int:
        """Claim/execute until stopped (or ``max_jobs``); jobs done."""
        self.log(f"worker {self.id} up (lease {self.lease}s)")
        while not self.stop_event.is_set():
            try:
                job = self.queue.claim(self.id, self.lease)
            except Exception as exc:  # queue/transport hiccup: back off
                self.log(f"worker {self.id}: claim error: {exc}")
                self.stop_event.wait(self.poll)
                continue
            if job is None:
                if self.stop_event.wait(self.poll):
                    break
                continue
            self._run_job(job)
            self.jobs_done += 1
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
        self.log(f"worker {self.id} down ({self.jobs_done} job(s))")
        return self.jobs_done

    def _run_job(self, job: Dict[str, Any]) -> None:
        job_id = job["id"]
        self.log(f"worker {self.id}: job {job_id} "
                 f"({job['kind']}, attempt {job['attempts']})")
        beat_stop = threading.Event()
        beater = threading.Thread(
            target=self._beat_loop, args=(job_id, beat_stop),
            name=f"{self.id}-beat", daemon=True)
        beater.start()
        try:
            value, cached = execute_submission(
                job["kind"], job["spec"], job["key"], self.cache_dir)
            payload = encode_result(value)
        except Exception:
            beat_stop.set()
            beater.join()
            err = traceback.format_exc(limit=20)
            status = self.queue.fail(self.id, job_id, err)
            self.log(f"worker {self.id}: job {job_id} raised -> {status}")
            return
        beat_stop.set()
        beater.join()
        status = self.queue.complete(self.id, job_id, payload, cached,
                                     timeline=timeline_last_values(value))
        self.log(f"worker {self.id}: job {job_id} "
                 f"{'cache-hit' if cached else 'executed'} -> {status}")

    def _beat_loop(self, job_id: int, stop: threading.Event) -> None:
        while not stop.wait(self._beat_interval):
            try:
                if not self.queue.heartbeat(self.id, job_id, self.lease):
                    # Lease lost (we were presumed dead).  Keep
                    # computing — complete() is stale-safe — but stop
                    # beating a claim that is no longer ours.
                    self.log(f"worker {self.id}: lost lease on {job_id}")
                    return
            except Exception as exc:
                self.log(f"worker {self.id}: heartbeat error: {exc}")


def run_worker(queue, cache_dir: Optional[str] = None,
               worker_id: Optional[str] = None, lease: float = DEFAULT_LEASE,
               poll: float = DEFAULT_POLL, max_jobs: Optional[int] = None,
               log: Optional[Callable[[str], None]] = print,
               install_signals: bool = False) -> int:
    """Build and run one :class:`Worker`; returns jobs completed.

    ``install_signals`` hooks SIGTERM/SIGINT to a graceful stop (finish
    the current job, then exit) — used by the CLI entry point.
    """
    worker = Worker(queue, cache_dir=cache_dir, worker_id=worker_id,
                    lease=lease, poll=poll, max_jobs=max_jobs, log=log)
    if install_signals:
        import signal

        def _stop(_signum, _frame):
            worker.stop()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    return worker.run()
