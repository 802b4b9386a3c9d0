"""CI smoke for the partitioned-horizon parallel engine.

One fig2-style unaligned cell, four ways:

1. serial (the classic engine),
2. ``shards=1`` through ``run_sharded_workload`` — digest must equal
   serial **exactly** (the bit-identity contract),
3. two 2-shard process-mode runs under the strict auditor — digests
   must equal each other (self-determinism), verdict must be clean,
   and the cross-shard conservation ledger must balance,
4. a request-population cross-check: the sharded run completes the
   same requests and moves the same bytes as the serial run.

``--profile-out PATH`` additionally writes the 2-shard run's barrier
profile (``result.extra["shard_profile"]``) as JSON and prints the
per-shard busy/idle/wait analyzer table — the input ``python -m
repro.obs.report --shard-profile`` renders.

``--fault-plan`` runs the same four ways under a two-window device
fail-slow plan (one window per shard's territory), still under the
strict auditor; additionally the merged injector records must equal
the serial record stream modulo shard tags, and the merged recovery
ledger must match serial.

Exits nonzero on the first broken expectation.

    PYTHONPATH=src python scripts/shard_smoke.py [--scale 0.002]
    PYTHONPATH=src python scripts/shard_smoke.py --fault-plan
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.config import ClusterConfig  # noqa: E402
from repro.experiments.common import file_bytes  # noqa: E402
from repro.pfs.cluster import Cluster  # noqa: E402
from repro.sim.parallel import (format_shard_profile, run_digest,  # noqa: E402
                                run_sharded_workload)
from repro.units import KiB  # noqa: E402
from repro.workloads.base import run_workload  # noqa: E402
from repro.workloads.mpi_io_test import MpiIoTest  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def smoke_plan():
    """Two device fail-slow windows, one in each 2-shard territory
    (servers 0 and 3 of 8 map to shards 0 and 1), opening early enough
    to bite the small CI cell."""
    from repro.faults.plan import FaultPlan, fail_slow

    plan = FaultPlan(name="smoke-fail-slow", events=[
        fail_slow(0, 6.0, start=0.001, duration=0.01),
        fail_slow(3, 4.0, start=0.002, duration=0.01),
    ])
    plan.validate()
    return plan


def smoke(scale: float, plan=None, profile_out=None) -> int:
    """Serial, ``shards=1`` and two 2-shard runs of one cell, checked
    against each other; ``plan`` runs all of them under that fault plan."""
    faulted = "faulted " if plan is not None else ""
    nprocs, request = 16, 65 * KiB
    size = file_bytes(scale, nprocs=nprocs, request_size=request)
    make = lambda: MpiIoTest(nprocs=nprocs, request_size=request,
                             file_size=size)
    base = ClusterConfig(num_servers=8, client_jitter=0.0)
    print(f"cell: {nprocs} ranks x {request} B unaligned, "
          f"{size // 1024} KiB file, 8 servers"
          + ("" if plan is None
             else f", plan {plan.name!r} ({len(plan)} windows)"))

    serial = run_workload(Cluster(base, fault_plan=plan), make())
    serial_digest = run_digest(serial)
    print(f"{'serial ' + faulted + 'digest':<22} {serial_digest}")
    if plan is not None:
        check(len(serial.fault_events) == 2 * len(plan),
              "serial run logged begin+end for every window")

    one = run_sharded_workload(base.with_shards(1), make(), fault_plan=plan)
    print(f"shards=1 digest        {run_digest(one)}")
    check(run_digest(one) == serial_digest,
          f"{faulted}shards=1 is bit-identical to the serial engine")

    sharded_cfg = base.with_shards(2, shard_mode="process").with_audit()
    first = run_sharded_workload(sharded_cfg, make(), fault_plan=plan)
    second = run_sharded_workload(sharded_cfg, make(), fault_plan=plan)
    d1, d2 = run_digest(first), run_digest(second)
    print(f"2-shard digest (run 1) {d1}")
    print(f"2-shard digest (run 2) {d2}")
    check(d1 == d2,
          f"{faulted}2-shard runs are deterministic (strict audit on)")
    check(bool(first.audit_verdict["ok"]),
          f"strict audit verdict clean ({first.audit_verdict})")
    check(first.extra.get("xshard_conserved") == 1.0,
          "cross-shard byte-conservation ledger balances")

    if plan is not None:
        stripped = [{k: v for k, v in e.items() if k != "shard"}
                    for e in first.fault_events]
        check(stripped == serial.fault_events,
              "merged injector records equal serial modulo shard tags")
        check(all(e["shard"] == e["event"]["server"] % 2
                  for e in first.fault_events),
              "each record was driven by the shard owning its server")
        check(first.recovery is not None and serial.recovery is not None
              and first.recovery["timeouts"] == serial.recovery["timeouts"],
              "merged recovery ledger matches serial")
    check(len(first.requests) == len(serial.requests),
          f"request count matches serial ({len(first.requests)})")
    key = lambda r: (r.rank, r.offset, r.nbytes, r.op)
    check(sorted(map(key, first.requests))
          == sorted(map(key, serial.requests)),
          "request population (rank, offset, nbytes, op) matches serial")
    check(sum(r.nbytes for r in first.requests)
          == sum(r.nbytes for r in serial.requests),
          "total bytes match serial")
    print(f"windows={first.extra['shard_windows']:.0f}, "
          f"serial makespan {serial.makespan:.6f}s vs "
          f"2-shard {first.makespan:.6f}s")

    profile = first.extra.get("shard_profile")
    check(isinstance(profile, dict) and profile.get("windows"),
          "barrier profile recorded in result.extra['shard_profile']")
    print(format_shard_profile(profile))
    if profile_out:
        with open(profile_out, "w", encoding="utf-8") as fh:
            json.dump(profile, fh)
        print(f"barrier profile written to {profile_out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="write the 2-shard barrier profile as JSON")
    parser.add_argument("--fault-plan", action="store_true",
                        help="run the faulted variant (device fail-slow "
                             "windows under the strict auditor)")
    args = parser.parse_args()
    return smoke(args.scale, smoke_plan() if args.fault_plan else None,
                 args.profile_out)


if __name__ == "__main__":
    sys.exit(main())
