#!/usr/bin/env python3
"""The repo benchmark: simulator speed and modelled results of three cells.

Run from the repository root::

    python3 perfbench/run.py --workload unaligned_read --seed 20130520 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: host speed and set-up
time from untraced passes, peak memory, and the simulated (model)
outputs pooled over the run's seeds.  ``--trace 1`` prints the
per-layer metrics from one traced pass instead (see ``probe.py`` and
``layers.py``).  Either way every pass is checked (all requests
complete, payload conserved, no timeouts/retries/failures, run digests
repeat at a seed, sharded == serial request totals) and a shorter
strict-audit run vouches for the conservation ledgers.  Any failed
check makes the exit status non-zero.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

The simulated metrics are outputs of an unvalidated model (DESIGN.md
section 2): they detect changes to results, not accuracy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("unaligned_read", "small_write",
                             "aligned_sharded"))
    ap.add_argument("--seed", type=int, default=20130520)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import bench, cells

    cell = cells.CELLS[args.workload]
    print(f"perfbench {cell.name} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()}")
    print("shape " + json.dumps(cell.shape(), sort_keys=True))
    if args.trace:
        report = bench.measure_layers(cell, args.seed)
    else:
        report = bench.measure_end_to_end(cell, args.seed, args.seconds)
    report.failures.extend(bench.verify_audited(cell, args.seed))
    for line in report.notes:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    for failure in report.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not report.failures,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
