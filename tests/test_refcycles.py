"""Reference-cycle guard: a cluster run leaves no engine object to the
cyclic collector.

Every process, event and block request a run creates must be freed by
reference count once it is finished (docs/PERFORMANCE.md section 7).
With the collector off, each cell is run once first so lazy imports
and one-time caches are settled, and that cluster is collected.  A
``DEBUG_SAVEALL`` collection after a second run, taken while its
cluster is still referenced, names whatever the run left unreachable.
Import leftovers (functions, cells) may show up; engine objects may
not.
"""

import gc
import types
from collections import Counter

import pytest

from repro import Cluster, MpiIoTest, run_workload
from repro.block.request import BlockRequest
from repro.devices.base import Op
from repro.experiments.common import base_config, scaled_ibridge
from repro.experiments.fig9 import make_btio
from repro.sim import Event
from repro.units import GiB, KiB

ENGINE_TYPES = (Event, BlockRequest, types.GeneratorType)


def _pattern2_read():
    """mpi-io-test Pattern II reads, iBridge on, one warm pass: CFQ
    idling and every sub-request's retry-deadline race run."""
    ranks, size, iters = 16, 65 * KiB, 4
    wl = MpiIoTest(nprocs=ranks, request_size=size,
                   file_size=iters * ranks * size, op=Op.READ)
    cfg = scaled_ibridge(base_config(), wl.file_size / (10 * GiB))
    return cfg, wl, 1


def _btio_write():
    """BTIO's small interleaved writes, iBridge and the FTL on, with a
    partition small enough that admissions are rejected and write-back
    runs while the ranks write."""
    scale = 0.0002
    cfg = scaled_ibridge(base_config(), scale,
                         ssd_partition=128 * KiB).with_ftl()
    return cfg, make_btio(16, scale, steps=2), 0


def _engine_garbage(make_cell):
    # A workload keeps the file handle of the first cluster it prepared
    # on, so each cluster gets a fresh one.
    cfg, wl, warm_runs = make_cell()
    run_workload(Cluster(cfg), wl, warm_runs=warm_runs)
    gc.collect()
    cfg, wl, warm_runs = make_cell()
    cluster = Cluster(cfg)
    result = run_workload(cluster, wl, warm_runs=warm_runs)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        leaked = Counter(type(o).__name__ for o in gc.garbage
                         if isinstance(o, ENGINE_TYPES))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return result, leaked


@pytest.mark.parametrize("make_cell", [_pattern2_read, _btio_write],
                         ids=["pattern2_read", "btio_write"])
def test_cluster_run_leaves_no_engine_cycles(make_cell, collector_off):
    result, leaked = _engine_garbage(make_cell)
    assert result.requests and all(r.latency is not None
                                   for r in result.requests)
    assert not leaked, f"engine objects left to the cyclic collector: {leaked}"
