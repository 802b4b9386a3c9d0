"""The benchmark's workloads: one experiment cell each, built from a seed.

Every cell runs on the paper's default 8-server testbed
(``base_config()``) through the public ``repro`` API.  The seed passed
on the command line is the ``ClusterConfig.seed`` of the first pass;
further passes in the same run use seeds derived from it, so the
simulated metrics pool several independent schedules (the seed drives
the client OS-noise and SSD GC-jitter streams, and a single schedule's
latency tail moves by more than the benchmark's bounds from seed to
seed).  The workloads themselves are deterministic: the seed changes
timing, never the offsets or sizes requested.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro import BTIO, ClusterConfig, MpiIoTest, Workload
from repro.devices.base import Op
from repro.experiments.common import base_config, scaled_ibridge
from repro.experiments.fig9 import make_btio
from repro.units import GiB, KiB, MiB

#: Default workload seed (the repo-wide ``ClusterConfig.seed``).
DEFAULT_SEED = 20130520

#: Stride between the derived seeds of one run's passes; a large prime
#: keeps the sub-seeds of nearby command-line seeds disjoint.
SEED_STRIDE = 1_000_003

#: The paper's working set; iBridge's SSD partition is scaled with the
#: dataset the way ``scaled_ibridge`` does for the experiments.
PAPER_FILE_BYTES = 10 * GiB


@dataclasses.dataclass(frozen=True)
class Cell:
    """One workload of the benchmark."""

    name: str
    #: ``seed -> ClusterConfig`` of one pass.
    make_config: Callable[[int], ClusterConfig]
    #: ``fraction -> Workload``; ``fraction`` < 1 shrinks the workload
    #: (the audit verification run is shorter than the timed one).
    make_workload: Callable[[float], Workload]
    #: Independent seeds pooled into the simulated metrics of one run.
    sub_seeds: int
    #: Untimed passes before the timed one (iBridge's read cache warms
    #: in a prior run of the same program).
    warm_runs: int = 0

    def seed(self, seed: int, index: int) -> int:
        """The ``ClusterConfig.seed`` of pass ``index`` of a run."""
        return seed + index * SEED_STRIDE

    def shape(self) -> Dict[str, object]:
        wl = self.make_workload(1.0)
        cfg = self.make_config(DEFAULT_SEED)
        return {
            "ranks": wl.nprocs,
            "client_nodes": wl.client_nodes or wl.nprocs,
            "request_bytes": wl.request_size,
            "op": "write" if isinstance(wl, BTIO) else wl.op.value,
            "requests_per_pass": expected_requests(wl),
            "ibridge": cfg.ibridge.enabled,
            "ssd_partition_bytes": (cfg.ibridge.ssd_partition
                                    if cfg.ibridge.enabled else 0),
            "ftl": cfg.ssd.ftl_enabled,
            "shards": cfg.shards,
            "warm_runs": self.warm_runs,
            "sub_seeds": self.sub_seeds,
        }


def expected_requests(wl: Workload) -> int:
    """Parent requests one pass of ``wl`` issues."""
    if isinstance(wl, BTIO):
        return wl.steps * wl.requests_per_step * wl.nprocs
    return wl.iterations * wl.nprocs


# ---------------------------------------------------------------- shapes
#: mpi-io-test Pattern II: 65 KiB requests on the 64 KiB stripe unit, so
#: each one leaves a 1 KiB fragment on a neighbouring server.
_UR_SIZE = 65 * KiB
_UR_RANKS = 64
_UR_ITERATIONS = 32

#: BTIO at 64 ranks writes 810 B pieces, in 10 output steps (fig9's cell).
_SW_RANKS = 64
_SW_STEPS = 10
_SW_SCALE = 0.0006
#: Small enough that the SSD log fills several times per pass, so
#: admission rejections, write-back and log cleaning all run while the
#: ranks write.
_SW_PARTITION = 1 * MiB

#: mpi-io-test Pattern I: stripe-aligned 64 KiB reads, 16 ranks per node.
_AS_SIZE = 64 * KiB
_AS_RANKS = 256
_AS_NODES = 16
_AS_ITERATIONS = 16
_AS_SHARDS = 2


def _iterations(base: int, fraction: float) -> int:
    return max(1, int(base * fraction))


def _unaligned_read(fraction: float) -> Workload:
    iters = _iterations(_UR_ITERATIONS, fraction)
    return MpiIoTest(nprocs=_UR_RANKS, request_size=_UR_SIZE,
                     file_size=iters * _UR_RANKS * _UR_SIZE, op=Op.READ)


def _unaligned_read_config(seed: int) -> ClusterConfig:
    file_bytes = _UR_ITERATIONS * _UR_RANKS * _UR_SIZE
    return scaled_ibridge(base_config(seed=seed),
                          file_bytes / PAPER_FILE_BYTES)


def _small_write(fraction: float) -> Workload:
    return make_btio(_SW_RANKS, _SW_SCALE * fraction, steps=_SW_STEPS)


def _small_write_config(seed: int) -> ClusterConfig:
    return scaled_ibridge(base_config(seed=seed), _SW_SCALE,
                          ssd_partition=_SW_PARTITION).with_ftl()


def _aligned_sharded(fraction: float) -> Workload:
    iters = _iterations(_AS_ITERATIONS, fraction)
    wl = MpiIoTest(nprocs=_AS_RANKS, request_size=_AS_SIZE,
                   file_size=iters * _AS_RANKS * _AS_SIZE, op=Op.READ)
    wl.client_nodes = _AS_NODES
    return wl


def _aligned_sharded_config(seed: int) -> ClusterConfig:
    return base_config(seed=seed).with_shards(_AS_SHARDS)


CELLS = {c.name: c for c in (
    Cell("unaligned_read", _unaligned_read_config, _unaligned_read,
         sub_seeds=7, warm_runs=1),
    Cell("small_write", _small_write_config, _small_write, sub_seeds=7),
    Cell("aligned_sharded", _aligned_sharded_config, _aligned_sharded,
         sub_seeds=1),
)}
