"""Hard disk timing model.

Positioning for a non-contiguous request costs ``D_to_T(distance) +
rotational_miss`` where ``D_to_T`` is a concave (square-root) seek
curve, as in the offline-profiling approach of Huang et al. (FS2, SOSP
2005) that the paper adopts for its service-time estimator.  Random
writes pay an additional settle penalty, which reproduces the paper's
observation (Table II, Fig. 4) that unaligned *writes* suffer roughly
three times more than unaligned reads on the stock system.

Contiguous requests (starting exactly at the head position, within the
configured slack) stream at the sequential bandwidth with no
positioning cost — this is what makes large merged dispatches efficient
and small interleaved fragments expensive, the paper's core physics.
"""

from __future__ import annotations

import math

from ..config import HDDConfig
from .base import Device, Op


class SeekCurve:
    """The ``D_to_T`` seek-distance → seek-time function.

    ``time(d) = base + (full - base) * sqrt(d / capacity)`` for d > 0.
    The square-root form matches empirical disk seek profiles: short
    seeks are dominated by head settle, long seeks by the accelerate/
    coast/decelerate phases.
    """

    def __init__(self, base: float, full: float, capacity: int) -> None:
        self.base = float(base)
        self.full = float(full)
        self.capacity = int(capacity)
        self._span = self.full - self.base

    def __call__(self, distance: int) -> float:
        if distance <= 0:
            return 0.0
        frac = min(1.0, distance / self.capacity)
        return self.base + self._span * math.sqrt(frac)

    def mean_random(self) -> float:
        """Expected seek time between two uniformly random positions.

        ``E[sqrt(|U - V|)] = 8/15`` for independent U, V ~ Uniform(0,1).
        """
        return self.base + self._span * (8.0 / 15.0)


class HardDisk(Device):
    """7200-RPM disk model calibrated per DESIGN.md §6."""

    name = "hdd"

    def __init__(self, config: HDDConfig | None = None) -> None:
        self.config = config or HDDConfig()
        self.config.validate()
        super().__init__(self.config.capacity)
        self.seek_curve = SeekCurve(
            self.config.seek_base, self.config.seek_full, self.config.capacity)
        self._rotated_away = False

    def notice_idle(self, idle_gap: float) -> None:
        if idle_gap > self.config.sweep_idle_reset:
            self._rotated_away = True

    def _after_serve(self) -> None:
        self._rotated_away = False

    def is_contiguous(self, lbn: int) -> bool:
        """True when a request at ``lbn`` continues the current stream."""
        return lbn == self._head

    def positioning_time(self, op: Op, lbn: int, nbytes: int) -> float:
        if self.is_contiguous(lbn):
            if op.is_write and self._rotated_away:
                # Synchronous sequential writes: after an idle gap the
                # target sector has rotated past, costing a revolution
                # even with no seek.
                return self.config.rotational_miss
            return 0.0
        delta = lbn - self._head
        reposition = self.seek_curve(abs(delta)) + self.config.rotational_miss
        if not op.is_write:
            if 0 < delta <= self.config.skip_window:
                # Short forward skip: the head can stay on track and let
                # the unwanted media pass underneath.  (Backward skips
                # always need a full rotation.)
                reposition = min(reposition, delta / self.config.seq_read_bw)
            return reposition
        # Writes: a dense forward continuation behaves like part of one
        # sequential sweep (batched read-modify-write, minor penalty); a
        # genuine reposition pays the full settle for small writes.  A
        # sweep is only available while the device stayed busy — once it
        # idled, the platter rotated away (see sweep_idle_reset).
        jump = reposition + self._write_penalty(nbytes)
        if 0 < delta <= self.config.write_sweep_window and not self._rotated_away:
            sweep = (delta / self.config.seq_read_bw
                     + self.config.write_large_penalty)
            return min(sweep, jump)
        return jump

    def _write_penalty(self, nbytes: int) -> float:
        """Extra cost of a repositioned (non-sweep) write (see HDDConfig)."""
        if nbytes < self.config.write_settle_threshold:
            return self.config.write_settle
        return self.config.write_large_penalty

    def transfer_time(self, op: Op, nbytes: int) -> float:
        bw = self.config.seq_write_bw if op.is_write else self.config.seq_read_bw
        return nbytes / bw
