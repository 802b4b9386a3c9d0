"""Scheduler interface and the Noop / Deadline elevators.

A scheduler holds pending :class:`BlockRequest` objects and decides the
dispatch order, merging contiguous requests up to the configured limit.
``select()`` returns either a :class:`Dispatch`, or an idle hint
``(None, deadline)`` telling the device runner to wait (CFQ idling), or
``(None, None)`` when empty.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Optional, Sequence, Tuple

from ..config import SchedulerConfig
from ..errors import StorageError
from .request import BlockRequest, Dispatch

SelectResult = Tuple[Optional[Dispatch], Optional[float]]


class Scheduler(abc.ABC):
    """Base class for block I/O schedulers."""

    def __init__(self, config: SchedulerConfig) -> None:
        config.validate()
        self.config = config
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    @property
    def empty(self) -> bool:
        return self._pending == 0

    @abc.abstractmethod
    def add(self, req: BlockRequest) -> None:
        """Queue a request."""

    @abc.abstractmethod
    def select(self, now: float) -> SelectResult:
        """Pick the next dispatch (see module docstring)."""

    def _absorb(self, dispatch: Dispatch, queued: Sequence[BlockRequest],
                remove: Callable[[BlockRequest], None]) -> None:
        """Greedily merge ``queued`` requests contiguous with ``dispatch``.

        Sweeps ``queued`` in order, back-merging before front-merging,
        and sweeps again while a pass merged anything; each merged
        request is taken out of the queue with ``remove``.
        """
        limit = self.config.max_merge_bytes
        window = self.config.merge_window
        merged = True
        while merged:
            merged = False
            for req in list(queued):
                if not dispatch.within_merge_window(req, window):
                    continue
                if dispatch.can_back_merge(req, limit):
                    remove(req)
                    dispatch.back_merge(req)
                    merged = True
                elif dispatch.can_front_merge(req, limit):
                    remove(req)
                    dispatch.front_merge(req)
                    merged = True


class NoopScheduler(Scheduler):
    """FIFO with back/front merging at dispatch build time.

    This is Linux ``noop``: requests dispatch in arrival order; the only
    optimization is merging requests contiguous with the head of the
    queue.  The paper uses it for the SSD, where ordering does not
    matter but merging still amortizes per-command setup.
    """

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self._queue: Deque[BlockRequest] = deque()

    def add(self, req: BlockRequest) -> None:
        self._queue.append(req)
        self._pending += 1

    def select(self, now: float) -> SelectResult:
        if not self._queue:
            return None, None
        dispatch = Dispatch(self._queue.popleft())
        self._absorb(dispatch, self._queue, self._queue.remove)
        self._pending -= len(dispatch.members)
        return dispatch, None


class DeadlineScheduler(Scheduler):
    """Simplified ``deadline``: C-LOOK elevator with an age bound.

    Requests are served in ascending LBN order from the current sweep
    position, but any request older than ``max_age`` is served first.
    Not used by the paper's configuration; provided as an ablation
    scheduler showing how a global elevator (as opposed to CFQ's
    per-process service) partially re-assembles interleaved streams.
    """

    def __init__(self, config: SchedulerConfig, max_age: float = 0.5) -> None:
        super().__init__(config)
        if max_age <= 0:
            raise StorageError("max_age must be positive")
        self.max_age = max_age
        self._sorted: list[BlockRequest] = []
        self._fifo: Deque[BlockRequest] = deque()
        self._position = 0

    def add(self, req: BlockRequest) -> None:
        # Insertion sort keyed by LBN; queues are short in practice.
        idx = len(self._sorted)
        for i, other in enumerate(self._sorted):
            if req.lbn < other.lbn:
                idx = i
                break
        self._sorted.insert(idx, req)
        self._fifo.append(req)
        self._pending += 1

    def _take(self, req: BlockRequest) -> None:
        self._sorted.remove(req)
        self._fifo.remove(req)

    def select(self, now: float) -> SelectResult:
        if not self._sorted:
            return None, None
        if self._fifo and now - self._fifo[0].submit_time > self.max_age:
            first = self._fifo[0]
        else:
            first = None
            for req in self._sorted:
                if req.lbn >= self._position:
                    first = req
                    break
            if first is None:  # wrap (C-LOOK)
                first = self._sorted[0]
        self._take(first)
        dispatch = Dispatch(first)
        self._absorb(dispatch, self._sorted, self._take)
        self._position = dispatch.end
        self._pending -= len(dispatch.members)
        return dispatch, None
