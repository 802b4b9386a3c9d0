"""Host self-time attribution for the traced benchmark pass.

The benchmark attributes host (wall-clock) time to the simulator's
layers without changing the program: :class:`Profiler` replaces layer
entry points on their classes with timing wrappers for the duration of
a ``with profiler.installed():`` block and restores them afterwards.

* A plain function is one frame per call.
* A generator function, and every generator handed to
  ``Environment.process``, is one frame per *resume*: a simulated
  process runs in slices between the events it yields, and only those
  slices cost host time.  Values sent in, values yielded out,
  exceptions thrown in and the generator's return value (carried by
  ``StopIteration``) all pass through unchanged, so the event schedule
  is the same with and without the wrappers.

A frame's *self* time is its duration minus the durations of the
frames nested inside it, so each layer's ``self_ns`` counts only its
own code.  ``Environment.run`` is a frame of layer ``sim``: what no
nested frame covers is the engine itself (heap, callbacks, dispatch).
Since every frame's duration is either self time or some parent's
child time, the self times of all layers add up to the time spent in
outermost frames.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import re
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

#: Pattern every reported metric name must match.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Layer of a process body or entry point, by the ``repro`` module
#: that defines it.  Modules not listed belong to their package.
MODULE_LAYERS = {
    "repro.pfs.client": "pfs.client",
    "repro.pfs.layout": "pfs.client",
    "repro.pfs.remote": "pfs.client",
    "repro.pfs.server": "pfs.server",
    "repro.pfs.metadata": "pfs.server",
    "repro.sim.parallel": "parallel",
    "repro.workloads": "mpi",
}

#: (module, class, methods, layer) entry points wrapped besides the
#: process bodies (rank bodies, server jobs, network transfers, queue
#: runners and daemons are all processes, attributed by module).
#: ``("*",)`` means every public method and property.  Methods a
#: subclass overrides are wrapped on the subclass too.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.core", "Environment", ("run",), "sim"),
    ("repro.sim.parallel", "ShardWorker",
     ("launch", "window", "drain", "sync"), "parallel"),
    ("repro.mpi.runtime", "RankContext",
     ("read_at", "write_at", "io", "compute", "barrier"), "mpi"),
    ("repro.pfs.client", "PFSClient", ("submit", "split"), "pfs.client"),
    ("repro.pfs.server", "DataServer", ("submit",), "pfs.server"),
    ("repro.net.network", "Network", ("send", "send_local_leg"), "net"),
    ("repro.core.manager", "IBridgeManager", ("handle",), "core"),
    ("repro.core.mapping", "MappingTable", ("*",), "core"),
    ("repro.core.logstore", "LogStore", ("*",), "core"),
    ("repro.block.queue", "BlockQueue", ("submit",), "block"),
    ("repro.block.scheduler", "Scheduler", ("add", "select"), "block"),
    ("repro.devices.base", "Device", ("serve",), "devices"),
    ("repro.devices.ftl", "FlashTranslationLayer",
     ("host_write", "collect_one"), "devices"),
    ("repro.localfs.store", "LocalStore",
     ("ranges_for_read", "ranges_for_write"), "localfs"),
    ("repro.obs.span", "Tracer", ("root", "start", "finish"), "obs"),
)


def layer_of_module(module: str) -> str:
    """Layer name for a ``repro`` module path (``repro.core.manager``)."""
    for prefix, layer in MODULE_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


class Profiler:
    """Per-layer host self time and per-entry-point call counts."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        #: One child-time accumulator per open frame.
        self._stack: List[int] = []
        self._gc_t0 = 0

    # ------------------------------------------------------------ frames
    def _close(self, layer: str, t0: int) -> None:
        dur = time.perf_counter_ns() - t0
        child = self._stack.pop()
        self.self_ns[layer] += dur - child
        if self._stack:
            self._stack[-1] += dur

    def wrap_call(self, layer: str, name: str, fn: Callable) -> Callable:
        """Time each call of ``fn`` as one frame of ``layer``."""
        prof = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            prof.calls[name] += 1
            prof._stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                prof._close(layer, t0)
        return timed

    def wrap_gen_fn(self, layer: str, name: str, fn: Callable) -> Callable:
        """Time each resume of the generators ``fn`` returns."""
        prof = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            prof.calls[name] += 1
            return prof.drive(layer, fn(*args, **kwargs))
        return timed

    def drive(self, layer: str, gen):
        """Generator forwarding to ``gen``, one ``layer`` frame per resume."""
        send = None
        exc = None
        while True:
            self._stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                item = gen.send(send) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(layer, t0)
            try:
                send = yield item
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # noqa: BLE001 - forwarded
                send, exc = None, thrown

    # --------------------------------------------------------- patching
    def _wrap_process(self, original: Callable) -> Callable:
        prof = self

        @functools.wraps(original)
        def process(env, generator, name=None):
            code = getattr(generator, "gi_code", None)
            module = (code.co_filename if code is not None else "")
            layer = layer_of_module(_module_from_path(module))
            prof.calls["process:" + layer] += 1
            return original(env, prof.drive(layer, generator),
                            name=name or getattr(generator, "__name__",
                                                 None))
        return process

    @contextlib.contextmanager
    def installed(self) -> Iterator["Profiler"]:
        """Wrap every entry point; restore the originals on exit."""
        import importlib

        from repro.sim.core import Environment
        saved: List[Tuple[object, str, object]] = []

        def patch(owner: object, attr: str, value: object) -> None:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        gc.callbacks.append(self._gc_phase)
        try:
            patch(Environment, "process",
                  self._wrap_process(Environment.process))
            for module, cls_name, methods, layer in ENTRY_POINTS:
                base = getattr(importlib.import_module(module), cls_name)
                for cls in _with_subclasses(base):
                    for attr in _methods(cls, methods):
                        label = f"{cls.__name__}.{attr}"
                        patch(cls, attr,
                              self._wrapped(layer, label, cls.__dict__[attr]))
            # The shard coordinator's window loop has no public entry
            # point; without it the barrier bookkeeping between windows
            # would be host time no layer accounts for.
            import repro.sim.parallel as parallel
            patch(parallel, "_run_pass", self.wrap_call(
                "parallel", "_run_pass", parallel._run_pass))
            yield self
        finally:
            gc.callbacks.remove(self._gc_phase)
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _gc_phase(self, phase: str, info: dict) -> None:
        """Collector pauses are a frame of layer ``gc``, so they are not
        charged to whichever layer allocated when a collection began."""
        if phase == "start":
            self.calls["gc.collect"] += 1
            self._stack.append(0)
            self._gc_t0 = time.perf_counter_ns()
        else:
            self._close("gc", self._gc_t0)

    def _wrapped(self, layer: str, label: str, member: object) -> object:
        if isinstance(member, property):
            return property(self.wrap_call(layer, label, member.fget),
                            member.fset, member.fdel, member.__doc__)
        if inspect.isgeneratorfunction(member):
            return self.wrap_gen_fn(layer, label, member)
        return self.wrap_call(layer, label, member)

    # ---------------------------------------------------------- results
    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls)}


def _module_from_path(path: str) -> str:
    """``.../src/repro/core/manager.py`` -> ``repro.core.manager``."""
    path = path.replace("\\", "/")
    idx = path.rfind("/repro/")
    if idx < 0 or not path.endswith(".py"):
        return ""
    return path[idx + 1:-3].replace("/", ".")


def _with_subclasses(cls: type) -> List[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        for c in _with_subclasses(sub):
            if c not in seen:
                seen.append(c)
    return seen


def _methods(cls: type, names: Tuple[str, ...]) -> List[str]:
    """Public functions/properties ``cls`` itself defines among ``names``
    (``"*"`` = all of them)."""
    out = []
    for attr, member in vars(cls).items():
        if names != ("*",) and attr not in names:
            continue
        if attr.startswith("_"):
            continue
        if isinstance(member, property) or inspect.isfunction(member):
            out.append(attr)
    return out


def diff(after: Dict[str, Dict[str, int]],
         before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Per-key difference of two :meth:`Profiler.snapshot` results."""
    return {group: {k: v - before[group].get(k, 0)
                    for k, v in after[group].items()}
            for group in after}
