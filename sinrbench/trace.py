"""Layer spans for the traced run, recorded from outside the library.

:class:`Tracer` wraps the public functions and class methods of each
layer where callers look them up — the attribute on the class that
defines the method, and every loaded ``repro`` module that imported a
function by name — and restores the originals on :meth:`Tracer.uninstall`.
Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (``-1`` for a root).  Synchronous spans nest on one
stack: the library is single-threaded in the benchmark's process and
no synchronous call spans an ``await``.  Coroutine spans (the serve
front-end) interleave, so they are recorded as roots and never become
parents.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Root-span name the workloads give one operation.
OP = "op"


def _pickled_size(obj: Any) -> int:
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        #: Seconds each arrival spent in ``Session.add_requests``, by
        #: request uid (queue wait = decision latency minus this).
        self.add_seconds: Dict[int, float] = {}
        self._executor_pids: Dict[Any, set] = {}

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index][2] = end
        return end - self.spans[index][1]

    def _sync_wrapper(self, fn, name, on_exit, on_enter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            label = name(args) if callable(name) else name
            state = on_enter(args) if on_enter is not None else None
            index = tracer.begin(label)
            result = None
            tracer.bookkeeping_s += time.perf_counter() - t_in
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = tracer.end(index)
                t_out = time.perf_counter()
                if on_exit is not None:
                    parent = tracer.spans[index][3]
                    outermost = parent < 0 or tracer.spans[parent][0] != label
                    on_exit(args, result, duration, outermost, state)
                tracer.bookkeeping_s += time.perf_counter() - t_out

        return wrapper

    def _async_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.spans.append([name, start, end, -1])
                tracer.bookkeeping_s += time.perf_counter() - end

        return wrapper

    # -- installation --------------------------------------------------

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: Any,
        on_exit: Optional[Callable[..., None]] = None,
        on_enter: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        """Wrap ``cls.attr`` (only where *cls* itself defines it).

        *name* is the span name, or a callable mapping the call's
        positional arguments to one.  ``on_enter(args)`` runs before the
        call; ``on_exit(args, result, seconds, outermost, entered)``
        after it, where *outermost* is false inside a same-named span
        and *entered* is what ``on_enter`` returned.
        """
        if attr not in cls.__dict__:
            return
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                self._sync_wrapper(raw.__func__, name, on_exit, on_enter)
            )
        elif inspect.iscoroutinefunction(raw):
            wrapped = self._async_wrapper(raw, name)
        else:
            wrapped = self._sync_wrapper(raw, name, on_exit, on_enter)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def wrap_hierarchy(
        self, base: type, attr: str, name: Any, on_exit=None, on_enter=None
    ) -> None:
        """Wrap *attr* on *base* and on every subclass that overrides it."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            self.wrap_method(cls, attr, name, on_exit, on_enter)
            pending.extend(cls.__subclasses__())

    def wrap_function(self, module: Any, attr: str, name: str, on_exit=None) -> None:
        """Wrap a module-level function in its defining module and in
        every loaded ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        wrapped = self._sync_wrapper(original, name, on_exit, None)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapped)
                self._undo.append(
                    lambda mod=mod: setattr(mod, attr, original)
                )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> "Tracer":
        """Wrap every layer boundary of the per-layer table."""
        from repro import api
        from repro.core import context, gains, kernels
        from repro.geometry.metric import Metric
        from repro.runner import executors
        from repro.scheduling import registry
        from repro.serve import service

        # Modules imported lazily elsewhere: load them now so their
        # by-name imports of wrapped functions get rewired too, and so
        # ShardedBackend is among the GainBackend subclasses wrapped.
        import repro.distributed.sharded  # noqa: F401
        import repro.scheduling.firstfit  # noqa: F401
        import repro.scheduling.local_search  # noqa: F401
        import repro.scheduling.sqrt_coloring  # noqa: F401

        c = self.counters

        def matrix_cells(args, matrix, _s, _o, missed):
            if missed and matrix is not None:
                c["geometry.distance_matrix.cells"] += matrix.size

        def block_cells(args, block, _s, outermost, _e):
            if outermost and block is not None:
                c["geometry.distance_block.cells"] += block.size

        # distance_matrix() is cached on the metric: only a call that
        # finds the cache empty computes cells.
        self.wrap_method(
            Metric,
            "distance_matrix",
            "geometry.distance_matrix",
            matrix_cells,
            on_enter=lambda args: args[0]._matrix_cache is None,
        )
        # loss_block is distance_block ** alpha on every metric here.
        self.wrap_hierarchy(Metric, "distance_block", "geometry.distance_block", block_cells)

        def built(args, backend, _s, outermost, _e):
            if outermost and backend is not None:
                c["gains.build.bytes"] += backend.nbytes
                c["gains.build.kept"] += backend.nnz
                c["gains.build.cells"] += backend.nnz / max(backend.density, 1e-300)

        self.wrap_hierarchy(gains.GainBackend, "build", "gains.build", built)
        self.wrap_hierarchy(gains.GainBackend, "append_requests", "gains.append")
        self.wrap_function(context, "get_context", "context.get")

        self.wrap_method(kernels.ScheduleKernel, "first_fit_admit", "kernels.admit")
        self.wrap_method(kernels.ScheduleKernel, "extend_to", "kernels.extend")
        self.wrap_method(kernels.ScheduleKernel, "move", "kernels.move")
        self.wrap_method(kernels.ScheduleKernel, "admissible_targets", "kernels.move")
        self.wrap_function(kernels, "peel_max_feasible_subset", "kernels.peel")

        self.wrap_method(
            registry.AlgorithmSpec, "run", lambda args: f"scheduling.{args[0].name}"
        )

        def rpc(kind):
            def hook(args, result, _s, outermost, _e):
                if not outermost:  # broadcast/scatter fanning out to call
                    return
                executor = args[0]
                if kind == "call":  # call(worker, method, *args)
                    sent = _pickled_size(args[3:])
                elif kind == "broadcast":  # broadcast(method, *args)
                    sent = _pickled_size(args[2:]) * executor.workers
                else:  # scatter(method, per_worker_args)
                    sent = sum(_pickled_size(tuple(a)) for a in args[2])
                c["shards.rpc.bytes"] += sent + _pickled_size(result)
                self._note_pids(executor)

            return hook

        def started(args, _r, _s, _o, _e):
            self._note_pids(args[0])

        self.wrap_hierarchy(executors.ShardExecutor, "start", "shards.start", started)
        for attr in ("call", "broadcast", "scatter"):
            self.wrap_hierarchy(executors.ShardExecutor, attr, "shards.rpc", rpc(attr))

        def added(args, handles, seconds, _o, _e):
            for handle in handles or ():
                self.add_seconds[handle.uid] = seconds

        self.wrap_method(api.Session, "add_requests", "api.add_requests", added)
        self.wrap_method(api.Session, "remove_requests", "api.remove_requests")
        self.wrap_method(service.ScheduleServer, "submit", "serve.submit")
        return self

    def _note_pids(self, executor: Any) -> None:
        pids = getattr(executor, "worker_pids", None)
        if pids is None:
            return
        seen = self._executor_pids.setdefault(executor, set())
        seen.update(pid for pid in pids() if pid is not None)

    # -- reporting -----------------------------------------------------

    def respawns(self) -> int:
        """Worker processes started beyond each executor's fleet size."""
        return sum(
            max(0, len(pids) - executor.workers)
            for executor, pids in self._executor_pids.items()
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its children's."""
        own = np.array([end - start for _, start, end, _ in self.spans])
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost ``calls`` and total ``self_s``."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for (name, _, _, parent), own in zip(self.spans, self.self_times()):
            entry = out[name]
            entry["self_s"] += own
            if parent < 0 or self.spans[parent][0] != name:
                entry["calls"] += 1
        return out

    def coverage(self) -> List[float]:
        """For every ``op`` span: the share of its wall time covered by
        its direct child (layer) spans."""
        covered: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == OP:
                covered[parent] += end - start
        return [
            covered[i] / (end - start)
            for i, (name, start, end, parent) in enumerate(self.spans)
            if name == OP and end > start
        ]
