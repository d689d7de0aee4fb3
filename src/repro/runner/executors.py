"""Pluggable executors for long-lived *shard actors*.

The orchestrator (:mod:`repro.runner.orchestrator`) fans independent,
run-to-completion shard functions over a ``ProcessPoolExecutor``.  The
distributed data plane (:mod:`repro.distributed`) needs something the
pool cannot express: W long-lived workers, each *owning* state built
once from a per-worker payload (a block-row of the gain matrix, a slice
of protocol requests) and answering many small method calls against it.
:class:`ShardExecutor` names that contract, with two implementations:

* :class:`SerialShardExecutor` — the actors live in the calling
  process.  Zero transport, deterministic by construction; the
  conformance reference and the default for tests.
* :class:`ProcessShardExecutor` — one OS process per worker, speaking a
  length-delimited pickle protocol over a duplex
  :func:`multiprocessing.Pipe`.  A worker that dies mid-call (crash,
  ``SIGKILL``, OOM) is respawned from its original ``(factory,
  payload)`` under a :class:`repro.resilience.RetryPolicy` and the
  in-flight call is replayed — the same self-healing contract the
  PR-8 orchestrator applies to run-to-completion shards, applied here
  to resident actors.

Determinism contract
--------------------

Executors never generate randomness: any seeding must arrive *inside*
the payloads (derive it with
:func:`repro.runner.spec.derive_shard_seed`), so an actor rebuilt after
a crash is bit-identical to the one it replaces and replayed calls
return exactly what the lost call would have.  ``broadcast``/``scatter``
results always come back in worker order regardless of completion
order, mirroring the mergeable-aggregate rule (shard-order concat) of
:func:`repro.runner.spec.merge_tables`.
"""

from __future__ import annotations

import abc
import os
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.resilience import RetryPolicy, ShardFailure

__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "ShardExecutorError",
    "SHARD_EXECUTORS",
    "build_shard_executor",
]

#: Registered executor names (see :func:`build_shard_executor`).
SHARD_EXECUTORS = ("serial", "process")

#: Transport errors that mean "the worker process is gone" (as opposed
#: to an exception *inside* the actor method, which is deterministic
#: and therefore never retried).
_TRANSPORT_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


class ShardExecutorError(RuntimeError):
    """A worker could not complete a call.

    ``failure`` carries the structured :class:`repro.resilience.ShardFailure`
    record (worker index in ``shard_index``) for quarantine-style
    reporting.
    """

    def __init__(self, message: str, failure: Optional[ShardFailure] = None):
        super().__init__(message)
        self.failure = failure


class ShardExecutor(abc.ABC):
    """W long-lived actors, one per worker, addressed by method calls.

    Lifecycle: :meth:`start` builds actor ``k`` as ``factory(payloads[k])``;
    :meth:`call`/:meth:`broadcast`/:meth:`scatter` invoke actor methods;
    :meth:`close` tears everything down (idempotent).  Implementations
    must return broadcast/scatter results **in worker order**.
    """

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Number of workers (fixed at construction)."""

    @abc.abstractmethod
    def start(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> None:
        """Build one actor per worker from ``factory(payload)``.

        ``len(payloads)`` must equal :attr:`workers`.  May only be
        called once per executor.  Process implementations overlap the
        workers' builds.
        """

    @abc.abstractmethod
    def call(self, worker: int, method: str, *args: Any) -> Any:
        """Invoke ``actor.<method>(*args)`` on one worker and return
        its result."""

    def broadcast(self, method: str, *args: Any) -> List[Any]:
        """Invoke the same call on every worker; results in worker
        order.  Process implementations overlap the workers' compute."""
        return [self.call(k, method, *args) for k in range(self.workers)]

    def scatter(
        self, method: str, per_worker_args: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Invoke ``actor.<method>(*per_worker_args[k])`` on worker
        ``k``; results in worker order."""
        if len(per_worker_args) != self.workers:
            raise ValueError(
                f"scatter needs one argument tuple per worker "
                f"({self.workers}), got {len(per_worker_args)}"
            )
        return [
            self.call(k, method, *per_worker_args[k])
            for k in range(self.workers)
        ]

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down all workers (idempotent; safe after failures)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """In-process actors: the conformance reference.

    Every call is a plain method invocation, so a serial run is the
    ground truth a process run must match bit-for-bit (all repro actors
    are deterministic functions of their payload).
    """

    name = "serial"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)
        self._actors: Optional[List[Any]] = None

    @property
    def workers(self) -> int:
        return self._workers

    def start(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> None:
        if self._actors is not None:
            raise RuntimeError("executor already started")
        if len(payloads) != self._workers:
            raise ValueError(
                f"need one payload per worker ({self._workers}), "
                f"got {len(payloads)}"
            )
        self._actors = [factory(payload) for payload in payloads]

    def call(self, worker: int, method: str, *args: Any) -> Any:
        if self._actors is None:
            raise RuntimeError("executor not started")
        return getattr(self._actors[worker], method)(*args)

    def close(self) -> None:
        self._actors = None


def _pipe_worker_main(conn, factory, payload):  # pragma: no cover - child
    """Child-process loop: build the actor, answer calls until EOF.

    Runs in the worker process (coverage does not see it).  Errors
    raised by actor methods are reported back as ``("err", ...)`` —
    they are deterministic and must surface in the parent, never
    trigger a respawn.
    """
    try:
        actor = factory(payload)
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            conn.send(("err", type(exc).__name__, f"actor build failed: {exc}"))
        except _TRANSPORT_ERRORS:
            pass
        return
    try:
        conn.send(("ok", None))  # build handshake
    except _TRANSPORT_ERRORS:
        return
    while True:
        try:
            message = conn.recv()
        except _TRANSPORT_ERRORS:
            return
        if message is None:
            return
        method, args = message
        try:
            result = getattr(actor, method)(*args)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            try:
                conn.send(("err", type(exc).__name__, str(exc)))
            except _TRANSPORT_ERRORS:
                return
            continue
        try:
            conn.send(("ok", result))
        except _TRANSPORT_ERRORS:
            return


class ProcessShardExecutor(ShardExecutor):
    """One resident OS process per worker, self-healing under a
    :class:`~repro.resilience.RetryPolicy`.

    Workers are started with the ``spawn`` method (clean interpreter,
    honest per-worker memory accounting — no copy-on-write pages shared
    with the parent) as daemons (they can never outlive the parent).
    :meth:`start` launches every worker before waiting on any build
    handshake, so the W actor builds run concurrently, as the calls of
    :meth:`scatter` do; a worker that dies while building is reaped and
    relaunched under the same policy.
    A *transport* failure on a call — the pipe breaks because the
    worker crashed or was killed — deterministically rebuilds the actor
    from its original ``(factory, payload)`` and replays the call,
    up to ``retry.max_attempts`` total attempts per call with
    ``retry.delay_before_retry`` backoff between them.  Exceptions
    raised *by the actor method* are re-raised in the parent as
    :class:`ShardExecutorError` without any retry (they are
    deterministic: a replay would fail identically).
    """

    name = "process"

    #: Default self-healing budget per call: the first attempt plus two
    #: respawn-and-replay attempts.
    DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05)

    def __init__(
        self,
        workers: int,
        retry: Optional[RetryPolicy] = None,
        mp_method: str = "spawn",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        import multiprocessing

        self._workers = int(workers)
        self._retry = self.DEFAULT_RETRY if retry is None else retry
        self._ctx = multiprocessing.get_context(mp_method)
        self._factory: Optional[Callable[[Any], Any]] = None
        self._payloads: Optional[List[Any]] = None
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    # -- lifecycle -----------------------------------------------------

    def _launch(self, worker: int) -> None:
        """Start worker ``worker``'s process; its actor builds in the
        background until :meth:`_handshake` collects the result."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pipe_worker_main,
            args=(child_conn, self._factory, self._payloads[worker]),
            daemon=True,
            name=f"repro-shard-{worker}",
        )
        proc.start()
        child_conn.close()
        self._conns[worker] = parent_conn
        self._procs[worker] = proc

    def _handshake(self, worker: int) -> None:
        """Wait for a launched worker's build: surfaces pickling/build
        errors eagerly and guarantees the actor exists before the first
        real call."""
        status = self._recv(worker)
        if status[0] != "ok":
            raise ShardExecutorError(
                f"worker {worker} failed to build its actor: "
                f"{status[1]}: {status[2]}",
                failure=ShardFailure(
                    key="__build__",
                    shard_index=worker,
                    seed=None,
                    error_type=status[1],
                    error=status[2],
                    attempts=1,
                ),
            )

    def start(
        self, factory: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> None:
        """Launch every worker first, then collect the build handshakes
        in worker order, so the W actor builds overlap.  A failed start
        closes the executor: no worker outlives it."""
        if self._factory is not None:
            raise RuntimeError("executor already started")
        if len(payloads) != self._workers:
            raise ValueError(
                f"need one payload per worker ({self._workers}), "
                f"got {len(payloads)}"
            )
        self._factory = factory
        self._payloads = list(payloads)
        self._conns = [None] * self._workers
        self._procs = [None] * self._workers
        try:
            for worker in range(self._workers):
                try:
                    self._launch(worker)
                except _TRANSPORT_ERRORS:
                    pass  # relaunched under the retry policy below
            for worker in range(self._workers):
                self._spawn_with_retry(
                    worker, launched=self._procs[worker] is not None
                )
        except BaseException:
            self.close()
            raise

    def _spawn_with_retry(self, worker: int, launched: bool = False) -> None:
        """Bootstrap a worker under the retry policy: a worker that
        dies while *building* (e.g. OOM-killed mid-construction) is
        reaped and relaunched like any other transport failure;
        deterministic build errors surface immediately.  With
        *launched*, the first attempt's process is already running."""
        policy = self._retry
        failures = 0
        while True:
            try:
                if not launched:
                    self._launch(worker)
                launched = False
                self._handshake(worker)
                return
            except _TRANSPORT_ERRORS as exc:
                failures += 1
                self._reap(worker)
                if failures >= policy.max_attempts:
                    raise ShardExecutorError(
                        f"worker {worker} died while building its actor "
                        f"({failures}/{policy.max_attempts} attempts)",
                        failure=ShardFailure(
                            key="__build__",
                            shard_index=worker,
                            seed=None,
                            error_type=type(exc).__name__,
                            error=str(exc) or "worker process died",
                            attempts=failures,
                        ),
                    ) from exc
                time.sleep(policy.delay_before_retry(failures))

    def _reap(self, worker: int) -> None:
        proc = self._procs[worker]
        conn = self._conns[worker]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5.0)
        self._conns[worker] = None
        self._procs[worker] = None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker, conn in enumerate(self._conns):
            if conn is None:
                continue
            try:
                conn.send(None)
            except _TRANSPORT_ERRORS:
                pass
        for worker in range(len(self._procs)):
            self._reap(worker)

    # -- calls ---------------------------------------------------------

    def _recv(self, worker: int) -> Any:
        """Receive one reply, polling so a worker that dies without the
        pipe EOFing in the parent (e.g. killed before it fetched its
        fd from the spawn resource sharer) still raises a transport
        error instead of blocking forever."""
        conn = self._conns[worker]
        proc = self._procs[worker]
        while True:
            if conn.poll(0.05):
                return conn.recv()
            if proc is not None and not proc.is_alive():
                if conn.poll(0.0):  # reply raced the death
                    return conn.recv()
                raise EOFError(f"worker {worker} died before replying")

    def _ensure_alive(self, worker: int) -> None:
        if self._conns[worker] is None:
            self._launch(worker)
            self._handshake(worker)

    def _attempt(self, worker: int, method: str, args: Tuple[Any, ...]) -> Any:
        """One send/recv attempt; raises a transport error on a dead
        worker, :class:`ShardExecutorError` on an actor exception."""
        self._ensure_alive(worker)
        conn = self._conns[worker]
        conn.send((method, args))
        status = self._recv(worker)
        if status[0] != "ok":
            raise ShardExecutorError(
                f"worker {worker} raised in {method!r}: "
                f"{status[1]}: {status[2]}",
                failure=ShardFailure(
                    key=method,
                    shard_index=worker,
                    seed=None,
                    error_type=status[1],
                    error=status[2],
                    attempts=1,
                ),
            )
        return status[1]

    def _call_with_retry(
        self, worker: int, method: str, args: Tuple[Any, ...]
    ) -> Any:
        if self._factory is None:
            raise RuntimeError("executor not started")
        if self._closed:
            raise RuntimeError("executor is closed")
        policy = self._retry
        failures = 0
        deadline = (
            None
            if policy.deadline is None
            else time.monotonic() + policy.deadline
        )
        while True:
            try:
                return self._attempt(worker, method, args)
            except _TRANSPORT_ERRORS as exc:
                failures += 1
                self._reap(worker)
                out_of_time = (
                    deadline is not None and time.monotonic() >= deadline
                )
                if failures >= policy.max_attempts or out_of_time:
                    raise ShardExecutorError(
                        f"worker {worker} died during {method!r} and the "
                        f"retry budget is exhausted "
                        f"({failures}/{policy.max_attempts} attempts)",
                        failure=ShardFailure(
                            key=method,
                            shard_index=worker,
                            seed=None,
                            error_type=type(exc).__name__,
                            error=str(exc) or "worker process died",
                            attempts=failures,
                        ),
                    ) from exc
                time.sleep(policy.delay_before_retry(failures))

    def call(self, worker: int, method: str, *args: Any) -> Any:
        return self._call_with_retry(worker, method, args)

    def broadcast(self, method: str, *args: Any) -> List[Any]:
        return self.scatter(method, [args] * self._workers)

    def scatter(
        self, method: str, per_worker_args: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Pipelined fan-out: send every worker its request first, then
        collect replies in worker order — all workers compute
        concurrently while the parent waits.  Workers whose send or
        receive hits a transport failure fall back to the serial
        respawn-and-replay path."""
        if self._factory is None:
            raise RuntimeError("executor not started")
        if self._closed:
            raise RuntimeError("executor is closed")
        if len(per_worker_args) != self._workers:
            raise ValueError(
                f"scatter needs one argument tuple per worker "
                f"({self._workers}), got {len(per_worker_args)}"
            )
        pending: List[bool] = [False] * self._workers
        for worker in range(self._workers):
            conn = self._conns[worker]
            if conn is None:
                continue  # replayed below
            try:
                conn.send((method, tuple(per_worker_args[worker])))
                pending[worker] = True
            except _TRANSPORT_ERRORS:
                self._reap(worker)
        results: List[Any] = [None] * self._workers
        for worker in range(self._workers):
            if pending[worker]:
                try:
                    status = self._recv(worker)
                except _TRANSPORT_ERRORS:
                    self._reap(worker)
                else:
                    if status[0] != "ok":
                        raise ShardExecutorError(
                            f"worker {worker} raised in {method!r}: "
                            f"{status[1]}: {status[2]}",
                            failure=ShardFailure(
                                key=method,
                                shard_index=worker,
                                seed=None,
                                error_type=status[1],
                                error=status[2],
                                attempts=1,
                            ),
                        )
                    results[worker] = status[1]
                    continue
            # Worker lost before or during this round: respawn + replay
            # (counts from a fresh per-call retry budget).
            results[worker] = self._call_with_retry(
                worker, method, tuple(per_worker_args[worker])
            )
        return results

    def worker_pids(self) -> List[int]:
        """Live worker process ids (for fault-injection tests)."""
        return [
            proc.pid if proc is not None else -1 for proc in self._procs
        ]

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def build_shard_executor(
    name: Optional[str],
    workers: int,
    retry: Optional[RetryPolicy] = None,
) -> ShardExecutor:
    """Construct a registered executor by name.

    ``None`` resolves to the process default
    (:func:`repro.core.gains.default_shard_executor`, env
    ``REPRO_SHARD_EXECUTOR``).
    """
    if name is None:
        from repro.core.gains import default_shard_executor

        name = default_shard_executor()
    name = str(name).strip().lower()
    if name == "serial":
        return SerialShardExecutor(workers)
    if name == "process":
        return ProcessShardExecutor(workers, retry=retry)
    raise ValueError(
        f"shard executor must be one of {SHARD_EXECUTORS}, got {name!r}"
    )


def _current_rss_mb() -> float:
    """This process's peak RSS in MiB (actors expose it per worker)."""
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(rss_kb) / 1024.0
    except Exception:  # pragma: no cover - non-POSIX fallback
        return float("nan")


def worker_identity() -> dict:
    """Identity/health record of the calling process — actors expose
    this verbatim so tests and benches can observe real process
    boundaries (pid) and per-worker memory (peak RSS)."""
    return {"pid": os.getpid(), "peak_rss_mb": _current_rss_mb()}
