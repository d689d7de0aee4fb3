"""Pluggable gain-matrix backends: dense reference and pruned sparse.

Everything the interference engine computes reduces to a handful of
access patterns on the gain matrices ``G_u``/``G_v`` — single columns
(what one transmitter does to everyone, dense or as the stored
``(rows, values)`` entries the scheduler kernels walk), bulk column gathers (seeding a
class), square sub-blocks (LP sub-problems), cross blocks (pairwise
gains of a selection at new candidates), tiled sub-block row sums
(subset interference / peel initialization, without materializing the
block) and same-color row sums (validating a partition).  :class:`GainBackend` names exactly
those primitives, and the engine layers
(:class:`repro.core.context.InterferenceContext`,
:class:`repro.core.context.ClassAccumulator`,
:mod:`repro.core.kernels`, :class:`repro.core.batch.ContextBatch`, the
schedulers) consume gains **only** through them.  Two implementations:

* :class:`DenseBackend` — the materialized ``(n, n)`` arrays the engine
  has always used, filled tile by tile from
  :meth:`~repro.geometry.metric.Metric.loss_block` (never from the
  metric's full distance matrix).  Every primitive returns the exact
  expression the pre-backend code evaluated (same gathers, same
  layouts), so the dense path is bit-identical to historical
  behaviour.
* :class:`SparseBackend` — CSR storage (plus CSR transposes for column
  access) built **tiled**, a block of rows at a time, so an instance at
  ``n = 16384`` never materializes a dense matrix (nor, on
  coordinate-backed metrics, the underlying distance matrix — see
  :meth:`repro.geometry.metric.Metric.distance_block`).  Rows are
  ε-pruned: per row the smallest finite entries whose cumulative sum
  stays within ``epsilon`` times the row's total finite mass are
  dropped, and the dropped mass is recorded **per request** in
  :attr:`~SparseBackend.pruned_mass_u` / ``_v``.

Numerical contract
------------------

Sparse primitives gather the stored entries into dense scratch buffers
of the **same shape** the dense primitive returns (pruned entries
appear as ``0.0``) and callers apply the same reductions; the one
exception, :meth:`GainBackend.column_entries`, lists only the stored
entries of a column, and its callers touch nothing else because adding
or comparing an absent ``0.0`` changes no value.  So with
``epsilon = 0`` (the default, which drops only exact zeros) every
downstream value is bit-identical to the dense backend, and the whole
test suite passes unchanged under ``REPRO_BACKEND=sparse``.

With ``epsilon > 0`` the backend is a *conservative under-estimator*:
any interference value it reports is a lower bound on the true value,
too low by at most the per-request pruned mass.  A feasibility
comparison ``interference <= limit`` can therefore flip (relative to
the unpruned matrix) only when the value lands inside the
``(limit - pruned_mass, limit]`` band; the scheduler kernels count
those at-risk comparisons per kernel
(:attr:`repro.core.kernels.ScheduleKernel.flip_risk_events`) and
cumulatively per backend (:attr:`GainBackend.flip_risk_events`).  A
run during which the counter did **not grow** is **certified** — its
decisions (and hence its schedule) are exactly what the dense backend
would have produced.  The backend counter is a running total shared by
every kernel on the (cached) backend, so per-run certification through
the scheduler wrappers reads it before and after (or calls
:meth:`~GainBackend.reset_flip_risk` first)::

    backend = get_context(instance, powers).backend
    before = backend.flip_risk_events
    schedule = first_fit_schedule(instance, powers)
    certified = backend.flip_risk_events == before

Selecting a backend
-------------------

One frozen :class:`BackendConfig` names the backend and every setting
it reads (ε, array namespace and device, shard workers and executor).
The ambient default comes from the ``REPRO_BACKEND``,
``REPRO_SPARSE_EPSILON``, ``REPRO_ARRAY_NAMESPACE``,
``REPRO_SHARD_WORKERS`` and ``REPRO_SHARD_EXECUTOR`` environment
variables (read once at import, :meth:`BackendConfig.from_env`);
:func:`use_backend` replaces it for a ``with`` block and
:func:`backend_config` reads it.  A setting the chosen backend
ignores does not count for equality, but the configuration keeps it,
so an environment ε applies once a ``backend="sparse"`` override
selects a pruned storage::

    with use_backend(BackendConfig("sparse", epsilon=0.05)):
        context = get_context(instance, powers)

:func:`repro.core.context.get_context`, :func:`build_backend` and
:class:`repro.core.batch.ContextBatch` also take an explicit
``config=``; :class:`repro.api.Problem` builds one from its keywords,
and experiment specs carry a ``backend`` name the orchestrator applies
per run (:mod:`repro.runner`).
"""

from __future__ import annotations

import abc
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse as _sp

from repro.core.instance import Direction, Instance
from repro.core.interference import _class_sum, _safe_divide

__all__ = [
    "ARRAY_NAMESPACES",
    "BACKENDS",
    "BackendConfig",
    "GainBackend",
    "ArrayBackend",
    "DenseBackend",
    "SparseBackend",
    "backend_config",
    "build_backend",
    "use_backend",
    "validate_growth",
]

#: Registered backend names.  ``"sharded"`` lives in
#: :mod:`repro.distributed` (block-row shards over a
#: :class:`repro.runner.executors.ShardExecutor`) and is resolved
#: lazily by :func:`build_backend` to keep this module import-light.
BACKENDS = ("dense", "sparse", "array", "sharded")

#: Array-API namespaces :class:`ArrayBackend` can host its storage in.
#: ``numpy`` ships with the library; the others resolve lazily at build
#: time and raise an :class:`ImportError` naming the install extra when
#: missing (``pip install 'repro-oblivious-interference-scheduling[array]'``
#: for the portability namespaces; ``torch``/``cupy`` additionally need
#: the framework itself).
ARRAY_NAMESPACES = ("numpy", "array_api_strict", "torch", "cupy")

#: Default number of gain-matrix rows computed at once while building
#: or growing any backend (or row-summing a sparse one); peak scratch
#: memory beyond the stored gains is ``O(tile * n)``.
DEFAULT_TILE_ROWS = 512


#: Registered shard-executor names (mirrors
#: :data:`repro.runner.executors.SHARD_EXECUTORS`; duplicated here so
#: validating a configuration never imports the runner package).
SHARD_EXECUTORS = ("serial", "process")

#: Hard ceiling on shard workers — W beyond the block-row count only
#: adds empty shards and per-call fan-out cost.
MAX_SHARD_WORKERS = 256


def _choice(what: str, value: object, allowed: Tuple[str, ...]) -> str:
    name = str(value).strip().lower()
    if name not in allowed:
        raise ValueError(f"{what} must be one of {allowed}, got {name!r}")
    return name


def _env_choice(
    var: str, default: str, allowed: Tuple[str, ...], role: str = ""
) -> str:
    """A name-valued ``REPRO_*`` variable (blank = *default*)."""
    raw = os.environ.get(var, default)
    name = raw.strip().lower() or default
    if name not in allowed:
        raise ValueError(f"{var} must be one of {allowed}{role}, got {raw!r}")
    return name


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"sparse epsilon must be in [0, 1), got {epsilon}")
    return epsilon


@dataclass(frozen=True, eq=False)
class BackendConfig:
    """Which gain backend to build, with every setting it reads.

    Equality, hashing and ``str`` look only at the settings the backend
    reads, so two configurations that build the same backend compare
    and hash equal (``BackendConfig("dense", epsilon=0.1) ==
    BackendConfig()``) and the context cache keys on the configuration
    itself; *device* counts by ``str(device)``.  The fields themselves
    keep every value given, so an ambient ε or shard setting survives
    until an :meth:`override` selects a backend that reads it.

    backend:
        One of :data:`BACKENDS`.
    epsilon:
        Per-row pruned-mass budget in ``[0, 1)`` of the ε-pruned CSR
        storages (``"sparse"``, ``"sharded"``); ``0`` keeps every
        nonzero entry.
    array_namespace, device:
        Array-API namespace (:data:`ARRAY_NAMESPACES`) and device of
        the ``"array"`` backend (``None`` = the namespace's default).
    shard_workers, shard_executor:
        Worker count in ``[1, MAX_SHARD_WORKERS]`` and executor name
        (:data:`SHARD_EXECUTORS`) of the ``"sharded"`` backend.
    """

    backend: str = "dense"
    epsilon: float = 0.0
    array_namespace: str = "numpy"
    device: Optional[object] = None
    shard_workers: int = 2
    shard_executor: str = "process"
    _key: Tuple[object, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        backend = _choice("backend", self.backend, BACKENDS)
        epsilon = _check_epsilon(self.epsilon)
        namespace = _choice(
            "array namespace", self.array_namespace, ARRAY_NAMESPACES
        )
        workers = int(self.shard_workers)
        if not 1 <= workers <= MAX_SHARD_WORKERS:
            raise ValueError(
                f"shard workers must be in [1, {MAX_SHARD_WORKERS}], "
                f"got {workers}"
            )
        executor = _choice("shard executor", self.shard_executor, SHARD_EXECUTORS)
        for name, value in (
            ("backend", backend),
            ("epsilon", epsilon),
            ("array_namespace", namespace),
            ("shard_workers", workers),
            ("shard_executor", executor),
        ):
            object.__setattr__(self, name, value)
        # The identity: a setting the backend ignores counts as its
        # field default (the class attribute).
        default = type(self)
        array, sharded = backend == "array", backend == "sharded"
        object.__setattr__(self, "_key", (
            backend,
            epsilon if self.sparse_storage else default.epsilon,
            namespace if array else default.array_namespace,
            str(self.device) if array and self.device is not None else "",
            workers if sharded else default.shard_workers,
            executor if sharded else default.shard_executor,
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BackendConfig):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def override(self, **values: object) -> "BackendConfig":
        """A copy with the given fields replaced; ``None`` values keep
        the current setting (how optional keywords and CLI flags layer
        over the ambient configuration)."""
        return replace(
            self, **{k: v for k, v in values.items() if v is not None}
        )

    def canonical(self) -> "BackendConfig":
        """An equal configuration whose ignored settings are reset to
        their defaults — what a built context reports."""
        _, epsilon, namespace, _, workers, executor = self._key
        return replace(
            self,
            epsilon=epsilon,
            array_namespace=namespace,
            device=self.device if self.backend == "array" else None,
            shard_workers=workers,
            shard_executor=executor,
        )

    @property
    def sparse_storage(self) -> bool:
        """ε-pruned CSR storage (``"sparse"`` or ``"sharded"``): ε
        applies, and an algorithm that needs dense ``O(n^2)`` state
        must materialize it."""
        return self.backend in ("sparse", "sharded")

    def __str__(self) -> str:
        """Canonical form, e.g. ``"dense"``, ``"sparse:eps=0.05"``,
        ``"sharded:eps=0.0,workers=2,executor=process"``."""
        backend, epsilon, namespace, device, workers, executor = self._key
        if backend == "array":
            return f"array:{namespace}" + (f"@{device}" if device else "")
        if backend == "sparse":
            return f"sparse:eps={epsilon!r}"
        if backend == "sharded":
            return (
                f"sharded:eps={epsilon!r},workers={workers},"
                f"executor={executor}"
            )
        return backend

    @classmethod
    def from_env(cls) -> "BackendConfig":
        """The configuration the ``REPRO_*`` environment variables name.

        Read once at import as the ambient default; a malformed value
        fails there with a message naming the variable and the accepted
        values, not deep inside the first ``get_context`` call.
        Selecting an array namespace whose package is missing still
        fails lazily at backend build (validation imports nothing).
        """
        env = os.environ
        backend = _env_choice("REPRO_BACKEND", "dense", BACKENDS)
        raw = env.get("REPRO_SPARSE_EPSILON", "0")
        try:
            epsilon = float(raw)
        except ValueError:
            raise ValueError(
                "REPRO_SPARSE_EPSILON must be a float in [0, 1) (the sparse "
                f"backend's per-row pruned-mass budget), got {raw!r}"
            ) from None
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(
                f"REPRO_SPARSE_EPSILON must be in [0, 1), got {raw!r}"
            )
        namespace = _env_choice(
            "REPRO_ARRAY_NAMESPACE",
            "numpy",
            ARRAY_NAMESPACES,
            " (the array-API namespace hosting ArrayBackend storage)",
        )
        raw = env.get("REPRO_SHARD_WORKERS", "2")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                "REPRO_SHARD_WORKERS must be an integer in "
                f"[1, {MAX_SHARD_WORKERS}] (the sharded backend's worker "
                f"count), got {raw!r}"
            ) from None
        if not 1 <= workers <= MAX_SHARD_WORKERS:
            raise ValueError(
                f"REPRO_SHARD_WORKERS must be in [1, {MAX_SHARD_WORKERS}], "
                f"got {raw!r}"
            )
        executor = _env_choice(
            "REPRO_SHARD_EXECUTOR",
            "process",
            SHARD_EXECUTORS,
            " (how the sharded backend hosts its workers)",
        )
        return cls(backend, epsilon, namespace, None, workers, executor)


#: The ambient configuration: what ``get_context`` and friends build
#: when given no explicit ``config``.  A context variable, so a
#: :func:`use_backend` scope covers its own thread (or asyncio task)
#: only.
_config: "ContextVar[BackendConfig]" = ContextVar(
    "repro_backend_config", default=BackendConfig.from_env()
)


def backend_config() -> BackendConfig:
    """The ambient :class:`BackendConfig` (``REPRO_*`` env at import,
    unless a :func:`use_backend` scope is active)."""
    return _config.get()


@contextmanager
def use_backend(config: BackendConfig) -> Iterator[BackendConfig]:
    """Make *config* the ambient backend configuration inside the
    ``with`` block (restored on exit, also on an exception)."""
    if not isinstance(config, BackendConfig):
        raise TypeError(
            f"use_backend needs a BackendConfig, got {type(config).__name__}"
        )
    token = _config.set(config)
    try:
        yield config
    finally:
        _config.reset(token)


def _import_array_namespace(name: str):
    """The array-API namespace module backing *name*.

    Imports are deferred to backend build so merely *configuring* a
    namespace (env var, :class:`BackendConfig`) never imports a
    heavy framework — and a missing package fails with an error naming
    the install extra instead of a bare ``ModuleNotFoundError``.
    """
    if name == "numpy":
        return np
    if name == "array_api_strict":
        try:
            import array_api_strict
        except ImportError:
            raise ImportError(
                "array namespace 'array_api_strict' needs the "
                "array-api-strict package; install the array extra "
                "(pip install 'repro-oblivious-interference-scheduling[array]')"
            ) from None
        return array_api_strict
    # torch / cupy expose near-conformant namespaces; array-api-compat
    # wraps them into fully standard ones so the backend code stays
    # framework-agnostic.
    try:
        import importlib

        return importlib.import_module(f"array_api_compat.{name}")
    except ImportError:
        raise ImportError(
            f"array namespace {name!r} needs {name} plus array-api-compat; "
            "install the array extra "
            "(pip install 'repro-oblivious-interference-scheduling[array]') "
            f"and {name} itself"
        ) from None


def _gain_block(
    instance: Instance,
    powers: np.ndarray,
    endpoint_nodes: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """One endpoint's gain sub-block ``G[rows][:, cols]``.

    Computed from :meth:`~repro.geometry.metric.Metric.loss_block`
    tiles with the exact elementwise operations of the full-matrix
    builders (:func:`~repro.core.interference.directed_gain_matrix` /
    :func:`~repro.core.interference.bidirectional_gain_matrices`), so
    every entry is bit-identical to its full-matrix counterpart —
    including the zero diagonal where a row and column name the same
    request.  This is the fill primitive of every gain build: the
    dense and array builds and their appends (:func:`_fill_gains`),
    the tiled sparse and sharded CSR builds, and sparse growth.
    """
    metric = instance.metric
    alpha = instance.alpha
    w = endpoint_nodes[rows]
    if instance.direction is Direction.DIRECTED:
        loss = metric.loss_block(w, instance.senders[cols], alpha)
    else:
        loss = np.minimum(
            metric.loss_block(w, instance.senders[cols], alpha),
            metric.loss_block(w, instance.receivers[cols], alpha),
        )
    gains = _safe_divide(powers[cols][None, :], loss)
    diagonal = rows[:, None] == cols[None, :]
    if np.any(diagonal):
        gains[diagonal] = 0.0
    return gains


def _host_gain_targets(instance: Instance):
    """Endpoint-node arrays to build each gain matrix from: the
    receivers in the directed variant (``G``), the senders and the
    receivers in the bidirectional one (``G_u``, ``G_v``)."""
    if instance.direction is Direction.DIRECTED:
        return (instance.receivers,)
    return (instance.senders, instance.receivers)


def _fill_gains(bufs, instance: Instance, powers: np.ndarray, n_old: int) -> bool:
    """Fill the gains of requests ``n_old .. instance.n`` into host
    buffers that already hold the first ``n_old`` rows and columns.

    *bufs* has one buffer of at least ``(n, n)`` per entry of
    :func:`_host_gain_targets`.  Each is filled by :func:`_gain_block`
    tiles of :data:`DEFAULT_TILE_ROWS` rows: the top-right block (what
    the new requests induce at the existing rows), then the new rows
    over all ``n`` columns.  With ``n_old = 0`` this is the whole
    matrix, which never touches the metric's full distance matrix on
    coordinate-backed metrics.  Returns whether any filled entry is
    non-finite.
    """
    n = instance.n
    all_idx = np.arange(n)
    tile = DEFAULT_TILE_ROWS
    # (row start, row stop, first column) of each tile.
    strips = [(lo, min(lo + tile, n_old), n_old) for lo in range(0, n_old, tile)]
    strips += [(lo, min(lo + tile, n), 0) for lo in range(n_old, n, tile)]
    non_finite = False
    for buf, nodes in zip(bufs, _host_gain_targets(instance)):
        for lo, hi, c0 in strips:
            block = _gain_block(
                instance, powers, nodes, all_idx[lo:hi], all_idx[c0:]
            )
            non_finite = non_finite or not bool(np.all(np.isfinite(block)))
            buf[lo:hi, c0:n] = block
    return non_finite


def _build_gains(instance: Instance, powers: np.ndarray):
    """The ``(n, n)`` host gain matrices of *instance*, one per
    :func:`_host_gain_targets` entry, filled by :func:`_fill_gains`
    (bit-identical to the full-matrix builders), and whether any entry
    is non-finite."""
    n = instance.n
    hosts = tuple(np.empty((n, n)) for _ in _host_gain_targets(instance))
    return hosts, _fill_gains(hosts, instance, powers, 0)


def validate_growth(
    old_instance: Instance,
    old_powers: np.ndarray,
    new_instance: Instance,
    new_powers: np.ndarray,
) -> None:
    """Check that ``(new_instance, new_powers)`` extends the old pair
    *in place*: same metric object, variant and alpha; the existing
    requests (and their powers, bitwise) unchanged as a prefix; only
    new requests appended.  Raises :class:`ValueError` naming the first
    violated condition — the contract every
    :meth:`GainBackend.append_requests` (and the context/kernel growth
    built on it) relies on for bit-identity with a cold rebuild.
    """
    if new_instance.metric is not old_instance.metric:
        raise ValueError(
            "growth must keep the same metric object; rebuild instead of "
            "appending when the metric changes"
        )
    if new_instance.direction is not old_instance.direction:
        raise ValueError(
            f"growth cannot change the problem variant "
            f"({old_instance.direction.value} -> {new_instance.direction.value})"
        )
    if new_instance.alpha != old_instance.alpha:
        raise ValueError(
            f"growth cannot change alpha "
            f"({old_instance.alpha} -> {new_instance.alpha})"
        )
    n_old = old_instance.n
    if new_instance.n < n_old:
        raise ValueError(
            f"growth cannot shrink the instance "
            f"(n={old_instance.n} -> n={new_instance.n})"
        )
    if not (
        np.array_equal(new_instance.senders[:n_old], old_instance.senders)
        and np.array_equal(
            new_instance.receivers[:n_old], old_instance.receivers
        )
    ):
        raise ValueError(
            "growth must keep the existing request pairs unchanged as a "
            "prefix of the new instance"
        )
    new_powers = np.asarray(new_powers, dtype=float).reshape(-1)
    if new_powers.shape != (new_instance.n,):
        raise ValueError(
            f"powers must have shape ({new_instance.n},), "
            f"got {new_powers.shape}"
        )
    if not np.array_equal(
        new_powers[:n_old], np.asarray(old_powers, dtype=float)
    ):
        raise ValueError(
            "growth must keep the powers of existing requests bit-identical "
            "(oblivious assignments are elementwise, so re-resolving them "
            "preserves the prefix; explicit vectors must be appended to)"
        )


@lru_cache(maxsize=8)
def _all_rows(n: int) -> np.ndarray:
    """Read-only ``arange(n)``: the row list of a column that stores
    every row (:meth:`GainBackend.column_entries` on dense storage)."""
    rows = np.arange(n)
    rows.setflags(write=False)
    return rows


class GainBackend(abc.ABC):
    """Access protocol for one pair of endpoint gain matrices.

    Methods come in ``_u``/``_v`` pairs; in the directed variant the
    ``_v`` member is the same object/value as ``_u`` (mirroring the
    aliased matrices of the dense engine).  All return **dense** numpy
    scratch arrays — never views a caller must not mutate, except where
    a concrete class documents otherwise.
    """

    #: Backend name (one of :data:`BACKENDS`).
    name: str = "?"

    #: Running total of feasibility comparisons that landed inside a
    #: pruned-mass uncertainty band (see the module docstring).  Always
    #: ``0`` for lossless backends; incremented by every scheduler
    #: kernel sharing this backend, so per-run certification compares
    #: before/after (or resets first) — each
    #: :class:`~repro.core.kernels.ScheduleKernel` also keeps its own
    #: per-run count.
    flip_risk_events: int = 0

    def reset_flip_risk(self) -> None:
        """Reset the at-risk-comparison counter."""
        self.flip_risk_events = 0

    # -- growth --------------------------------------------------------

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        """Grow the backend in place to ``(instance, powers)``, which
        must extend the pair the backend was built from (see
        :func:`validate_growth`): same metric/variant/alpha, existing
        requests and powers bit-unchanged as a prefix, new requests
        appended.  Only the new rows and columns are computed (from
        :func:`_gain_block` tiles), so an arrival costs ``O(n)`` gain
        entries per endpoint instead of the ``O(n^2)`` cold rebuild —
        and with ``epsilon = 0`` the grown storage is **bit-identical**
        to a cold build of the grown pair.

        Backends that cannot grow raise :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support in-place growth"
        )

    # -- shape / bookkeeping -------------------------------------------

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of requests."""

    @property
    @abc.abstractmethod
    def directed(self) -> bool:
        """Is there a single (aliased) gain matrix?"""

    @property
    @abc.abstractmethod
    def has_infinite_gains(self) -> bool:
        """Does any entry equal ``inf`` (shared-node pairs)?"""

    @property
    @abc.abstractmethod
    def pruned_mass_u(self) -> np.ndarray:
        """Per-request upper bound on gain mass dropped from row ``i``
        of ``G_u`` (exact zeros for lossless backends)."""

    @property
    @abc.abstractmethod
    def pruned_mass_v(self) -> np.ndarray:
        """Endpoint-``v`` counterpart of :attr:`pruned_mass_u`."""

    @property
    def pruned_bound(self) -> np.ndarray:
        """Worst-endpoint pruned mass ``max(pm_u, pm_v)`` per request —
        the additive uncertainty of any worst-endpoint interference
        value this backend reports."""
        if self.directed:
            return self.pruned_mass_u
        return np.maximum(self.pruned_mass_u, self.pruned_mass_v)

    @property
    def is_lossless(self) -> bool:
        """Does this backend reproduce the full matrices exactly?"""
        return not bool(
            np.any(self.pruned_mass_u > 0) or np.any(self.pruned_mass_v > 0)
        )

    # -- primitives ----------------------------------------------------

    def col_u(self, j: int) -> np.ndarray:
        """Column ``G_u[:, j]`` as a dense ``(n,)`` array: what request
        *j* induces at every request's ``u`` endpoint.  By default the
        :meth:`column_entries` scattered into zeros; dense storage
        overrides it with a view of its transpose."""
        return self._scatter_column(j, "u")

    def col_v(self, j: int) -> np.ndarray:
        """Column ``G_v[:, j]``."""
        return self._scatter_column(j, "v")

    def _scatter_column(self, j: int, side: str) -> np.ndarray:
        rows, values = self.column_entries(j, side)
        out = np.zeros(self.n)
        out[rows] = values
        return out

    @abc.abstractmethod
    def column_entries(
        self, j: int, side: str = "u"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stored entries of column ``G_side[:, j]`` as ``(rows,
        values)`` (*side* is ``"u"`` or ``"v"``; the directed ``"v"``
        column is the ``"u"`` one).

        *rows* are unique and ascending, and every row not listed holds
        an exact zero, so a kernel that updates or tests only the listed
        rows makes the same decisions as one that scans the dense
        column.  Pruned storage lists only its kept entries (about
        ``density * n``); dense storage lists every row.  Both arrays
        are read-only views or scratch the caller must not mutate.
        """

    @abc.abstractmethod
    def row_u(self, i: int) -> np.ndarray:
        """Row ``G_u[i, :]`` as a dense ``(n,)`` array."""

    @abc.abstractmethod
    def row_v(self, i: int) -> np.ndarray:
        """Row ``G_v[i, :]``."""

    @abc.abstractmethod
    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        """Dense ``(n, k)`` gather ``G_u[:, members]``."""

    @abc.abstractmethod
    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        """Dense ``(n, k)`` gather ``G_v[:, members]``."""

    @abc.abstractmethod
    def block_u(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``(k, k)`` sub-block ``G_u[np.ix_(idx, idx)]`` (a fresh
        writable buffer)."""

    @abc.abstractmethod
    def block_v(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``(k, k)`` sub-block of ``G_v``."""

    @abc.abstractmethod
    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), len(cols))`` gather
        ``G_u[np.ix_(rows, cols)]``."""

    @abc.abstractmethod
    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Endpoint-``v`` counterpart of :meth:`cross_block_u`."""

    def _row_sums(self, cross_block, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        out = np.empty(rows.size)
        tile = max(1, int(getattr(self, "tile_rows", DEFAULT_TILE_ROWS)))
        for lo in range(0, rows.size, tile):
            hi = min(lo + tile, rows.size)
            out[lo:hi] = cross_block(rows[lo:hi], cols).sum(axis=1)
        return out

    def row_sums_u(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-row gain sums ``G_u[np.ix_(rows, cols)].sum(axis=1)``
        (*cols* defaults to *rows*) without materializing the block.

        The reduction runs tile-by-tile (``tile_rows`` rows of dense
        scratch at a time), so peak memory is ``O(tile * len(cols))``
        instead of ``O(len(rows) * len(cols))`` — and each scratch row
        is a contiguous length-``len(cols)`` buffer reduced with NumPy's
        per-row pairwise summation, so every value is **bit-identical**
        to gathering the full block and calling ``.sum(axis=1)``.  On
        the sparse backend the tiles come straight from CSR row
        slicing, so no dense ``(k, k)`` block ever exists.
        """
        return self._row_sums(self.cross_block_u, rows, cols)

    def row_sums_v(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Endpoint-``v`` counterpart of :meth:`row_sums_u`."""
        return self._row_sums(self.cross_block_v, rows, cols)

    @abc.abstractmethod
    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        """Same-color row sums of ``G_u`` (all columns when *colors* is
        ``None``) — cf. :func:`repro.core.interference._class_sum`."""

    @abc.abstractmethod
    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        """Same-color row sums of ``G_v``."""

    # -- dense materialization (compat / analysis layers) --------------

    @abc.abstractmethod
    def dense_u(self) -> np.ndarray:
        """The full ``(n, n)`` matrix ``G_u``.  O(n^2) memory — sparse
        backends materialize it on every call; intended for the
        analysis layers and small instances, never for hot loops."""

    @abc.abstractmethod
    def dense_v(self) -> np.ndarray:
        """The full ``G_v`` (aliases :meth:`dense_u` when directed)."""

    @abc.abstractmethod
    def dense_ut(self) -> np.ndarray:
        """Contiguous transpose of ``G_u`` (O(n^2) memory)."""

    @abc.abstractmethod
    def dense_vt(self) -> np.ndarray:
        """Contiguous transpose of ``G_v``."""

    # -- stats ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Stored nonzero entries across both endpoint matrices
        (aliased matrices counted once)."""

    @property
    def density(self) -> float:
        """``nnz`` per matrix entry (1.0 for dense storage)."""
        matrices = 1 if self.directed else 2
        return float(self.nnz) / float(matrices * self.n * self.n)

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate bytes held by the gain storage."""


class DenseBackend(GainBackend):
    """The materialized ``(n, n)`` gain arrays (bit-exact reference).

    Exposes the arrays themselves (:attr:`gains_u`, :attr:`gains_v`,
    cached contiguous transposes :attr:`gains_ut`/:attr:`gains_vt` and
    the worst-endpoint :attr:`worst_gains`) for the dense-only fast
    paths (stacked batching, affectance analyses); every protocol
    primitive evaluates the exact gather expression the engine used
    before the backend split.
    """

    name = "dense"

    def __init__(self, gains_u: np.ndarray, gains_v: np.ndarray):
        self.flip_risk_events = 0
        self._gains_u = gains_u
        self._gains_v = gains_v
        self._gains_t: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._worst: Optional[np.ndarray] = None
        self._has_inf: Optional[bool] = None
        self._zero_mass: Optional[np.ndarray] = None
        # Growth state (populated by build(); raw-constructed backends
        # cannot grow because they do not know their instance).
        self._instance: Optional[Instance] = None
        self._powers: Optional[np.ndarray] = None
        self._buf_u: Optional[np.ndarray] = None
        self._buf_v: Optional[np.ndarray] = None
        self._buf_ut: Optional[np.ndarray] = None
        self._buf_vt: Optional[np.ndarray] = None

    @classmethod
    def build(cls, instance: Instance, powers: np.ndarray) -> "DenseBackend":
        """Build tile by tile (:func:`_build_gains`): every entry equals
        the full-matrix builders'
        (:func:`~repro.core.interference.directed_gain_matrix` /
        :func:`~repro.core.interference.bidirectional_gain_matrices`)
        bitwise, but only the ``n x n`` endpoint cells are computed (on
        coordinate-backed metrics the node x node distance matrix is
        never built)."""
        powers = np.asarray(powers, dtype=float).reshape(-1)
        hosts, non_finite = _build_gains(instance, powers)
        for host in hosts:
            host.setflags(write=False)
        backend = cls(hosts[0], hosts[-1])
        backend._has_inf = non_finite
        backend._instance = instance
        backend._powers = powers
        return backend

    # -- growth --------------------------------------------------------

    def _ensure_capacity(self, n_new: int) -> None:
        """Guarantee the backing buffers hold at least ``n_new`` rows
        and columns, doubling capacity on reallocation so a stream of
        single-request appends reallocates ``O(log n)`` times (amortized
        O(1) copied entries per appended entry)."""
        if self._buf_u is not None and self._buf_u.shape[0] >= n_new:
            return
        n_old = self.n
        cap = max(n_new, 2 * n_old)
        directed = self.directed
        buf_u = np.zeros((cap, cap))
        buf_u[:n_old, :n_old] = self._gains_u
        self._buf_u = buf_u
        if directed:
            self._buf_v = buf_u
        else:
            buf_v = np.zeros((cap, cap))
            buf_v[:n_old, :n_old] = self._gains_v
            self._buf_v = buf_v

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        if self._instance is None:
            raise ValueError(
                "this DenseBackend was constructed from raw arrays; only "
                "backends built via DenseBackend.build(...) can grow"
            )
        validate_growth(self._instance, self._powers, instance, powers)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n_old, n_new = self.n, instance.n
        if n_new == n_old:
            self._instance, self._powers = instance, powers
            return
        self._ensure_capacity(n_new)
        new_inf = _fill_gains((self._buf_u, self._buf_v), instance, powers, n_old)
        gains_u = self._buf_u[:n_new, :n_new]
        gains_u.setflags(write=False)
        if self._buf_v is self._buf_u:
            gains_v = gains_u
        else:
            gains_v = self._buf_v[:n_new, :n_new]
            gains_v.setflags(write=False)
        self._gains_u, self._gains_v = gains_u, gains_v
        if self._gains_t is not None:
            # Extend the materialized transposes in place: dropping
            # them would make the next col_u/col_v after every arrival
            # re-transpose the whole O(n^2) matrix, turning the O(n)
            # admission path quadratic.
            self._grow_transposes(n_old, n_new)
        self._worst = None
        self._zero_mass = None
        if new_inf:
            self._has_inf = True
        # else: False stays False (old and new entries all finite) and
        # None stays lazily recomputed over the grown matrix.
        self._instance, self._powers = instance, powers

    def _grow_transposes(self, n_old: int, n_new: int) -> None:
        """Extend the cached contiguous transposes to ``n_new`` from
        the freshly appended buffer blocks (pure element reordering, so
        trivially bit-identical to re-transposing the grown matrix).
        The transpose buffers share the main buffers' capacity, so a
        single-append stream reallocates them O(log n) times too."""
        cap = self._buf_u.shape[0]
        ut_old, vt_old = self._gains_t
        if self._buf_ut is None or self._buf_ut.shape[0] < n_new:
            buf_ut = np.zeros((cap, cap))
            buf_ut[:n_old, :n_old] = ut_old
            self._buf_ut = buf_ut
            if self._buf_v is self._buf_u:
                self._buf_vt = buf_ut
            else:
                buf_vt = np.zeros((cap, cap))
                buf_vt[:n_old, :n_old] = vt_old
                self._buf_vt = buf_vt
        pairs = (
            ((self._buf_ut, self._buf_u),)
            if self._buf_vt is self._buf_ut
            else ((self._buf_ut, self._buf_u), (self._buf_vt, self._buf_v))
        )
        for buf_t, buf in pairs:
            # New rows of T = new columns of G; new columns of T (above
            # the new rows) = new rows of G.  No overlap, full coverage.
            buf_t[n_old:n_new, :n_new] = buf[:n_new, n_old:n_new].T
            buf_t[:n_old, n_old:n_new] = buf[n_old:n_new, :n_old].T
        gains_ut = self._buf_ut[:n_new, :n_new]
        gains_ut.setflags(write=False)
        if self._buf_vt is self._buf_ut:
            self._gains_t = (gains_ut, gains_ut)
        else:
            gains_vt = self._buf_vt[:n_new, :n_new]
            gains_vt.setflags(write=False)
            self._gains_t = (gains_ut, gains_vt)

    # -- the arrays ----------------------------------------------------

    @property
    def gains_u(self) -> np.ndarray:
        """Gain matrix at endpoint ``u`` (read-only)."""
        return self._gains_u

    @property
    def gains_v(self) -> np.ndarray:
        """Gain matrix at endpoint ``v`` (aliases :attr:`gains_u` in
        the directed variant; read-only)."""
        return self._gains_v

    def _transposes(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._gains_t is None:
            gains_ut = np.ascontiguousarray(self._gains_u.T)
            gains_ut.setflags(write=False)
            if self._gains_v is self._gains_u:
                self._gains_t = (gains_ut, gains_ut)
            else:
                gains_vt = np.ascontiguousarray(self._gains_v.T)
                gains_vt.setflags(write=False)
                self._gains_t = (gains_ut, gains_vt)
        return self._gains_t

    @property
    def gains_ut(self) -> np.ndarray:
        """Contiguous transpose of :attr:`gains_u` (read-only, cached);
        ``gains_ut[j]`` is request ``j``'s gain column laid out
        contiguously."""
        return self._transposes()[0]

    @property
    def gains_vt(self) -> np.ndarray:
        """Contiguous transpose of :attr:`gains_v` (read-only, cached;
        aliases :attr:`gains_ut` in the directed variant)."""
        return self._transposes()[1]

    @property
    def worst_gains(self) -> np.ndarray:
        """Worst-endpoint gains ``max(G_u, G_v)`` (read-only, cached)."""
        if self._worst is None:
            if self._gains_v is self._gains_u:
                self._worst = self._gains_u
            else:
                worst = np.maximum(self._gains_u, self._gains_v)
                worst.setflags(write=False)
                self._worst = worst
        return self._worst

    # -- protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._gains_u.shape[0]

    @property
    def directed(self) -> bool:
        return self._gains_v is self._gains_u

    @property
    def has_infinite_gains(self) -> bool:
        if self._has_inf is None:
            has_inf = not bool(np.all(np.isfinite(self._gains_u)))
            if not has_inf and self._gains_v is not self._gains_u:
                has_inf = not bool(np.all(np.isfinite(self._gains_v)))
            self._has_inf = has_inf
        return self._has_inf

    @property
    def pruned_mass_u(self) -> np.ndarray:
        if self._zero_mass is None:
            zeros = np.zeros(self.n)
            zeros.setflags(write=False)
            self._zero_mass = zeros
        return self._zero_mass

    pruned_mass_v = pruned_mass_u

    def col_u(self, j: int) -> np.ndarray:
        return self.gains_ut[j]

    def col_v(self, j: int) -> np.ndarray:
        return self.gains_vt[j]

    def column_entries(
        self, j: int, side: str = "u"
    ) -> Tuple[np.ndarray, np.ndarray]:
        gains_t = self.gains_ut if side == "u" else self.gains_vt
        return _all_rows(self.n), gains_t[j]

    def row_u(self, i: int) -> np.ndarray:
        return self._gains_u[i]

    def row_v(self, i: int) -> np.ndarray:
        return self._gains_v[i]

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        return self._gains_u[:, members]

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        return self._gains_v[:, members]

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        return self._gains_u[np.ix_(idx, idx)]

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        return self._gains_v[np.ix_(idx, idx)]

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._gains_u[np.ix_(rows, cols)]

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._gains_v[np.ix_(rows, cols)]

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return _class_sum(self._gains_u, colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return _class_sum(self._gains_v, colors)

    def dense_u(self) -> np.ndarray:
        return self._gains_u

    def dense_v(self) -> np.ndarray:
        return self._gains_v

    def dense_ut(self) -> np.ndarray:
        return self.gains_ut

    def dense_vt(self) -> np.ndarray:
        return self.gains_vt

    @property
    def nnz(self) -> int:
        count = int(np.count_nonzero(self._gains_u))
        if self._gains_v is not self._gains_u:
            count += int(np.count_nonzero(self._gains_v))
        return count

    @property
    def density(self) -> float:
        return 1.0  # dense storage holds every entry regardless of value

    @property
    def nbytes(self) -> int:
        total = self._gains_u.nbytes
        if self._gains_v is not self._gains_u:
            total += self._gains_v.nbytes
        if self._gains_t is not None:
            total += self._gains_t[0].nbytes
            if self._gains_t[1] is not self._gains_t[0]:
                total += self._gains_t[1].nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseBackend(n={self.n}, directed={self.directed})"


class ArrayBackend(GainBackend):
    """Gain storage living in any array-API namespace.

    The third :class:`GainBackend`: lossless full-matrix storage like
    :class:`DenseBackend`, but the arrays belong to a standard
    array-API namespace (numpy by default; ``array_api_strict`` for
    portability testing, ``torch``/``cupy`` via ``array-api-compat``
    when installed) and may live on an accelerator device.  The build
    is tiled through :func:`_gain_block` (host side, exactly the
    expressions of the full-matrix builders), followed by **one**
    host→device transfer per endpoint matrix; each primitive computes
    in-namespace and crosses back with a single device→host transfer of
    its (small) result.  Under the numpy namespace both transfers are
    identities and every primitive evaluates to the bitwise
    :class:`DenseBackend` value — asserted backend-wide by
    ``tests/core/test_gains_backends.py`` and across every algorithm by
    the conformance grid.

    Parameters
    ----------
    xp:
        The array-API namespace module.
    arr_u, arr_v:
        The namespace-resident gain matrices (``arr_v is arr_u`` in the
        directed variant).
    namespace:
        Registered namespace name (see :data:`ARRAY_NAMESPACES`).
    device:
        Optional device passed to the namespace's ``asarray``/creation
        functions (``None`` = namespace default).
    """

    name = "array"

    def __init__(self, xp, arr_u, arr_v, namespace: str, device=None):
        self.flip_risk_events = 0
        self._xp = xp
        self.namespace = namespace
        self.device = device
        self._arr_u = arr_u
        self._arr_v = arr_v
        self._arr_t: Optional[Tuple[object, object]] = None
        self._has_inf: Optional[bool] = None
        self._zero_mass: Optional[np.ndarray] = None
        self._host: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._host_t: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._instance: Optional[Instance] = None
        self._powers: Optional[np.ndarray] = None

    @classmethod
    def build(
        cls,
        instance: Instance,
        powers: np.ndarray,
        namespace: str = "numpy",
        device=None,
    ) -> "ArrayBackend":
        """Build tile-by-tile on the host, then upload once.

        Host tiles come from :func:`_gain_block` (bit-identical to the
        full-matrix builders), so the uploaded matrices equal the
        :class:`DenseBackend` arrays entry for entry; the single
        ``asarray`` per endpoint matrix is the only host→device
        transfer of the build.
        """
        name = _choice("array namespace", namespace, ARRAY_NAMESPACES)
        xp = _import_array_namespace(name)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        hosts, non_finite = _build_gains(instance, powers)
        backend = cls(xp, None, None, name, device=device)
        arr_u = backend._upload(hosts[0])
        backend._arr_u = arr_u
        backend._arr_v = arr_u if len(hosts) == 1 else backend._upload(hosts[1])
        backend._has_inf = non_finite
        backend._instance = instance
        backend._powers = powers
        return backend

    # -- transfer boundary ---------------------------------------------

    def _creation_kwargs(self) -> dict:
        return {} if self.device is None else {"device": self.device}

    def _upload(self, host: np.ndarray):
        """The single host→namespace transfer (identity under numpy)."""
        if self._xp is np and self.device is None:
            host.setflags(write=False)
            return host
        return self._xp.asarray(host, **self._creation_kwargs())

    def _download(self, x) -> np.ndarray:
        """The single namespace→host transfer of a primitive's result
        (identity under numpy)."""
        if isinstance(x, np.ndarray):
            return x
        try:
            return np.from_dlpack(x)
        except (TypeError, RuntimeError, BufferError, AttributeError):
            return np.asarray(x)

    def _scratch(self, x) -> np.ndarray:
        """Download as a writable scratch buffer (copying only when the
        zero-copy download came back read-only)."""
        out = self._download(x)
        if not out.flags.writeable:
            out = out.copy()
        return out

    def _idx(self, idx) -> object:
        """Index array in-namespace (int64, on the backend's device)."""
        return self._xp.asarray(
            np.asarray(idx, dtype=np.int64), **self._creation_kwargs()
        )

    # -- growth --------------------------------------------------------

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        if self._instance is None:
            raise ValueError(
                "this ArrayBackend was constructed from raw arrays; only "
                "backends built via ArrayBackend.build(...) can grow"
            )
        validate_growth(self._instance, self._powers, instance, powers)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n_old, n_new = self.n, instance.n
        if n_new == n_old:
            self._instance, self._powers = instance, powers
            return
        # Growth is a host-side rebuild of only the new strips: one
        # download of the existing matrix, _gain_block tiles for the
        # appended rows/columns (the exact entries a cold rebuild would
        # compute), one upload of the grown matrix.
        olds = (self._arr_u,) if self.directed else (self._arr_u, self._arr_v)
        hosts = []
        for old in olds:
            out = np.empty((n_new, n_new))
            out[:n_old, :n_old] = self._download(old)
            hosts.append(out)
        new_inf = _fill_gains(hosts, instance, powers, n_old)
        arr_u = self._upload(hosts[0])
        self._arr_u = arr_u
        self._arr_v = arr_u if len(hosts) == 1 else self._upload(hosts[1])
        self._arr_t = None
        self._host = None
        self._host_t = None
        self._zero_mass = None
        if new_inf:
            self._has_inf = True
        # else: False stays False (old and new entries all finite) and
        # None stays lazily recomputed over the grown matrix.
        self._instance, self._powers = instance, powers

    # -- protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self._arr_u.shape[0])

    @property
    def directed(self) -> bool:
        return self._arr_v is self._arr_u

    @property
    def has_infinite_gains(self) -> bool:
        if self._has_inf is None:
            xp = self._xp
            has_inf = bool(xp.any(xp.isinf(self._arr_u)))
            if not has_inf and self._arr_v is not self._arr_u:
                has_inf = bool(xp.any(xp.isinf(self._arr_v)))
            self._has_inf = has_inf
        return self._has_inf

    @property
    def pruned_mass_u(self) -> np.ndarray:
        if self._zero_mass is None:
            zeros = np.zeros(self.n)
            zeros.setflags(write=False)
            self._zero_mass = zeros
        return self._zero_mass

    pruned_mass_v = pruned_mass_u

    def _transposes(self) -> Tuple[object, object]:
        if self._arr_t is None:
            xp = self._xp
            ut = xp.asarray(xp.matrix_transpose(self._arr_u), copy=True)
            if self._arr_v is self._arr_u:
                self._arr_t = (ut, ut)
            else:
                vt = xp.asarray(xp.matrix_transpose(self._arr_v), copy=True)
                self._arr_t = (ut, vt)
        return self._arr_t

    def col_u(self, j: int) -> np.ndarray:
        return self._download(self._transposes()[0][int(j), :])

    def col_v(self, j: int) -> np.ndarray:
        return self._download(self._transposes()[1][int(j), :])

    def column_entries(
        self, j: int, side: str = "u"
    ) -> Tuple[np.ndarray, np.ndarray]:
        col = self.col_u(j) if side == "u" else self.col_v(j)
        return _all_rows(self.n), col

    def row_u(self, i: int) -> np.ndarray:
        return self._download(self._arr_u[int(i), :])

    def row_v(self, i: int) -> np.ndarray:
        return self._download(self._arr_v[int(i), :])

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        xp = self._xp
        return self._download(xp.take(self._arr_u, self._idx(members), axis=1))

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        xp = self._xp
        return self._download(xp.take(self._arr_v, self._idx(members), axis=1))

    def _cross(self, arr, rows, cols):
        xp = self._xp
        return xp.take(xp.take(arr, self._idx(rows), axis=0), self._idx(cols), axis=1)

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        return self._scratch(self._cross(self._arr_u, idx, idx))

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        return self._scratch(self._cross(self._arr_v, idx, idx))

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._download(self._cross(self._arr_u, rows, cols))

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._download(self._cross(self._arr_v, rows, cols))

    def _row_sums_xp(self, arr, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        xp = self._xp
        # Row sums are independent per row, so one in-namespace pass is
        # bit-identical to the base class's tiled host reduction.
        return self._download(xp.sum(self._cross(arr, rows, cols), axis=1))

    def row_sums_u(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self._row_sums_xp(self._arr_u, rows, cols)

    def row_sums_v(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self._row_sums_xp(self._arr_v, rows, cols)

    def _class_sum_xp(self, arr, colors: Optional[np.ndarray]) -> np.ndarray:
        xp = self._xp
        if colors is None:
            return self._download(xp.sum(arr, axis=1))
        c = self._idx(colors)
        same = c[:, None] == c[None, :]
        i = xp.asarray(
            np.arange(self.n, dtype=np.int64), **self._creation_kwargs()
        )
        same = xp.logical_and(same, i[:, None] != i[None, :])
        masked = xp.where(same, arr, xp.zeros_like(arr))
        return self._download(xp.sum(masked, axis=1))

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return self._class_sum_xp(self._arr_u, colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        return self._class_sum_xp(self._arr_v, colors)

    def _host_readonly(self, x) -> np.ndarray:
        out = self._download(x)
        if out.flags.writeable:
            out.setflags(write=False)
        return out

    def dense_u(self) -> np.ndarray:
        if self._host is None:
            host_u = self._host_readonly(self._arr_u)
            host_v = (
                host_u
                if self._arr_v is self._arr_u
                else self._host_readonly(self._arr_v)
            )
            self._host = (host_u, host_v)
        return self._host[0]

    def dense_v(self) -> np.ndarray:
        self.dense_u()
        return self._host[1]

    def dense_ut(self) -> np.ndarray:
        if self._host_t is None:
            ut, vt = self._transposes()
            host_ut = self._host_readonly(ut)
            host_vt = host_ut if vt is ut else self._host_readonly(vt)
            self._host_t = (host_ut, host_vt)
        return self._host_t[0]

    def dense_vt(self) -> np.ndarray:
        self.dense_ut()
        return self._host_t[1]

    @property
    def nnz(self) -> int:
        xp = self._xp
        count = int(xp.sum(xp.astype(self._arr_u != 0, xp.int64)))
        if self._arr_v is not self._arr_u:
            count += int(xp.sum(xp.astype(self._arr_v != 0, xp.int64)))
        return count

    @property
    def density(self) -> float:
        return 1.0  # full-matrix storage holds every entry

    @property
    def nbytes(self) -> int:
        matrices = 1 if self.directed else 2
        total = 8 * self.n * self.n * matrices
        if self._arr_t is not None:
            total += 8 * self.n * self.n * (
                1 if self._arr_t[1] is self._arr_t[0] else 2
            )
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayBackend(n={self.n}, directed={self.directed}, "
            f"namespace={self.namespace!r}, device={self.device!r})"
        )


#: Candidates per row the ε-prune selects first (``np.argpartition``
#: top-k).  At n=8192 and ε=0.05 a row keeps ~105 entries, so nearly
#: every row settles in the first round.
_PRUNE_START_K = 256
#: Candidate growth factor for rows not settled within k; the last
#: round sorts the whole row.
_PRUNE_K_GROWTH = 8
#: Twice the float64 unit roundoff: ``m * _ROUNDOFF2`` bounds the
#: relative error of any order of summing ``m`` non-negative terms.
_ROUNDOFF2 = 2.0**-52


def _prune_tile(
    tile: np.ndarray, epsilon: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ε-pruning of one dense gain tile.

    Returns ``(keep, pruned_mass)``: a boolean mask of entries to store
    (every ``inf`` entry is always kept, exact zeros never are) and a
    per-row upper bound on the finite mass dropped.  The rule drops the
    *smallest* finite positive entries of a row while their mass stays
    within ``epsilon`` times the row's finite mass ``T`` — equivalently,
    it keeps the fewest largest entries whose float64 running sum
    ``S_j`` (largest first) reaches ``(1 - epsilon) * T`` plus a
    rounding slack of ``(n_cols + 2) * 2**-52 * T``.  The slack covers
    the summation error of ``S_j`` and ``T``, so the exact dropped mass
    never exceeds the budget.

    Only the kept entries need an order: each row's top-``k`` candidates
    come from ``np.argpartition`` (O(n_cols) per row) and only those are
    sorted.  Rows whose running sum does not reach the target within
    ``k`` candidates retry with ``k`` grown by :data:`_PRUNE_K_GROWTH`;
    the last round sorts the whole row.  Every decision depends on its
    row alone, so any split of the rows into tiles or shards stores the
    same entries (which of several equal values at the boundary is kept
    is deterministic, and the mass is the same either way).

    ``pruned_mass`` is the float64 sum of the dropped entries, widened
    by ``1 + (n_cols + 2) * 2**-52`` so it bounds the exact dropped
    mass from above whatever order the sum ran in.
    """
    finite = np.isfinite(tile)
    if epsilon <= 0.0:
        return (finite & (tile > 0)) | ~finite, np.zeros(tile.shape[0])
    n_cols = tile.shape[1]
    # The tile with non-finite entries zeroed (copied only if there are
    # any); zeros never enter the kept set below.
    vals = tile if finite.all() else np.where(finite & (tile > 0), tile, 0.0)
    total = vals.sum(axis=1)
    slack = (n_cols + 2) * _ROUNDOFF2
    target = total * (1.0 - epsilon + slack)
    keep = np.zeros(tile.shape, dtype=bool)
    todo = np.flatnonzero(total > 0)
    k = _PRUNE_START_K
    while todo.size:
        k = min(k, n_cols)
        sub = vals if todo.size == vals.shape[0] else vals[todo]
        if k == n_cols:
            cand = np.argsort(sub, axis=1)
        else:
            cand = np.argpartition(sub, n_cols - k, axis=1)[:, n_cols - k :]
        cval = np.take_along_axis(sub, cand, axis=1)
        order = np.argsort(cval, axis=1)[:, ::-1]
        cand = np.take_along_axis(cand, order, axis=1)
        cval = np.take_along_axis(cval, order, axis=1)
        short = np.count_nonzero(
            np.cumsum(cval, axis=1) < target[todo, None], axis=1
        )
        # Settled: the target was reached, or the candidates already
        # hold every positive entry of the row (its smallest is a zero;
        # a row whose budget is below the rounding slack keeps them all).
        settled = (short < k) | (cval[:, -1] == 0) | (k == n_cols)
        rows = todo[settled]
        keep[rows[:, None], cand[settled]] = (
            np.arange(k) <= short[settled, None]
        ) & (cval[settled] > 0)
        todo = todo[~settled]
        k *= _PRUNE_K_GROWTH
    pruned = vals.sum(axis=1, where=~keep) * (1.0 + slack)
    return keep | ~finite, pruned


def _assemble_csr(
    instance: Instance,
    powers: np.ndarray,
    endpoint_nodes: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    epsilon: float,
    tile_rows: int,
) -> Tuple["_sp.csr_matrix", np.ndarray, bool]:
    """ε-pruned CSR of one endpoint's gain sub-block ``G[rows][:, cols]``
    (column indices relative to *cols*), assembled ``tile_rows`` rows of
    dense scratch at a time from :func:`_gain_block`.

    Returns ``(csr, pruned_mass, has_infinite)`` with ``pruned_mass``
    the per-row bound from :func:`_prune_tile`.  Shared by the cold
    :meth:`SparseBackend.build` (full square block) and the growable
    appends (top-right and bottom strips).
    """
    data, col_chunks, row_nnz = [], [], []
    pruned = np.zeros(rows.size)
    has_inf = False
    for lo in range(0, rows.size, tile_rows):
        hi = min(lo + tile_rows, rows.size)
        gains = _gain_block(instance, powers, endpoint_nodes, rows[lo:hi], cols)
        keep, tile_pruned = _prune_tile(gains, epsilon)
        pruned[lo:hi] = tile_pruned
        kept_rows, kept_cols = np.nonzero(keep)
        kept = gains[kept_rows, kept_cols]
        if not has_inf and kept.size:
            has_inf = not bool(np.all(np.isfinite(kept)))
        data.append(kept)
        col_chunks.append(kept_cols)
        row_nnz.append(np.bincount(kept_rows, minlength=hi - lo))
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    if row_nnz:
        np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    csr = _sp.csr_matrix(
        (
            np.concatenate(data) if data else np.zeros(0),
            np.concatenate(col_chunks)
            if col_chunks
            else np.zeros(0, dtype=int),
            indptr,
        ),
        shape=(rows.size, cols.size),
    )
    return csr, pruned, has_inf


class _PendingBlock:
    """One unconsolidated arrival batch of a growing sparse endpoint.

    Appending at size ``start`` contributes exactly two strips: the
    *right* strip ``G[:start, start:start+k]`` (what the ``k`` arrivals
    induce at every pre-existing request, kept both row-major and
    pre-transposed for O(row) column slices) and the *bottom* strip
    ``G[start:start+k, :start+k]`` (the arrivals' full rows).  Folding
    the blocks into the base CSR in arrival order reproduces the
    rebuild-per-arrival storage bit-for-bit, so consolidation can be
    deferred and amortized (see :meth:`SparseBackend.flush_growth`).
    """

    __slots__ = ("start", "right", "right_t", "bottom")

    def __init__(self, start: int, right, bottom):
        self.start = int(start)
        self.right = right
        self.right_t = right.T.tocsr()
        self.bottom = bottom

    @property
    def k(self) -> int:
        return self.right.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.right.nnz) + int(self.bottom.nnz)

    @property
    def nbytes(self) -> int:
        total = 0
        for csr in (self.right, self.right_t, self.bottom):
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return total


def _csr_col(csr: "_sp.csr_matrix", col: int) -> Tuple[np.ndarray, np.ndarray]:
    """The stored entries of column *col* of a row-major CSR with sorted
    indices, as ``(rows, values)`` (one binary search per row)."""
    rows, values = [], []
    for row in range(csr.shape[0]):
        lo, hi = csr.indptr[row], csr.indptr[row + 1]
        pos = lo + np.searchsorted(csr.indices[lo:hi], col)
        if pos < hi and csr.indices[pos] == col:
            rows.append(row)
            values.append(csr.data[pos])
    return np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=float)


class SparseBackend(GainBackend):
    """ε-pruned CSR gains with per-request dropped-mass bounds.

    Storage is one CSR matrix per endpoint plus its transposed CSR (for
    O(row) column access); both are assembled tile-by-tile through
    :meth:`repro.geometry.metric.Metric.distance_block`, so neither the
    gain nor the distance matrix is ever dense in memory.  See the
    module docstring for the pruning rule and the exactness /
    certification contract.

    Growth (``append_requests``) is *deferred*: arrival strips are kept
    as :class:`_PendingBlock` buffers next to the consolidated base CSR
    and folded in (one stacking pass plus one transpose rebuild) only
    when the pending rows reach the base size, when a block-structured
    query needs them, or on an explicit :meth:`flush_growth` — so a
    stream of single-request arrivals consolidates ``O(log n)`` times
    instead of rebuilding ``O(nnz)`` transposes per arrival, while the
    hot single-row/column queries of live admission read base +
    pending directly without consolidating at all.
    """

    name = "sparse"

    def __init__(
        self,
        csr_u: "_sp.csr_matrix",
        csr_v: "_sp.csr_matrix",
        pruned_mass_u: np.ndarray,
        pruned_mass_v: np.ndarray,
        epsilon: float,
        has_infinite: bool,
    ):
        self.flip_risk_events = 0
        self.epsilon = float(epsilon)
        # Row lookups binary-search the stored column indices.
        for csr in (csr_u, csr_v):
            if not csr.has_canonical_format:
                csr.sum_duplicates()
        self._csr_u = csr_u
        self._csr_v = csr_v
        self._csr_ut = csr_u.T.tocsr()
        self._csr_vt = (
            self._csr_ut if csr_v is csr_u else csr_v.T.tocsr()
        )
        pruned_mass_u.setflags(write=False)
        pruned_mass_v.setflags(write=False)
        self._pruned_u = pruned_mass_u
        self._pruned_v = pruned_mass_v
        self._has_inf = bool(has_infinite)
        self.tile_rows = DEFAULT_TILE_ROWS
        # Growth state (populated by build(); raw-constructed backends
        # cannot grow because they do not know their instance).
        self._instance: Optional[Instance] = None
        self._powers: Optional[np.ndarray] = None
        # Deferred-consolidation buffers: logical size, pending arrival
        # blocks per endpoint (aliased when directed, like the CSRs).
        self._n = int(csr_u.shape[0])
        self._pend_u: list = []
        self._pend_v: list = self._pend_u if csr_v is csr_u else []

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        instance: Instance,
        powers: np.ndarray,
        epsilon: float = 0.0,
        tile_rows: int = DEFAULT_TILE_ROWS,
    ) -> "SparseBackend":
        """Tiled CSR build for ``(instance, powers)``.

        Gain values are computed with the exact elementwise operations
        of the full-matrix builders
        (:func:`~repro.core.interference.directed_gain_matrix` /
        :func:`~repro.core.interference.bidirectional_gain_matrices`)
        applied to metric blocks,
        so every *stored* entry is bit-identical to its dense
        counterpart.
        """
        epsilon = _check_epsilon(epsilon)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n = instance.n
        tile_rows = max(1, int(tile_rows))
        s, r = instance.senders, instance.receivers
        directed = instance.direction is Direction.DIRECTED
        all_cols = np.arange(n)

        def build_endpoint(endpoint_nodes: np.ndarray):
            csr, pruned, has_inf = _assemble_csr(
                instance,
                powers,
                endpoint_nodes,
                all_cols,
                all_cols,
                epsilon,
                tile_rows,
            )
            return csr, pruned, has_inf

        if directed:
            csr_u, pruned_u, has_inf = build_endpoint(r)
            csr_v, pruned_v = csr_u, pruned_u
        else:
            csr_u, pruned_u, inf_u = build_endpoint(s)
            csr_v, pruned_v, inf_v = build_endpoint(r)
            has_inf = inf_u or inf_v
        backend = cls(csr_u, csr_v, pruned_u, pruned_v, epsilon, has_inf)
        backend._instance = instance
        backend._powers = powers
        return backend

    def append_requests(self, instance: Instance, powers: np.ndarray) -> None:
        """Append the new requests' CSR rows and extend every existing
        row with the new columns, tile-by-tile.

        With ``epsilon = 0`` the kept set of each entry is independent
        of its row context (keep positive finite and ``inf``, drop exact
        zeros), so the grown CSR storage — data, indices, indptr and
        the transposed matrices, after consolidation — is
        **bit-identical** to a cold :meth:`build` of the grown pair.
        With ``epsilon > 0`` the appended block of each existing row is
        pruned *on its own* (its dropped mass, at most ``epsilon``
        times the block's finite mass, is added to the row's recorded
        bound): a cold rebuild would re-prune whole rows against their
        grown mass and may keep a different set, so grown and cold
        storages can differ — but the backend remains a conservative
        under-estimator with a true per-row pruned-mass upper bound,
        which is all certification needs.

        The new strips are buffered as a :class:`_PendingBlock` instead
        of being stacked into the base CSR immediately; consolidation
        (including the O(nnz) transposed-CSR rebuild that used to run
        on *every* arrival) is deferred until the pending rows reach
        the base size — see :meth:`flush_growth` — so a stream of
        arrivals pays amortized ``O(n)`` per arrival, not ``O(nnz)``.
        """
        if self._instance is None:
            raise ValueError(
                "this SparseBackend was constructed from raw matrices; "
                "only backends built via SparseBackend.build(...) can grow"
            )
        validate_growth(self._instance, self._powers, instance, powers)
        powers = np.asarray(powers, dtype=float).reshape(-1)
        n_old, n_new = self.n, instance.n
        if n_new == n_old:
            self._instance, self._powers = instance, powers
            return
        epsilon = self.epsilon
        tile = max(1, int(self.tile_rows))
        old_idx = np.arange(n_old)
        new_idx = np.arange(n_old, n_new)
        all_idx = np.arange(n_new)

        def extend_endpoint(pend, pruned_old, endpoint_nodes):
            right, extra_pruned, inf_right = _assemble_csr(
                instance, powers, endpoint_nodes, old_idx, new_idx,
                epsilon, tile,
            )
            bottom, pruned_new, inf_bottom = _assemble_csr(
                instance, powers, endpoint_nodes, new_idx, all_idx,
                epsilon, tile,
            )
            pend.append(_PendingBlock(n_old, right, bottom))
            pruned = np.concatenate(
                [np.asarray(pruned_old) + extra_pruned, pruned_new]
            )
            pruned.setflags(write=False)
            return pruned, inf_right or inf_bottom

        if instance.direction is Direction.DIRECTED:
            pruned_u, new_inf = extend_endpoint(
                self._pend_u, self._pruned_u, instance.receivers
            )
            pruned_v = pruned_u
        else:
            pruned_u, inf_u = extend_endpoint(
                self._pend_u, self._pruned_u, instance.senders
            )
            pruned_v, inf_v = extend_endpoint(
                self._pend_v, self._pruned_v, instance.receivers
            )
            new_inf = inf_u or inf_v
        self._pruned_u, self._pruned_v = pruned_u, pruned_v
        if new_inf:
            self._has_inf = True
        self._n = n_new
        self._instance, self._powers = instance, powers
        # Doubling rule: consolidate once the buffered rows match the
        # base size, so total consolidation work over any arrival
        # stream is a geometric series (O(nnz) overall, O(log n)
        # rebuilds) instead of O(nnz) per arrival.
        base_n = int(self._csr_u.shape[0])
        if self._n - base_n >= max(base_n, 1):
            self.flush_growth()

    def flush_growth(self) -> None:
        """Fold every pending arrival block into the base CSR (and
        rebuild the transposed matrices once).

        Folding in arrival order reproduces exactly the storage the
        historical rebuild-per-arrival path produced, so calling this
        after any prefix of appends is bit-identical to having
        consolidated eagerly — block-structured queries simply call it
        on demand.  Idempotent; a no-op when nothing is pending.
        """
        if not self._pend_u:
            return

        def fold(csr, pend):
            for blk in pend:
                top = _sp.hstack([csr, blk.right], format="csr")
                csr = _sp.vstack([top, blk.bottom], format="csr")
            csr.sort_indices()
            return csr

        csr_u = fold(self._csr_u, self._pend_u)
        if self._csr_v is self._csr_u:
            csr_v = csr_u
        else:
            csr_v = fold(self._csr_v, self._pend_v)
        self._csr_u, self._csr_v = csr_u, csr_v
        self._csr_ut = csr_u.T.tocsr()
        self._csr_vt = self._csr_ut if csr_v is csr_u else csr_v.T.tocsr()
        self._pend_u.clear()
        if self._pend_v is not self._pend_u:
            self._pend_v.clear()

    # -- protocol ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def directed(self) -> bool:
        return self._csr_v is self._csr_u

    @property
    def has_infinite_gains(self) -> bool:
        return self._has_inf

    @property
    def pruned_mass_u(self) -> np.ndarray:
        return self._pruned_u

    @property
    def pruned_mass_v(self) -> np.ndarray:
        return self._pruned_v

    @staticmethod
    def _expand_row(csr: "_sp.csr_matrix", i: int) -> np.ndarray:
        out = np.zeros(csr.shape[1])
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        out[csr.indices[lo:hi]] = csr.data[lo:hi]
        return out

    def _row_entries(self, base, pend, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Stored entries of row ``i`` of base + pending, without
        consolidating, as ``(cols, values)`` in ascending column order:
        the base row (or, for an arrival, its own full bottom row),
        then the right strips of every later block."""
        cols, values = [], []
        if i < base.shape[0]:
            lo, hi = base.indptr[i], base.indptr[i + 1]
            cols.append(base.indices[lo:hi])
            values.append(base.data[lo:hi])
        for blk in pend:
            if i < blk.start:
                # The arrivals' columns at a pre-existing row.
                lo, hi = blk.right.indptr[i], blk.right.indptr[i + 1]
                cols.append(blk.start + blk.right.indices[lo:hi])
                values.append(blk.right.data[lo:hi])
            elif i < blk.start + blk.k:
                # The arrival's own full row (covers all earlier cols).
                r = i - blk.start
                lo, hi = blk.bottom.indptr[r], blk.bottom.indptr[r + 1]
                cols.append(blk.bottom.indices[lo:hi])
                values.append(blk.bottom.data[lo:hi])
        if len(cols) == 1:
            return cols[0], values[0]
        if not cols:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        return np.concatenate(cols), np.concatenate(values)

    def _grown_row(self, base, pend, i: int) -> np.ndarray:
        """Row ``i`` of base + pending, without consolidating.

        Every stored entry lands at the same value consolidation would
        place (pure scatter of the identical stored floats), so the hot
        single-row path of live admission never forces a flush.
        """
        out = np.zeros(self._n)
        cols, values = self._row_entries(base, pend, i)
        out[cols] = values
        return out

    def _grown_col_entries(
        self, base_t, pend, j: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stored entries of column ``j`` of base + pending, without
        consolidating (see :meth:`_grown_row`).  The pieces cover
        disjoint row ranges and are appended in ascending row order:
        the base column (rows below the base size) or the arrival's
        right strip (rows below its block), then the bottom strips of
        its own and every later block."""
        rows, values = [], []
        if j < base_t.shape[0]:
            lo, hi = base_t.indptr[j], base_t.indptr[j + 1]
            rows.append(base_t.indices[lo:hi])
            values.append(base_t.data[lo:hi])
        for blk in pend:
            if blk.start <= j < blk.start + blk.k:
                # What arrival j induces at every pre-existing request.
                r = j - blk.start
                lo, hi = blk.right_t.indptr[r], blk.right_t.indptr[r + 1]
                rows.append(blk.right_t.indices[lo:hi])
                values.append(blk.right_t.data[lo:hi])
            if blk.start + blk.k > j:
                # These arrivals' rows cover column j.
                hit_rows, hit_values = _csr_col(blk.bottom, j)
                rows.append(blk.start + hit_rows)
                values.append(hit_values)
        if not rows:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        return np.concatenate(rows), np.concatenate(values)

    def column_entries(
        self, j: int, side: str = "u"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A slice of the transposed CSR (views of its index and data
        arrays); with pending growth blocks the pieces are read in
        place, so a grown backend answers without a flush."""
        j = int(j)
        base_t, pend = (
            (self._csr_ut, self._pend_u)
            if side == "u"
            else (self._csr_vt, self._pend_v)
        )
        if pend:
            return self._grown_col_entries(base_t, pend, j)
        lo, hi = base_t.indptr[j], base_t.indptr[j + 1]
        return base_t.indices[lo:hi], base_t.data[lo:hi]

    def row_u(self, i: int) -> np.ndarray:
        if self._pend_u:
            return self._grown_row(self._csr_u, self._pend_u, int(i))
        return self._expand_row(self._csr_u, int(i))

    def row_v(self, i: int) -> np.ndarray:
        if self._pend_v:
            return self._grown_row(self._csr_v, self._pend_v, int(i))
        return self._expand_row(self._csr_v, int(i))

    def gather_cols_u(self, members: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_ut[members].toarray().T

    def gather_cols_v(self, members: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_vt[members].toarray().T

    def block_u(self, idx: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_u[idx][:, idx].toarray()

    def block_v(self, idx: np.ndarray) -> np.ndarray:
        self.flush_growth()
        return self._csr_v[idx][:, idx].toarray()

    def _cross_block(self, which_u: bool, rows, cols) -> np.ndarray:
        base, pend = (
            (self._csr_u, self._pend_u)
            if which_u
            else (self._csr_v, self._pend_v)
        )
        rows = np.asarray(rows, dtype=int)
        if rows.size <= 64:
            # A handful of rows (admission, exact peel margins): look
            # every column up in each row's sorted stored entries, read
            # from base + pending without consolidating.  Pure gather of
            # the same stored values, so bit-identical to slicing.
            cols = np.asarray(cols, dtype=int)
            out = np.zeros((rows.size, cols.size))
            for pos, i in enumerate(rows):
                stored, values = self._row_entries(base, pend, int(i))
                if stored.size == 0:
                    continue
                at = np.minimum(np.searchsorted(stored, cols), stored.size - 1)
                hit = stored[at] == cols
                out[pos, hit] = values[at[hit]]
            return out
        # Bulk query (peel init, class analysis): consolidate once
        # instead of assembling thousands of rows.
        self.flush_growth()
        csr = self._csr_u if which_u else self._csr_v
        return csr[rows][:, cols].toarray()

    def cross_block_u(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._cross_block(True, rows, cols)

    def cross_block_v(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._cross_block(False, rows, cols)

    def _csr_row_sums(
        self, csr: "_sp.csr_matrix", rows, cols
    ) -> np.ndarray:
        """CSR-native :meth:`~GainBackend.row_sums_u` workhorse: slice
        the stored rows tile-by-tile, expand each tile to a dense
        scratch and reduce it with the same per-row pairwise sums as
        the dense backend — bit-identical values, ``O(tile * k)`` peak
        scratch, never a ``(k, k)`` block."""
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        out = np.empty(rows.size)
        tile = max(1, int(self.tile_rows))
        for lo in range(0, rows.size, tile):
            hi = min(lo + tile, rows.size)
            out[lo:hi] = csr[rows[lo:hi]][:, cols].toarray().sum(axis=1)
        return out

    def row_sums_u(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self.flush_growth()
        return self._csr_row_sums(self._csr_u, rows, cols)

    def row_sums_v(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self.flush_growth()
        return self._csr_row_sums(self._csr_v, rows, cols)

    def _class_sum(
        self, csr: "_sp.csr_matrix", colors: Optional[np.ndarray]
    ) -> np.ndarray:
        """Tiled same-color row sums: expand ``tile_rows`` rows to a
        dense scratch and reduce exactly like the dense
        :func:`~repro.core.interference._class_sum` (per-row pairwise
        sums over length-``n`` buffers, so values are bit-identical to
        running the dense code on the pruned matrix)."""
        n = self.n
        if colors is not None:
            colors = np.asarray(colors)
        out = np.empty(n)
        tile = max(1, int(self.tile_rows))
        for lo in range(0, n, tile):
            hi = min(lo + tile, n)
            dense_tile = csr[lo:hi].toarray()
            if colors is None:
                out[lo:hi] = dense_tile.sum(axis=1)
                continue
            same = colors[lo:hi, None] == colors[None, :]
            same[np.arange(hi - lo), np.arange(lo, hi)] = False
            out[lo:hi] = np.where(same, dense_tile, 0.0).sum(axis=1)
        return out

    def class_sum_u(self, colors: Optional[np.ndarray]) -> np.ndarray:
        self.flush_growth()
        return self._class_sum(self._csr_u, colors)

    def class_sum_v(self, colors: Optional[np.ndarray]) -> np.ndarray:
        self.flush_growth()
        return self._class_sum(self._csr_v, colors)

    def dense_u(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_u.toarray()

    def dense_v(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_v.toarray()

    def dense_ut(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_ut.toarray()

    def dense_vt(self) -> np.ndarray:
        self.flush_growth()
        return self._csr_vt.toarray()

    @property
    def nnz(self) -> int:
        count = int(self._csr_u.nnz) + sum(blk.nnz for blk in self._pend_u)
        if self._csr_v is not self._csr_u:
            count += int(self._csr_v.nnz) + sum(
                blk.nnz for blk in self._pend_v
            )
        return count

    @property
    def nbytes(self) -> int:
        total = 0
        seen = set()
        for csr in (self._csr_u, self._csr_v, self._csr_ut, self._csr_vt):
            if id(csr) in seen:
                continue
            seen.add(id(csr))
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        for pend in (self._pend_u, self._pend_v):
            for blk in pend:
                total += blk.nbytes
            if self._pend_v is self._pend_u:
                break
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseBackend(n={self.n}, directed={self.directed}, "
            f"epsilon={self.epsilon}, density={self.density:.4f})"
        )


def build_backend(
    instance: Instance,
    powers: np.ndarray,
    config: Optional[BackendConfig] = None,
) -> GainBackend:
    """Construct the gain backend *config* names for ``(instance,
    powers)`` (``None`` = the ambient :func:`backend_config`)."""
    if config is None:
        config = backend_config()
    if config.backend == "sparse":
        return SparseBackend.build(instance, powers, epsilon=config.epsilon)
    if config.backend == "array":
        return ArrayBackend.build(
            instance,
            powers,
            namespace=config.array_namespace,
            device=config.device,
        )
    if config.backend == "sharded":
        # Lazy import: repro.distributed consumes this module's
        # primitives (_assemble_csr and friends), so the dependency
        # must point that way at import time.
        from repro.distributed import ShardedBackend

        return ShardedBackend.build(instance, powers, config)
    return DenseBackend.build(instance, powers)
