"""The three workloads and the record each run fills.

Instances are ``random_uniform_instance`` at constant density
(``side = 2 sqrt(n)``, ``max_link_fraction = min(1, 4 / side)``,
directed, alpha=3, beta=1), drawn from the run's seed.  Every schedule
a workload receives goes through :func:`sinrbench.exact.check_schedule`.

* ``solve_dense`` — closed loop, one client: per op a fresh n=2048
  instance on the dense backend through ``first_fit``,
  ``local_search(schedule=ff)`` and ``sqrt_coloring(use_lp=False)``.
* ``solve_large`` — closed loop, one client: per op a fresh n=8192
  instance through ``first_fit`` and ``sqrt_coloring(use_lp=False)`` on
  ``backend="sparse", sparse_epsilon=0.05``, then ``first_fit_sharded``
  with 2 process workers at the same epsilon.
* ``serve_churn`` — open loop at 100 arrivals/s into one n=2048 dense
  session behind ``ScheduleServer(overflow="wait")``; every decided
  arrival departs the oldest request, arrivals come from spare local
  links of the same metric and departed links return to that pool.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.api import Problem
from repro.core.context import cache_info, clear_context_cache
from repro.core.instance import Instance
from repro.instances.random_instances import random_uniform_instance
from repro.serve import ScheduleServer, ServeConfig
from sinrbench.exact import check_schedule
from sinrbench.reference import sample
from sinrbench.trace import OP, Tracer

SOLVE_DENSE_N = 2048
SOLVE_LARGE_N = 8192
SERVE_N = 2048
SPARSE_EPSILON = 0.05
SHARD_WORKERS = 2
#: Offered load of serve_churn.  One arrival costs 3-4.5 ms at 2048-5048
#: storage slots on a 2-vCPU VM, so 200/s would run the server at 65-90 %
#: utilisation and the VM's slow stretches push it past saturation: p50
#: then swings between 3 and 15 ms from run to run.  At 100/s utilisation
#: stays near 40 % and p50 follows the service time.
ARRIVALS_PER_S = 100.0
#: Spare links generated with the serve instance (the arrival pool).
SPARE_LINKS = 512
#: Dense storage doubles at 4096 and 8192 slots; 2048 initial slots plus
#: this many arrivals stays below the second doubling (2 x 2 GB buffers).
MAX_ARRIVALS = 6000
#: A solve run measures at least this many ops (one n=8192 op outlasts
#: a whole run length), so its median is not a single sample.
MIN_SOLVE_OPS = 2
#: Live schedules a serve run snapshots (evenly over its arrivals) and
#: exact-checks after the open loop ends.
CHECKPOINTS = 10
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
#: Seconds an open-loop arrival may stay undecided after the last one
#: was due before it counts as failed.
DRAIN_TIMEOUT_S = 60.0

WHY = {
    "solve_dense": (
        "n=2048 dense: first_fit is build-bound (distance matrix + gain "
        "build); local_search moves and the sqrt_coloring peel run on the "
        "warm cached context; no pruning, shards or queue."
    ),
    "solve_large": (
        "n=8192, where dense does not fit in 7 GB: the eps=0.05 prune "
        "build, sparse admission with flip-risk and shard spawn/IPC/merge; "
        "shows whether eps>0 outputs are exactly feasible."
    ),
    "serve_churn": (
        "n=2048 live session at 100 arrivals/s with equal departures: "
        "gain append + kernel admission + queueing only, and the storage "
        "that tombstoned departures leave behind."
    ),
}


@dataclass
class RunRecord:
    """Everything a workload run measured; :mod:`sinrbench.run` turns
    it into metrics."""

    workload: str
    n: int
    #: Report latency and throughput at reference speed too (see
    #: sinrbench.reference): only for ops the reference kernel mirrors.
    calibrated: bool = False
    setup_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (colors, feasible, min margin, n) per checked schedule.
    checks: List[tuple] = field(default_factory=list)
    #: Notes on failed ops.
    problems: List[str] = field(default_factory=list)
    #: Wrong answers the library did not disclose (the run is incorrect).
    incorrect: List[str] = field(default_factory=list)
    validate_s: float = 0.0
    flip_risk_events: int = 0
    peel_risk_events: int = 0
    peel_fallbacks: int = 0
    rss_after_setup_mb: float = 0.0
    rss_end_mb: float = 0.0
    context_hits: int = 0
    context_misses: int = 0
    slots: int = 0
    late_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    queue_depth_max: int = 0
    rejected: int = 0
    #: Reference-kernel timings taken through the run (machine speed).
    reference_s: List[float] = field(default_factory=list)
    #: Untraced wall of the measured phase (traced runs subtract the
    #: tracer's own bookkeeping from it).
    wall_s: float = 0.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for
    (the shard workers, once joined)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make_instance(n: int, seed: int, index: int, spare: int = 0):
    """Instance *index* of a run with *seed*, plus *spare* extra links
    on the same metric (returned as ``(sender, receiver)`` pairs)."""
    side = 2.0 * float(np.sqrt(n))
    full = random_uniform_instance(
        n + spare,
        side=side,
        max_link_fraction=min(1.0, 4.0 / side),
        alpha=3.0,
        beta=1.0,
        direction="directed",
        rng=np.random.default_rng([seed, index]),
    )
    if spare == 0:
        return full, []
    live = Instance(
        full.metric,
        full.senders[:n],
        full.receivers[:n],
        direction=full.direction,
        alpha=full.alpha,
        beta=full.beta,
        noise=full.noise,
    )
    pool = [(int(s), int(r)) for s, r in zip(full.senders[n:], full.receivers[n:])]
    return live, pool


def _check(rec: RunRecord, result, exact_path: bool, dense_cross_check: bool) -> bool:
    """Exact-check one :class:`~repro.api.ScheduleResult`; returns the
    verdict.  An infeasible schedule from a lossless path, or a
    disagreement with ``Schedule.validate`` on a dense context, marks
    the run incorrect; an infeasible schedule whose provenance says
    ``certified`` is noted."""
    start = time.perf_counter()
    verdict = check_schedule(result.instance, result.colors, result.powers)
    if dense_cross_check:
        library = result.schedule.is_feasible(result.instance)
        if library != verdict.feasible:
            rec.incorrect.append(
                f"{result.provenance.algorithm}: exact check says "
                f"{verdict.feasible}, Schedule.validate says {library}"
            )
    rec.validate_s += time.perf_counter() - start
    rec.checks.append(
        (verdict.num_colors, verdict.feasible, verdict.min_margin, result.instance.n)
    )
    if not verdict.feasible:
        note = (
            f"{result.provenance.algorithm}: infeasible schedule (min margin "
            f"{verdict.min_margin:.4g}, certified={result.provenance.certified})"
        )
        (rec.incorrect if exact_path else rec.problems).append(note)
    return verdict.feasible


def _note_provenance(rec: RunRecord, results) -> None:
    for result in results:
        prov = result.provenance
        rec.flip_risk_events += int(prov.flip_risk_events)
        rec.peel_risk_events += int(prov.peel_risk_events)
        rec.peel_fallbacks += len(prov.peel_fallbacks)


def _release() -> None:
    """Drop every cached context (and with it any shard fleet) so one
    op's O(n^2) state never overlaps the next op's."""
    clear_context_cache()
    gc.collect()


def _setup_instances(rec: RunRecord, n: int, seed: int, import_s: float):
    """Set-up of the solve workloads: generating the first instance,
    repeated; setup_s is *import_s* plus the median."""
    sample(rec.reference_s)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instance, _ = make_instance(n, seed, 0)
        times.append(time.perf_counter() - start)
    rec.setup_s = import_s + float(np.median(times))
    return instance


def _solve_loop(rec, seed, seconds, tracer, first, run_op, check_op) -> None:
    """Closed loop with one client: ``run_op(instance, index)`` on a
    fresh instance per op (timed), then ``check_op(results, index)``
    (untimed, returns whether the op succeeded), until *seconds* have
    passed since the first op started and at least ``MIN_SOLVE_OPS``
    ops ran."""
    rec.rss_after_setup_mb = current_rss_mb()
    instance = first
    index = 0
    measure_start = time.perf_counter()
    book0 = tracer.bookkeeping_s if tracer else 0.0
    while True:
        before = cache_info()
        rec.attempted += 1
        span = tracer.begin(OP) if tracer else None
        start = time.perf_counter()
        try:
            results = run_op(instance, index)
        except Exception as exc:  # an op that raises is a failed op
            results = None
            rec.failed += 1
            rec.incorrect.append(f"op {index} raised {type(exc).__name__}: {exc}")
        else:
            rec.latencies_s.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.end(span)
        after = cache_info()
        rec.context_hits += after["hits"] - before["hits"]
        rec.context_misses += after["misses"] - before["misses"]
        if results is not None:
            _note_provenance(rec, results)
            if not check_op(results, index):
                rec.failed += 1
        results = None
        _release()
        sample(rec.reference_s)
        if time.perf_counter() - measure_start >= seconds and index + 1 >= MIN_SOLVE_OPS:
            break
        index += 1
        instance, _ = make_instance(rec.n, seed, index)
    rec.wall_s = time.perf_counter() - measure_start
    if tracer:
        rec.wall_s -= tracer.bookkeeping_s - book0
    rec.busy_s = float(sum(rec.latencies_s))
    rec.rss_end_mb = current_rss_mb()
    rec.slots = rec.n


def solve_dense(seed: int, seconds: float, import_s: float, tracer: Optional[Tracer]):
    # Its op is the reference kernel's mix at scale: an (n, n, 2) distance
    # broadcast plus interpreter-bound local search and peel.
    rec = RunRecord("solve_dense", SOLVE_DENSE_N, calibrated=True)
    first = _setup_instances(rec, rec.n, seed, import_s)

    def run_op(instance, index):
        session = Problem(instance, backend="dense").session()
        ff = session.schedule("first_fit")
        ls = session.schedule("local_search", schedule=ff)
        sc = session.schedule("sqrt_coloring", rng=seed * 1000 + index, use_lp=False)
        return ff, ls, sc

    def check_op(results, index):
        return all([_check(rec, r, True, True) for r in results])

    _solve_loop(rec, seed, seconds, tracer, first, run_op, check_op)
    return rec


def solve_large(seed: int, seconds: float, import_s: float, tracer: Optional[Tracer]):
    rec = RunRecord("solve_large", SOLVE_LARGE_N)
    first = _setup_instances(rec, rec.n, seed, import_s)

    def run_op(instance, index):
        session = Problem(
            instance, backend="sparse", sparse_epsilon=SPARSE_EPSILON
        ).session()
        ff = session.schedule("first_fit")
        sc = session.schedule("sqrt_coloring", rng=seed * 1000 + index, use_lp=False)
        sh = session.schedule(
            "first_fit_sharded", workers=SHARD_WORKERS, executor="process"
        )
        return ff, sc, sh

    def check_op(results, index):
        ff, _, sh = results
        feasible = all([_check(rec, r, False, False) for r in results])
        same = np.array_equal(sh.colors, ff.colors)
        if not same:
            rec.problems.append(f"op {index}: first_fit_sharded differs from sparse first_fit")
        return feasible and same

    _solve_loop(rec, seed, seconds, tracer, first, run_op, check_op)
    return rec


def serve_churn(seed: int, seconds: float, import_s: float, tracer: Optional[Tracer]):
    rec = RunRecord("serve_churn", SERVE_N)
    return asyncio.run(_serve(rec, seed, seconds, import_s, tracer))


async def _serve_setup(seed: int):
    instance, pool = make_instance(SERVE_N, seed, 0, spare=SPARE_LINKS)
    server = ScheduleServer()
    session = server.add_session(
        "churn",
        Problem(instance, backend="dense"),
        ServeConfig(overflow="wait"),
    )
    session.ensure_live()
    return server, session, pool


async def _serve(rec, seed, seconds, import_s, tracer):
    before = cache_info()
    sample(rec.reference_s)
    times = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        server, session, pool = await _serve_setup(seed)
        times.append(time.perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            await server.aclose()
            del server, session, pool
            _release()
    rec.setup_s = import_s + float(np.median(times))
    rec.rss_after_setup_mb = current_rss_mb()
    try:
        snapshots = [session.live_result()]
        await _churn(rec, server, session, pool, seed, seconds, tracer, snapshots)
        snapshots.append(session.live_result())
        sample(rec.reference_s)
        for live in snapshots:
            # The live session runs on dense storage: an infeasible live
            # schedule marks the run incorrect.
            _check(rec, live, True, False)
        rec.flip_risk_events = int(session.live_kernel.flip_risk_events)
        rec.slots = session.instance.n
        rec.rss_end_mb = current_rss_mb()
        after = cache_info()
        rec.context_hits = after["hits"] - before["hits"]
        rec.context_misses = after["misses"] - before["misses"]
    finally:
        await server.aclose()
    return rec


async def _churn(rec, server, session, pool, seed, seconds, tracer, snapshots):
    rng = np.random.default_rng([seed, 1])
    total = min(int(ARRIVALS_PER_S * seconds), MAX_ARRIVALS)
    every = max(1, total // CHECKPOINTS)
    oldest = deque(session.handles)
    latency = [None] * total
    decided_at = [0.0] * total
    book0 = tracer.bookkeeping_s if tracer else 0.0

    async def arrival(k: int, due: float, pair) -> None:
        rec.queue_depth_max = max(rec.queue_depth_max, server.pending("churn"))
        submitted = time.perf_counter()
        rec.late_s.append(submitted - due)
        try:
            decision = await server.submit("churn", pair)
        except Exception as exc:  # surfaced admission failure
            rec.failed += 1
            rec.incorrect.append(f"arrival {k} raised {type(exc).__name__}: {exc}")
            pool.append(pair)
            return
        if not decision.accepted:
            rec.failed += 1
            rec.rejected += 1
            pool.append(pair)
            return
        latency[k] = submitted - due + decision.latency_s
        decided_at[k] = submitted + decision.latency_s
        if tracer is not None:
            service = tracer.add_seconds.get(decision.handle.uid, 0.0)
            rec.queue_wait_s.append(decision.latency_s - service)
        departing = oldest.popleft()
        server.remove("churn", departing)
        pool.append((departing.sender, departing.receiver))
        oldest.append(decision.handle)

    tasks = []
    start = time.perf_counter()
    for k in range(total):
        due = start + k / ARRIVALS_PER_S
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if k and k % every == 0:
            snapshots.append(session.live_result())
        rec.attempted += 1
        if not pool:  # more than SPARE_LINKS arrivals undecided
            rec.failed += 1
            rec.problems.append(f"arrival {k}: no spare link left (backlog)")
            continue
        pair = pool.pop(int(rng.integers(len(pool))))
        tasks.append(asyncio.ensure_future(arrival(k, due, pair)))
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S) if tasks else ((), ())
    for task in pending:
        task.cancel()
        rec.failed += 1
    if pending:
        rec.problems.append(f"{len(pending)} arrivals undecided after the drain timeout")
        await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    rec.latencies_s = [lat for lat in latency if lat is not None]
    last = max(decided_at) if rec.latencies_s else start
    rec.wall_s = last - start
    if tracer:
        rec.wall_s -= tracer.bookkeeping_s - book0
    rec.busy_s = rec.wall_s


WORKLOADS = {
    "solve_dense": solve_dense,
    "solve_large": solve_large,
    "serve_churn": serve_churn,
}
