"""Benchmark: vectorized scheduler kernels vs. the accumulator paths.

Times every kernel-backed scheduler — first-fit, peeling, local search
and ``sqrt_coloring`` — on the kernel path (:mod:`repro.core.kernels`)
and on the accumulator / subset-rebuild reference from
``tests/oracles.py``: first-fit scanning one public
:class:`~repro.core.context.ClassAccumulator` per class, local search
re-checking each trial subset with ``context.is_feasible_subset``, and
peeling / ``sqrt_coloring`` with their peel swapped for the
per-round-rebuild ``context.greedy_max_feasible_subset``.  Outputs are
asserted identical between the two paths, so the comparison is apples
to apples.  A batched row compares :meth:`ContextBatch.first_fit_schedules`
(lockstep over stacked gains) against the per-pair kernel loop, and a
second, gated batched row compares
:meth:`ContextBatch.local_search_schedules` (the
``stacked_local_search`` kernel, lockstep over (B,n,n) stacked gains)
against the per-instance looped ``improve_schedule`` reference path at
B=32, n=1024 — the PR-9 acceptance gate (>= ``--target``).  Both sides
of that row report best-of-2 wall time (see ``_time_min``) so the gate
measures steady-state throughput rather than first-touch page faults
on the (B, n, n) working set.

Shared engine state (cached gain matrices, signals) is warmed before
timing — both paths read the same cache, and this benchmark measures
the scheduler layer, not the PR-1 matrix build.  The kernel-only
transposed-gains cache is **not** pre-warmed; the kernel timings pay
for it.

``sqrt_coloring`` is run with ``use_lp=False``: the LP solve is
orthogonal to the interference machinery and costs the same on both
paths.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_scheduler_kernels.py
    PYTHONPATH=src python benchmarks/bench_scheduler_kernels.py --sizes 64,256

The script exits non-zero when the first-fit speedup at the largest
``--sizes`` entry falls below ``--target`` (default 5x) — the PR-3
acceptance gate — or when the stacked local-search speedup over the
looped reference does (the PR-9 gate; ``--ls-batch-pairs 0`` disables
that row).  ``--aux-sizes`` bounds the other (ungated, slower)
workloads.  Two more ungated rows, ``first_fit_sparse`` and
``sqrt_sparse``, time the stored-column-entry kernels on the ε=0.05
sparse backend at n=8192 (the sinrbench ``solve_large`` size and
geometry; gain build excluded).  The artifact is labelled ``full``
when the run covers the default sizes (first-fit n >= 1024, aux
n >= 256, B >= 32 stacked local-search pairs) and ``smoke``
otherwise.

Reference results (one run, default sizes, 2-vCPU / 7 GB Linux VM;
the committed ``benchmarks/artifacts/BENCH_sched_kernels.json``; the
VM ran both sides about 1.9x slower than for the previous artifact,
e.g. the first-fit reference at n=1024 took 1382 ms against 728 ms)::

    workload               n    reference      kernel   speedup
    first_fit             64        7.7 ms      4.8 ms      1.6x
    first_fit            256       82.0 ms     20.4 ms      4.0x
    first_fit           1024     1382.3 ms    162.7 ms      8.5x
    peeling               64        9.4 ms      7.6 ms      1.2x
    peeling              256      199.0 ms     71.6 ms      2.8x
    local_search          64        4.8 ms      2.8 ms      1.7x
    local_search         256       86.9 ms     15.7 ms      5.5x
    sqrt                  64        6.7 ms      7.3 ms      0.9x
    sqrt                 256       96.9 ms     58.5 ms      1.7x
    first_fit_batch4     256       53.6 ms     32.1 ms      1.7x
    local_search_batch32  1024  50535.6 ms   3116.7 ms     16.2x
    first_fit_sparse    8192     1581.4 ms    649.6 ms      2.4x
    sqrt_sparse         8192            -    1318.1 ms         -
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.batch import ContextBatch
from repro.core.context import clear_context_cache, get_context
from repro.core.gains import BackendConfig, use_backend
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.runner.artifacts import BenchReport, ShardResult, write_artifact
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring
from repro.util.tables import Table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402

#: The modules whose by-name peel import the references swap
#: (``repro.scheduling`` re-exports a same-named sqrt_coloring function).
peeling_module = importlib.import_module("repro.scheduling.peeling")
sqrt_module = importlib.import_module("repro.scheduling.sqrt_coloring")

GATED_WORKLOAD = "first_fit"

#: Size and pruning tolerance of the ungated sparse rows (sinrbench's
#: solve_large).
SPARSE_N = 8192
SPARSE_EPSILON = 0.05


def _warm(instance, powers):
    context = get_context(instance, powers)
    context.gains_u
    context.gains_v
    context.signals
    return context


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _time_min(fn, repeats=2):
    """Best-of-``repeats`` wall time (both paths are pure functions).

    Used for the batched local-search row, whose working set (a
    (B, n, n) stacked gain tensor plus lockstep state) is large enough
    that the first run is dominated by first-touch page faults rather
    than compute on freshly booted VMs.  The repeat reuses the freed
    pages, so the minimum reports steady-state throughput; both sides
    of the comparison are measured the same way.
    """
    best, result = _time(fn)
    for _ in range(repeats - 1):
        elapsed, result = _time(fn)
        best = min(best, elapsed)
    return best, result


def _colors(result):
    return result[0].colors if isinstance(result, tuple) else result.colors


def _reference_local_search(instance, schedule):
    """The subset-rebuild local search, validated before and after like
    ``improve_schedule``."""
    context = get_context(instance, schedule.powers)
    schedule.validate(instance)
    improved = oracles.improve_schedule(
        instance, schedule, feasible=context.is_feasible_subset
    )
    improved.validate(instance)
    return improved


def _workloads():
    """Per workload: ``(kernel, reference)`` runners taking
    ``(instance, powers)``.  Local search's runners return the timed
    thunk: its base schedule is path-independent (first-fit is
    bit-identical across paths), so it is computed outside the timer."""

    def local_search(improve):
        def prepare(instance, powers):
            base = first_fit_schedule(instance, powers)
            return lambda: improve(instance, base)

        return prepare

    def swapped(module, run):
        def reference(instance, powers):
            with oracles.swap_peel(module, oracles.context_peel):
                return run(instance, powers)

        return reference

    def peeling(instance, powers):
        return peeling_schedule(instance, powers)

    def sqrt(instance, powers):
        return sqrt_coloring(instance, rng=3, use_lp=False)

    return {
        "first_fit": (first_fit_schedule, oracles.first_fit_accumulator),
        "peeling": (peeling, swapped(peeling_module, peeling)),
        "local_search": (
            local_search(improve_schedule),
            local_search(_reference_local_search),
        ),
        "sqrt": (sqrt, swapped(sqrt_module, sqrt)),
    }


def _sparse_rows(n, seed):
    """``first_fit_sparse`` and ``sqrt_sparse`` rows at size *n*."""
    instance = random_uniform_instance(
        n,
        side=2.0 * float(np.sqrt(n)),
        max_link_fraction=min(1.0, 2.0 / float(np.sqrt(n))),
        direction="directed",
        rng=seed,
    )
    powers = SquareRootPower()(instance)
    clear_context_cache()
    config = BackendConfig("sparse", epsilon=SPARSE_EPSILON)
    with use_backend(config):
        # Build the gains outside the timers (first-fit's fixed powers
        # and sqrt_coloring's square-root powers are the same vector,
        # so both runs share this context).
        get_context(instance, powers).backend
        t_kernel, kernel = _time(lambda: first_fit_schedule(instance, powers))
        t_reference, reference = _time(
            lambda: oracles.first_fit_accumulator(instance, powers)
        )
        assert np.array_equal(kernel.colors, reference.colors), (
            f"first_fit_sparse outputs diverged at n={n}"
        )
        t_sqrt, _ = _time(
            lambda: sqrt_coloring(instance, rng=3, use_lp=False)
        )
    clear_context_cache()
    return [
        ("first_fit_sparse", n, t_reference, t_kernel, t_reference / t_kernel),
        ("sqrt_sparse", n, None, t_sqrt, None),
    ]


def run(
    sizes, aux_sizes, target, batch_pairs=4, ls_batch_pairs=32, seed=7,
    artifacts=None,
):
    run_start = time.perf_counter()
    workloads = _workloads()
    rows = []
    gated_speedup = None

    # Batched local search (gated): stacked lockstep kernel vs the
    # per-instance looped subset-rebuild reference — the same
    # reference every per-instance row in this benchmark is measured
    # against, here paid once per instance in a loop.  This block runs
    # first (its row is still printed last): it is the largest resident
    # set in the benchmark (B stacked (n, n) matrices plus B warmed
    # contexts), and timing it before the other workloads churn the
    # heap keeps both timers on fresh, fragmentation-free memory.
    ls_row = None
    ls_speedup = None
    if ls_batch_pairs > 1 and sizes:
        n = sizes[-1]
        pairs = []
        for index in range(ls_batch_pairs):
            instance = random_uniform_instance(n, rng=seed + 200 + index)
            pairs.append((instance, SquareRootPower()(instance)))
        clear_context_cache()
        for instance, powers in pairs:
            _warm(instance, powers)
        # The seed schedules are path-independent (batched first-fit is
        # bit-identical to the per-pair loop); compute them outside both
        # timers via a throwaway batch so no per-context transpose
        # caches linger.  The stacked timer pays for its own stack
        # assembly.
        seed_batch = ContextBatch(pairs)
        seeds = seed_batch.first_fit_schedules()
        del seed_batch
        batch = ContextBatch(pairs)
        t_batch, improved = _time_min(
            lambda: batch.local_search_schedules(seeds)
        )
        t_loop, references = _time_min(
            lambda: [
                _reference_local_search(inst, s)
                for (inst, _), s in zip(pairs, seeds)
            ]
        )
        for schedule, reference in zip(improved, references):
            assert np.array_equal(schedule.colors, reference.colors), (
                "batched local search diverged from per-instance schedules"
            )
        ls_speedup = t_loop / t_batch if t_batch > 0 else float("inf")
        ls_row = (
            f"local_search_batch{ls_batch_pairs}", n, t_loop, t_batch,
            ls_speedup,
        )
        del batch, pairs, seeds, improved, references
        clear_context_cache()

    for name, (kernel_run, reference_run) in workloads.items():
        my_sizes = sizes if name == GATED_WORKLOAD else aux_sizes
        for n in my_sizes:
            instance = random_uniform_instance(n, rng=seed)
            powers = SquareRootPower()(instance)
            clear_context_cache()
            _warm(instance, powers)
            if name == "local_search":
                t_kernel, rk = _time(kernel_run(instance, powers))
                t_reference, rr = _time(reference_run(instance, powers))
            else:
                t_kernel, rk = _time(lambda: kernel_run(instance, powers))
                t_reference, rr = _time(lambda: reference_run(instance, powers))
            assert np.array_equal(_colors(rk), _colors(rr)), (
                f"{name} outputs diverged at n={n}"
            )
            speedup = t_reference / t_kernel if t_kernel > 0 else float("inf")
            rows.append((name, n, t_reference, t_kernel, speedup))
            if name == GATED_WORKLOAD:
                gated_speedup = speedup  # sizes ascend; keeps the largest n

    # Batched first-fit: stacked lockstep kernel vs per-pair kernel loop.
    if batch_pairs > 1 and aux_sizes:
        n = aux_sizes[-1]
        pairs = []
        for index in range(batch_pairs):
            instance = random_uniform_instance(n, rng=seed + 100 + index)
            pairs.append((instance, SquareRootPower()(instance)))
        clear_context_cache()
        for instance, powers in pairs:
            _warm(instance, powers)
        batch = ContextBatch(pairs)
        t_batch, schedules = _time(batch.first_fit_schedules)
        t_loop, references = _time(
            lambda: [first_fit_schedule(inst, p) for inst, p in pairs]
        )
        for schedule, reference in zip(schedules, references):
            assert np.array_equal(schedule.colors, reference.colors), (
                "batched first-fit diverged from per-pair schedules"
            )
        speedup = t_loop / t_batch if t_batch > 0 else float("inf")
        rows.append((f"first_fit_batch{batch_pairs}", n, t_loop, t_batch, speedup))

    if ls_row is not None:
        rows.append(ls_row)

    # Sparse rows (ungated): the stored-entry kernels on an ε-pruned
    # backend at the sinrbench solve_large scale, build excluded.
    rows.extend(_sparse_rows(SPARSE_N, seed))

    print(f"{'workload':<18} {'n':>5} {'reference':>12} {'kernel':>11} {'speedup':>9}")
    for name, n, reference, kernel, speedup in rows:
        ref = "-" if reference is None else f"{reference * 1e3:.1f} ms"
        gain = "-" if speedup is None else f"{speedup:.1f}x"
        print(
            f"{name:<18} {n:>5} {ref:>13} {kernel * 1e3:>8.1f} ms {gain:>9}"
        )

    if artifacts is not None:
        table = Table(
            title="Scheduler kernels vs accumulator paths",
            columns=[
                "workload",
                "n",
                "reference_seconds",
                "kernel_seconds",
                "speedup",
            ],
        )
        table.add_note(
            f"gates: {GATED_WORKLOAD} >= {target}x at n={sizes[-1]}; "
            f"local_search_batch{ls_batch_pairs} (stacked lockstep vs "
            f"per-instance loop, best-of-2 per side) >= {target}x at "
            f"n={sizes[-1]}; "
            "reference = accumulator/subset-rebuild/per-round-rebuild-peel "
            "paths from tests/oracles.py; outputs asserted bit-identical"
        )
        table.add_note(
            f"ungated: first_fit_sparse and sqrt_sparse run the kernels "
            f"on the sparse backend (epsilon={SPARSE_EPSILON}, "
            f"n={SPARSE_N}, gain build excluded); first_fit_sparse's "
            "reference is the ClassAccumulator scan on the same "
            "backend, sqrt_sparse has none (the per-round-rebuild "
            "peel does not finish at this size)"
        )
        shards = []
        for name, n, reference, kernel, speedup in rows:
            table.add_row(
                workload=name,
                n=n,
                reference_seconds=reference,
                kernel_seconds=kernel,
                speedup=speedup,
            )
            shards.append(
                ShardResult(
                    key=f"{name}:n={n}",
                    seed=seed,
                    rows=1,
                    seconds=(reference or 0.0) + kernel,
                )
            )
        report = BenchReport(
            experiment="sched_kernels",
            title="Vectorized scheduler kernel speedup",
            mode=(
                "full"
                if sizes[-1] >= 1024
                and aux_sizes
                and aux_sizes[-1] >= 256
                and ls_batch_pairs >= 32
                else "smoke"
            ),
            table=table,
            shards=shards,
            run_wall_seconds=time.perf_counter() - run_start,
            metric="speedup",
        )
        write_artifact(artifacts, report)

    if gated_speedup is None:
        print("FAIL: gated workload was not measured")
        return 1
    status = 0
    if gated_speedup < target:
        print(
            f"FAIL: {GATED_WORKLOAD} speedup {gated_speedup:.1f}x below "
            f"{target}x at n={sizes[-1]}"
        )
        status = 1
    else:
        print(f"OK: {GATED_WORKLOAD} >= {target}x at n={sizes[-1]}")
    if ls_speedup is not None:
        if ls_speedup < target:
            print(
                f"FAIL: stacked local search speedup {ls_speedup:.1f}x "
                f"below {target}x at B={ls_batch_pairs}, n={sizes[-1]}"
            )
            status = 1
        else:
            print(
                f"OK: stacked local search >= {target}x at "
                f"B={ls_batch_pairs}, n={sizes[-1]}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="64,256,1024",
        help="comma-separated sizes for the gated first-fit workload (ascending)",
    )
    parser.add_argument(
        "--aux-sizes",
        default="64,256",
        help="comma-separated sizes for the ungated workloads (ascending)",
    )
    parser.add_argument(
        "--target",
        type=float,
        default=5.0,
        help="required first-fit speedup at the largest --sizes entry",
    )
    parser.add_argument(
        "--batch-pairs",
        type=int,
        default=4,
        help="pairs in the batched first-fit row (0/1 disables it)",
    )
    parser.add_argument(
        "--ls-batch-pairs",
        type=int,
        default=32,
        help=(
            "pairs in the gated stacked local-search row "
            "(0/1 disables the row and its gate)"
        ),
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write BENCH_sched_kernels.json under DIR",
    )
    args = parser.parse_args(argv)
    sizes = sorted(int(s) for s in args.sizes.split(","))
    aux_sizes = sorted(int(s) for s in args.aux_sizes.split(",") if s)
    return run(
        sizes,
        aux_sizes,
        args.target,
        batch_pairs=args.batch_pairs,
        ls_batch_pairs=args.ls_batch_pairs,
        artifacts=args.artifacts,
    )


if __name__ == "__main__":
    sys.exit(main())
