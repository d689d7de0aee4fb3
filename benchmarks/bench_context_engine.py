"""Benchmark: shared InterferenceContext engine vs. the legacy path.

Times the two hot paths the engine targets —
``greedy_max_feasible_subset`` (the peeling primitive behind the
Theorem 15 repair/thinning passes) and ``sqrt_coloring`` itself — on
the production path (cached gain matrices, incremental peeling) and on
the legacy from-scratch path: the oracles in ``tests/oracles.py``
(``sqrt_coloring`` runs with its peel swapped for the from-scratch
oracle and pays its own gain build).  Outputs are asserted identical
between the two paths, so the comparison is apples to apples.

``sqrt_coloring`` is run with ``use_lp=False``: the LP solve is
orthogonal to the interference engine and costs the same on both
paths, so including it would only dilute the measured speedup of the
interference machinery.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_context_engine.py
    PYTHONPATH=src python benchmarks/bench_context_engine.py --sizes 64,256

The default sizes are n in {64, 256, 1024}; the artifact is labelled
``full`` when the largest size is at least 1024 and ``smoke`` below.
The script exits non-zero if the speedup at the largest measured size
falls below ``--target`` (default 3x) on either workload.

Reference results (one run, default sizes)::

    workload       n      legacy      engine   speedup
    greedy        64      19.7 ms       3.3 ms      6.0x
    sqrt          64      36.3 ms       5.2 ms      7.0x
    greedy       256     892.9 ms      65.9 ms     13.5x
    sqrt         256    3332.4 ms      74.4 ms     44.8x
    greedy      1024   91970.1 ms    3367.2 ms     27.3x
    sqrt        1024 1173776.5 ms   10216.4 ms    114.9x
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.capacity import greedy_max_feasible_subset
from repro.core.context import clear_context_cache
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.runner.artifacts import BenchReport, ShardResult, write_artifact
from repro.scheduling.sqrt_coloring import sqrt_coloring
from repro.util.tables import Table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402

#: The module, not the same-named function ``repro.scheduling`` exports.
sqrt_module = importlib.import_module("repro.scheduling.sqrt_coloring")

#: Smallest largest-size that makes a run the ``full`` headline.
FULL_SIZE = 1024


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run(sizes, target, seed=7, artifacts=None):
    run_start = time.perf_counter()
    rows = []
    worst = {}
    for n in sizes:
        instance = random_uniform_instance(n, rng=seed)
        powers = SquareRootPower()(instance)

        clear_context_cache()
        result_engine = {}
        t_greedy_engine = _time(
            lambda: result_engine.__setitem__(
                "greedy", greedy_max_feasible_subset(instance, powers)
            )
        )
        clear_context_cache()
        t_sqrt_engine = _time(
            lambda: result_engine.__setitem__(
                "sqrt", sqrt_coloring(instance, rng=3, use_lp=False)[0]
            )
        )

        result_legacy = {}
        t_greedy_legacy = _time(
            lambda: result_legacy.__setitem__(
                "greedy", oracles.greedy_max_feasible_subset(instance, powers)
            )
        )
        clear_context_cache()
        with oracles.swap_peel(sqrt_module, oracles.greedy_max_feasible_subset):
            t_sqrt_legacy = _time(
                lambda: result_legacy.__setitem__(
                    "sqrt", sqrt_coloring(instance, rng=3, use_lp=False)[0]
                )
            )

        assert np.array_equal(result_engine["greedy"], result_legacy["greedy"]), (
            f"greedy outputs diverged at n={n}"
        )
        assert np.array_equal(
            result_engine["sqrt"].colors, result_legacy["sqrt"].colors
        ), f"sqrt_coloring outputs diverged at n={n}"

        for name, legacy, engine in (
            ("greedy", t_greedy_legacy, t_greedy_engine),
            ("sqrt", t_sqrt_legacy, t_sqrt_engine),
        ):
            speedup = legacy / engine if engine > 0 else float("inf")
            rows.append((name, n, legacy, engine, speedup))
            worst[name] = speedup  # sizes ascend; keep the largest n

    print(f"{'workload':<10} {'n':>5} {'legacy':>11} {'engine':>11} {'speedup':>9}")
    for name, n, legacy, engine, speedup in rows:
        print(
            f"{name:<10} {n:>5} {legacy * 1e3:>9.1f} ms {engine * 1e3:>9.1f} ms "
            f"{speedup:>8.1f}x"
        )

    if artifacts is not None:
        table = Table(
            title="Context engine vs legacy path",
            columns=["workload", "n", "legacy_seconds", "engine_seconds", "speedup"],
        )
        table.add_note(f"required speedup at n={sizes[-1]}: {target}x")
        shards = []
        for name, n, legacy, engine, speedup in rows:
            table.add_row(
                workload=name,
                n=n,
                legacy_seconds=legacy,
                engine_seconds=engine,
                speedup=speedup,
            )
            shards.append(
                ShardResult(
                    key=f"{name}:n={n}", seed=seed, rows=1, seconds=legacy + engine
                )
            )
        report = BenchReport(
            experiment="context_engine",
            title="Shared interference engine speedup",
            mode="full" if sizes[-1] >= FULL_SIZE else "smoke",
            table=table,
            shards=shards,
            run_wall_seconds=time.perf_counter() - run_start,
            metric="speedup",
        )
        write_artifact(artifacts, report)

    failures = [name for name, speedup in worst.items() if speedup < target]
    if failures:
        print(f"FAIL: speedup below {target}x at n={sizes[-1]} for: {failures}")
        return 1
    print(f"OK: both workloads >= {target}x at n={sizes[-1]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="64,256,1024",
        help="comma-separated instance sizes (ascending)",
    )
    parser.add_argument(
        "--target",
        type=float,
        default=3.0,
        help="required speedup at the largest size",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write BENCH_context_engine.json under DIR",
    )
    args = parser.parse_args(argv)
    sizes = sorted(int(s) for s in args.sizes.split(","))
    return run(sizes, args.target, artifacts=args.artifacts)


if __name__ == "__main__":
    sys.exit(main())
