"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout of this repository::

    python3 sinrbench/run.py --workload solve_dense --seed 1 --seconds 15 --trace 0

Workloads: ``solve_dense``, ``solve_large``, ``serve_churn`` (see
:mod:`sinrbench.workloads`).  The program under test is the ``repro``
package in the checkout's ``src/``; without it the script exits with
code 2 and prints no result.

With ``--trace 0`` the end-to-end metrics are measured, with tracing
off.  Raw wall times of the same code drift by 30-50 % over minutes on a
small shared VM, so some are reported at reference speed: scaled by how
fast a fixed kernel ran during the run (:mod:`sinrbench.reference`).
That kernel mirrors set-up (imports, instance generation, the dense
build) on every workload and the whole ``solve_dense`` op, so
``setup_s`` everywhere and ``solve_dense``'s latency and throughput are
scaled (its 10-seed spread fell from 0.12-0.28 raw to 0.05-0.10).  Serve
arrivals and the sparse/sharded ops track the kernel only loosely
(correlation about 0.5) and scaling widened their spread, so they report
wall times.  Raw values are always printed as ``raw.*`` lines.

With ``--trace 1`` the same workload runs with the layer wrappers of
:mod:`sinrbench.trace` installed and the per-layer metrics are reported.

Human-readable lines (every metric with its unit, the tail
percentile and its sample count, and the run's provenance) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Failed ops: an op that raises, an arrival that is rejected or never
decided, a schedule that fails the exact check, and in ``solve_large`` a
``first_fit_sharded`` coloring that differs from sparse ``first_fit``.
``correct`` is false when an exact path is wrong: an infeasible
schedule from the dense backend, an exact verdict that disagrees with
``Schedule.validate`` on a dense context, or an op that raised.
Infeasible schedules from the epsilon-pruned paths (which the result's
provenance discloses through ``sparse_epsilon``) are failed ops, listed
as ``# problem:`` lines, not incorrect runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The two committed first-fit timings of the same n=2048 dense
#: workload (``conformance/dense``), which disagree by 10x.
COMMITTED_FIRST_FIT_S = {
    "benchmarks/artifacts/BENCH_backends.json": 10.240985850000015,
    "benchmarks/artifacts/BENCH_distributed.json": 1.064703312000347,
}


def _import_program() -> None:
    """Import ``repro`` from the checkout's ``src/`` (and nowhere else)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"sinrbench: cannot import the program from {src}: {exc}\n")
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"sinrbench: repro resolved outside {src}: {repro.__file__}\n")
        sys.exit(2)


#: What a fresh process imports before its first op.
IMPORTS = "import numpy, scipy, repro.api, repro.serve, repro.instances.random_instances"


def import_seconds(repeats: int) -> float:
    """Median wall time of *repeats* fresh interpreters that start and
    import the program (set-up time a one-shot import would measure only
    once)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stop_children() -> None:
    """Stop and wait for every process the run started, so none outlives
    it: shard workers a failed op left behind, then the resource tracker
    that the ``spawn`` start method launches with the first shard fleet
    (it would otherwise exit only after this process, as an orphan)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.core.context import clear_context_cache

    clear_context_cache()
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def tail(values):
    """``(value, percentile, samples beyond it)`` for the highest
    percentile with at least ten samples beyond it; below 20 samples no
    percentile at or above the median has ten beyond, so the maximum is
    reported (percentile 100, 0 beyond)."""
    import numpy as np

    n = len(values)
    if n < 20:
        return float(np.max(values)), 100.0, 0
    pct = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    beyond = int(sum(1 for v in values if v > np.percentile(values, pct)))
    return float(np.percentile(values, pct)), pct, beyond


def end_to_end(rec):
    """The end-to-end metrics of one run: ``{name: (value, unit, note)}``.

    ``setup_s`` is at reference speed on every workload, and so are the
    latency and throughput of a calibrated workload (see
    :mod:`sinrbench.reference`); the raw wall values are listed beside
    them under ``raw.``."""
    import numpy as np

    from sinrbench.reference import speed_factor
    from sinrbench.workloads import SETUP_REPEATS, peak_rss_mb

    measured_factor = speed_factor(rec.reference_s)
    factor = measured_factor if rec.calibrated else 1.0
    lat_ms = [s * 1e3 for s in rec.latencies_s]
    n_ops = len(lat_ms)
    out = {
        "setup_s": (
            rec.setup_s * measured_factor,
            "s",
            f"median of {SETUP_REPEATS} fresh imports + median of {SETUP_REPEATS} set-ups",
        ),
        "speed_factor": (
            measured_factor,
            "ratio",
            f"reference time / median of {len(rec.reference_s)} kernel runs"
            + ("" if rec.calibrated else "; applied to setup_s only"),
        ),
        "raw.setup_s": (rec.setup_s, "s", "wall"),
    }
    if n_ops == 0:
        return out
    tail_ms, pct, beyond = tail(lat_ms)
    tenth = max(1, n_ops // 10)
    p50 = float(np.median(lat_ms))
    out.update(
        {
            "latency_p50_ms": (p50 * factor, "ms", f"{n_ops} samples"),
            "raw.latency_p50_ms": (p50, "ms", "wall"),
            "latency_tail_ms": (
                tail_ms * factor,
                "ms",
                f"p{pct:g} of {n_ops} samples, {beyond} beyond; raw {tail_ms:.6g} ms",
            ),
            "throughput_per_s": (n_ops / rec.busy_s / factor, "1/s", "completed ops / busy seconds"),
            "raw.throughput_per_s": (n_ops / rec.busy_s, "1/s", "wall"),
            "failed_frac": (rec.failed / max(1, rec.attempted), "ratio", f"{rec.failed}/{rec.attempted}"),
            "schedule_len": (
                float(np.mean([c if ok else n for c, ok, _, n in rec.checks])),
                "colors",
                f"mean of {len(rec.checks)} schedules, infeasible counted as n",
            ),
            "min_margin": (min(m for _, _, m, _ in rec.checks), "ratio", "exact, all schedules"),
            "peak_rss_mb": (peak_rss_mb(), "MB", "parent or any joined shard worker"),
            "latency_drift": (
                float(np.median(lat_ms[-tenth:]) / np.median(lat_ms[:tenth])),
                "ratio",
                f"p50 of last {tenth} / first {tenth} ops",
            ),
            "rss_growth_mb": (rec.rss_end_mb - rec.rss_after_setup_mb, "MB", "end - after setup"),
        }
    )
    return out


def per_layer(rec, tracer, untraced_wall_s):
    """The per-layer metrics of a traced run: ``{name: (value, unit, note)}``
    (raw wall seconds; ``speed_factor`` converts them to reference speed)."""
    import numpy as np

    summary = tracer.summary()
    c = tracer.counters

    def span(name, field):
        return float(summary[name][field]) if name in summary else 0.0

    cells = c.get("gains.build.cells", 0.0)
    gets = rec.context_hits + rec.context_misses
    coverage = tracer.coverage()
    if rec.workload == "serve_churn":
        coverage = [
            end - start
            for name, start, end, parent in tracer.spans
            if name == "serve.submit"
        ]
        total = sum(rec.latencies_s)
        coverage = [sum(coverage) / total] if total > 0 else []
    waits_ms = [w * 1e3 for w in rec.queue_wait_s]
    late_ms = [s * 1e3 for s in rec.late_s]
    out = {
        "geometry.distance_matrix.calls": (span("geometry.distance_matrix", "calls"), "count"),
        "geometry.distance_matrix.self_s": (span("geometry.distance_matrix", "self_s"), "s"),
        "geometry.distance_matrix.cells": (c.get("geometry.distance_matrix.cells", 0.0), "count"),
        "geometry.distance_block.calls": (span("geometry.distance_block", "calls"), "count"),
        "geometry.distance_block.self_s": (span("geometry.distance_block", "self_s"), "s"),
        "geometry.distance_block.cells": (c.get("geometry.distance_block.cells", 0.0), "count"),
        "gains.build.calls": (span("gains.build", "calls"), "count"),
        "gains.build.self_s": (span("gains.build", "self_s"), "s"),
        "gains.build.bytes": (c.get("gains.build.bytes", 0.0), "B"),
        "gains.build.kept_ratio": (c.get("gains.build.kept", 0.0) / cells if cells else 0.0, "ratio"),
        "gains.append.calls": (span("gains.append", "calls"), "count"),
        "gains.append.self_s": (span("gains.append", "self_s"), "s"),
        "context.get.calls": (span("context.get", "calls"), "count"),
        "context.get.hit_ratio": (rec.context_hits / gets if gets else 0.0, "ratio"),
    }
    for layer in ("admit", "extend", "move", "peel"):
        out[f"kernels.{layer}.calls"] = (span(f"kernels.{layer}", "calls"), "count")
        out[f"kernels.{layer}.self_s"] = (span(f"kernels.{layer}", "self_s"), "s")
    out.update(
        {
            "kernels.flip_risk_events": (float(rec.flip_risk_events), "count"),
            "kernels.peel_risk_events": (float(rec.peel_risk_events), "count"),
            "kernels.peel_fallbacks": (float(rec.peel_fallbacks), "count"),
        }
    )
    for algorithm in ("first_fit", "local_search", "sqrt_coloring", "first_fit_sharded"):
        out[f"scheduling.{algorithm}.self_s"] = (span(f"scheduling.{algorithm}", "self_s"), "s")
    out.update(
        {
            "shards.start.self_s": (span("shards.start", "self_s"), "s"),
            "shards.rpc.calls": (span("shards.rpc", "calls"), "count"),
            "shards.rpc.self_s": (span("shards.rpc", "self_s"), "s"),
            "shards.rpc.bytes": (c.get("shards.rpc.bytes", 0.0), "B"),
            "shards.respawns": (float(tracer.respawns()), "count"),
            "api.add_requests.calls": (span("api.add_requests", "calls"), "count"),
            "api.add_requests.self_s": (span("api.add_requests", "self_s"), "s"),
            "api.remove_requests.self_s": (span("api.remove_requests", "self_s"), "s"),
            "api.slots": (float(rec.slots), "count"),
            "serve.queue_wait_ms.p50": (float(np.median(waits_ms)) if waits_ms else 0.0, "ms"),
            "serve.queue_wait_ms.p99": (float(np.percentile(waits_ms, 99)) if waits_ms else 0.0, "ms"),
            "serve.queue_depth.max": (float(rec.queue_depth_max), "count"),
            "serve.rejected": (float(rec.rejected), "count"),
            "loadgen.late_ms.p99": (float(np.percentile(late_ms, 99)) if late_ms else 0.0, "ms"),
            "validate.self_s": (rec.validate_s, "s"),
            # Traced wall over untraced wall, minus one: the wrappers time
            # their own bookkeeping, so the untraced wall is the traced
            # wall without it.
            "trace.overhead_frac": (tracer.bookkeeping_s / untraced_wall_s if untraced_wall_s > 0 else 0.0, "ratio"),
            "trace.coverage": (float(np.median(coverage)) if coverage else 0.0, "ratio"),
        }
    )
    from sinrbench.reference import speed_factor

    out["speed_factor"] = (speed_factor(rec.reference_s), "ratio")
    return {name: (value, unit, "") for name, (value, unit) in out.items()}


def provenance(args, load_before, why):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def committed_first_fit(tracer):
    """Which committed n=2048 dense first-fit number the traced
    ``first_fit`` matches, and the layers its time splits into.

    The committed rows time ``first_fit`` on a cold context cache, so
    the comparable span is op start (fresh ``Problem``) to the end of
    the ``scheduling.first_fit`` span: it includes the gain build the
    session runs before the algorithm."""
    import numpy as np

    from sinrbench.trace import OP

    spans, own = tracer.spans, tracer.self_times()
    walls, layers = [], {}
    for index, (name, start, end, parent) in enumerate(spans):
        if name != "scheduling.first_fit" or parent < 0 or spans[parent][0] != OP:
            continue
        op_start = spans[parent][1]
        walls.append(end - op_start)
        for inner, (inner_name, s0, s1, _) in enumerate(spans):
            if s0 >= op_start and s1 <= end and inner_name != OP:
                layers[inner_name] = layers.get(inner_name, 0.0) + own[inner]
    if not walls:
        return None
    measured = float(np.median(walls))
    closest = min(
        COMMITTED_FIRST_FIT_S,
        key=lambda k: abs(math.log(COMMITTED_FIRST_FIT_S[k] / measured)),
    )
    per_call = {k: round(v / len(walls), 4) for k, v in sorted(layers.items())}
    largest = max(per_call, key=per_call.get)
    return {
        "traced_first_fit_s": round(measured, 4),
        "matches": closest,
        "committed_s": COMMITTED_FIRST_FIT_S,
        "layer_self_s_per_call": per_call,
        "largest_layer": largest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from sinrbench.trace import Tracer
    from sinrbench.workloads import SETUP_REPEATS, WHY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_s = import_seconds(SETUP_REPEATS)
    load_before = os.getloadavg()

    tracer = Tracer().install() if args.trace else None
    try:
        rec = WORKLOADS[args.workload](args.seed, args.seconds, import_s, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        stop_children()

    info = provenance(args, load_before, WHY[args.workload])
    if tracer is not None:
        metrics = per_layer(rec, tracer, rec.wall_s)
        if args.workload == "solve_dense":
            info["committed_first_fit"] = committed_first_fit(tracer)
    else:
        metrics = end_to_end(rec)

    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for problem in (rec.incorrect + rec.problems)[:20]:
        print(f"# problem: {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    declared = declared_metrics(bool(args.trace))
    missing = [name for name in declared if name not in metrics]
    if missing:
        sys.stderr.write(f"sinrbench: run produced no value for {missing}\n")
        return 1
    result = {
        "correct": not rec.incorrect,
        "attempted": int(rec.attempted),
        "failed": int(rec.failed),
        "metrics": {
            name: {"value": float(metrics[name][0]), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for this
    kind of run (per-layer when traced, end-to-end otherwise)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
