"""Tests of the benchmark itself: the exact validator, deterministic
inputs, the metric set, and a tiny smoke run of every workload."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import Problem
from repro.core.feasibility import sinr_margins
from sinrbench import run, workloads
from sinrbench.exact import check_schedule, exact_margins
from sinrbench.trace import Tracer


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a size a unit test can afford."""
    monkeypatch.setattr(workloads, "SOLVE_DENSE_N", 48)
    monkeypatch.setattr(workloads, "SOLVE_LARGE_N", 64)
    monkeypatch.setattr(workloads, "SERVE_N", 48)
    monkeypatch.setattr(workloads, "SPARE_LINKS", 16)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
def test_validator_matches_schedule_validate_on_dense(direction):
    instance, _ = workloads.make_instance(96, seed=3, index=0)
    if direction == "bidirectional":
        from repro.core.instance import Instance

        instance = Instance(
            instance.metric, instance.senders, instance.receivers, direction=direction
        )
    result = Problem(instance, backend="dense").session().schedule("first_fit")
    verdict = check_schedule(instance, result.colors, result.powers)
    assert verdict.feasible and result.schedule.is_feasible(instance)
    exact = exact_margins(instance, result.colors, result.powers)
    library = sinr_margins(instance, result.powers, colors=result.colors)
    finite = np.isfinite(library)
    assert np.array_equal(np.isfinite(exact), finite)
    np.testing.assert_allclose(exact[finite], library[finite], rtol=1e-12)


def test_validator_rejects_pruned_first_fit():
    instance, _ = workloads.make_instance(256, seed=1, index=0)
    sparse = (
        Problem(instance, backend="sparse", sparse_epsilon=0.05)
        .session()
        .schedule("first_fit")
    )
    verdict = check_schedule(instance, sparse.colors, sparse.powers)
    assert not verdict.feasible
    assert verdict.min_margin < 1.0
    dense = Problem(instance, backend="dense").session().schedule("first_fit")
    assert check_schedule(instance, dense.colors, dense.powers).feasible


def test_validator_flags_shared_nodes():
    from repro.core.instance import Instance
    from repro.geometry.line import LineMetric

    instance = Instance(LineMetric([0.0, 1.0, 2.0]), [0, 1], [1, 2], direction="directed")
    verdict = check_schedule(instance, np.array([0, 0]), np.ones(2))
    assert not verdict.feasible and verdict.min_margin == 0.0
    assert check_schedule(instance, np.array([0, 1]), np.ones(2)).feasible


def test_generation_is_deterministic():
    a, pool_a = workloads.make_instance(64, seed=7, index=2, spare=8)
    b, pool_b = workloads.make_instance(64, seed=7, index=2, spare=8)
    assert np.array_equal(a.metric.points, b.metric.points)
    assert np.array_equal(a.senders, b.senders) and pool_a == pool_b
    assert a.n == 64 and len(pool_a) == 8
    c, _ = workloads.make_instance(64, seed=8, index=2, spare=8)
    assert not np.array_equal(a.metric.points, c.metric.points)
    # Spare links live on the same metric, disjoint from the live links.
    live_nodes = set(a.senders) | set(a.receivers)
    assert not live_nodes & {node for pair in pool_a for node in pair}


def test_tail_reports_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    value, pct, beyond = run.tail(values)
    assert pct == 90.0 and beyond == 10 and value == pytest.approx(90.1)
    value, pct, beyond = run.tail(list(range(12)))
    assert (value, pct, beyond) == (11.0, 100.0, 0)


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["solve_dense", "solve_large", "serve_churn"])
def test_smoke_every_metric_with_its_unit(tiny, capsys, workload):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = _run(capsys, workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        if trace == 0:
            # Ungated end-to-end metrics are printed by name and unit too.
            for name in ("failed_frac", "min_margin", "rss_growth_mb", *declared):
                assert any(line.startswith(f"# {name} = ") for line in lines), name
    if workload == "solve_large":
        # Pruned outputs are checked exactly: failed ops, not a crash.
        assert result["correct"] is True
    else:
        assert result["correct"] is True and result["failed"] == 0


def test_tracer_restores_every_wrapped_attribute():
    from repro import api
    from repro.analysis import capacity
    from repro.core import context, kernels

    def wrapped():
        return (
            api.Session.add_requests,
            kernels.ScheduleKernel.first_fit_admit,
            api.get_context,
            context.get_context,
            capacity.peel_max_feasible_subset,
        )

    before = wrapped()
    tracer = Tracer().install()
    assert all(a is not b for a, b in zip(wrapped(), before))
    tracer.uninstall()
    assert wrapped() == before


def test_traced_spans_nest_and_cover_the_op(tiny):
    tracer = Tracer().install()
    try:
        rec = workloads.solve_dense(seed=2, seconds=0.01, import_s=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["scheduling.first_fit"]["calls"] == rec.attempted
    assert summary["gains.build"]["calls"] >= 1
    assert summary["kernels.admit"]["calls"] >= workloads.SOLVE_DENSE_N
    assert all(0.9 <= c <= 1.0 + 1e-9 for c in tracer.coverage())
