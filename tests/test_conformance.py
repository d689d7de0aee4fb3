"""Cross-algorithm conformance suite.

Every scheduler in :mod:`repro.scheduling` is run over a shared grid
of instances — directed x bidirectional, Euclidean / line / tree
metrics, n in {1, 2, 8, 32}, plus shared-node adversarial cases — and
every emitted schedule must satisfy
:func:`repro.core.feasibility.is_feasible_partition`.

Every scheduler built on first-fit, local search or the greedy peel
must also emit exactly the schedule of its from-scratch oracle in
``tests/oracles.py`` — on the grid and on random small instances
(hypothesis) — so a divergence between the production path and the
exact SINR constraint fails loudly.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.analysis.capacity import greedy_max_feasible_subset
from repro.core.context import clear_context_cache
from repro.core.feasibility import is_feasible_partition
from repro.core.gains import BackendConfig, use_backend
from repro.core.instance import Direction, Instance
from repro.geometry.line import LineMetric
from repro.instances.line_instances import equispaced_line_instance
from repro.instances.random_instances import (
    random_tree_metric_instance,
    random_uniform_instance,
)
from repro.power.oblivious import SquareRootPower
from repro.scheduling import gain_scaling, peeling, protocol_model
from repro.scheduling.distributed import distributed_coloring
from repro.scheduling.exact import (
    MAX_EXACT_N,
    _feasibility_table,
    exact_minimum_colors,
)
from repro.scheduling.firstfit import (
    first_fit_free_power_schedule,
    first_fit_schedule,
)
from repro.scheduling.gain_scaling import rescale_gain_coloring
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.protocol_model import protocol_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring
from repro.scheduling.trivial import trivial_schedule

#: The module, not the same-named function ``repro.scheduling`` exports.
sqrt_module = importlib.import_module("repro.scheduling.sqrt_coloring")

SIZES = (1, 2, 8, 32)


def _shared_node_instance(direction: Direction) -> Instance:
    """Adversarial chain where consecutive requests share a node —
    infinite mutual gain, so no two of them may ever share a color."""
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _build_grid():
    grid = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        for n in SIZES:
            grid[f"euclid-{tag}-n{n}"] = random_uniform_instance(
                n, rng=100 + n, direction=direction
            )
            grid[f"line-{tag}-n{n}"] = equispaced_line_instance(
                n, direction=direction
            )
            grid[f"tree-{tag}-n{n}"] = random_tree_metric_instance(
                n, rng=200 + n, direction=direction
            )
        grid[f"shared-node-{tag}"] = _shared_node_instance(direction)
    return grid


GRID = _build_grid()


def _schedulers():
    def fixed_power(fn):
        def run(instance, rng):
            powers = SquareRootPower()(instance)
            return fn(instance, powers)

        return run

    return {
        "trivial": lambda instance, rng: trivial_schedule(instance),
        "first_fit": fixed_power(first_fit_schedule),
        "first_fit_free_power": lambda instance, rng: (
            first_fit_free_power_schedule(instance)
        ),
        "peeling": fixed_power(peeling_schedule),
        "gain_scaling": fixed_power(
            lambda instance, powers: rescale_gain_coloring(
                instance, powers, gamma_target=2.0 * instance.beta
            )
        ),
        "sqrt_coloring": lambda instance, rng: sqrt_coloring(instance, rng=rng)[0],
        "sqrt_coloring_no_lp": lambda instance, rng: (
            sqrt_coloring(instance, rng=rng, use_lp=False)[0]
        ),
        "local_search": fixed_power(
            lambda instance, powers: improve_schedule(
                instance, first_fit_schedule(instance, powers)
            )
        ),
        "distributed": lambda instance, rng: distributed_coloring(
            instance, rng=rng
        )[0],
        "exact": lambda instance, rng: exact_minimum_colors(
            instance, SquareRootPower()(instance)
        )[1],
        "protocol_model": fixed_power(
            lambda instance, powers: protocol_schedule(instance, powers)[0]
        ),
    }


SCHEDULERS = _schedulers()


@pytest.fixture
def fresh_cache():
    """Run the test body on an empty context cache."""
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("instance_name", sorted(GRID))
def test_scheduler_emits_feasible_partition(
    fresh_cache, instance_name, scheduler_name
):
    instance = GRID[instance_name]
    if scheduler_name == "exact" and instance.n > MAX_EXACT_N:
        pytest.skip(f"exact solver caps at n={MAX_EXACT_N}")
    scheduler = SCHEDULERS[scheduler_name]
    schedule = scheduler(instance, np.random.default_rng(99))

    assert schedule.colors.shape == (instance.n,)
    assert np.all(schedule.colors >= 0)
    assert np.all(schedule.powers > 0)
    assert is_feasible_partition(instance, schedule.powers, schedule.colors), (
        f"{scheduler_name} emitted an infeasible schedule on {instance_name}"
    )


@pytest.mark.parametrize("instance_name", sorted(GRID))
def test_gain_scaling_respects_target(fresh_cache, instance_name):
    """The rescaled coloring must be feasible at the *stricter* gain."""
    instance = GRID[instance_name]
    powers = SquareRootPower()(instance)
    target = 2.0 * instance.beta
    schedule = rescale_gain_coloring(instance, powers, gamma_target=target)
    assert is_feasible_partition(
        instance, schedule.powers, schedule.colors, beta=target
    )


#: Schedulers whose oracle is a direct call into ``tests/oracles.py``.
ORACLE_RUNS = {
    "first_fit": lambda instance, powers: oracles.first_fit_schedule(
        instance, powers
    ),
    "local_search": lambda instance, powers: oracles.improve_schedule(
        instance, oracles.first_fit_schedule(instance, powers)
    ),
}

#: Schedulers built on first-fit or the greedy peel: their oracle is
#: the same scheduler with that by-name import swapped for the oracle.
ORACLE_SWAPS = {
    "gain_scaling": (gain_scaling, "first_fit_schedule", oracles.first_fit_schedule),
    "protocol_model": (
        protocol_model,
        "first_fit_schedule",
        oracles.first_fit_schedule,
    ),
    "peeling": (
        peeling,
        "greedy_max_feasible_subset",
        oracles.greedy_max_feasible_subset,
    ),
    "sqrt_coloring": (
        sqrt_module,
        "greedy_max_feasible_subset",
        oracles.greedy_max_feasible_subset,
    ),
    "sqrt_coloring_no_lp": (
        sqrt_module,
        "greedy_max_feasible_subset",
        oracles.greedy_max_feasible_subset,
    ),
}


@pytest.mark.parametrize("backend", ["dense", "sparse", "array"])
@pytest.mark.parametrize("scheduler_name", sorted([*ORACLE_RUNS, *ORACLE_SWAPS]))
@pytest.mark.parametrize("instance_name", sorted(GRID))
def test_scheduler_matches_oracle(
    fresh_cache, monkeypatch, instance_name, scheduler_name, backend
):
    """Every fixed-power scheduler emits its oracle's schedule
    bit-for-bit (randomized ones with identical seeds) on every
    lossless gain backend."""
    instance = GRID[instance_name]
    with use_backend(BackendConfig(backend)):
        schedule = SCHEDULERS[scheduler_name](instance, np.random.default_rng(99))
        if scheduler_name in ORACLE_RUNS:
            powers = SquareRootPower()(instance)
            expected = ORACLE_RUNS[scheduler_name](instance, powers)
        else:
            monkeypatch.setattr(*ORACLE_SWAPS[scheduler_name])
            expected = SCHEDULERS[scheduler_name](
                instance, np.random.default_rng(99)
            )
    np.testing.assert_array_equal(
        schedule.colors,
        expected.colors,
        err_msg=(
            f"{scheduler_name} differs from its oracle on {instance_name} "
            f"({backend} backend)"
        ),
    )
    np.testing.assert_array_equal(schedule.powers, expected.powers)


@pytest.mark.parametrize(
    "instance_name", sorted(name for name in GRID if GRID[name].n <= 8)
)
def test_exact_feasibility_table_matches_oracle(fresh_cache, instance_name):
    """The exact solver's subset-feasibility table (its only SINR
    input) agrees with the from-scratch oracle on every multi-request
    subset."""
    instance = GRID[instance_name]
    powers = SquareRootPower()(instance)
    table = _feasibility_table(instance, powers, None)
    for mask, feasible in enumerate(table):
        members = [i for i in range(instance.n) if mask >> i & 1]
        if len(members) >= 2:
            assert feasible == oracles.is_feasible_subset(
                instance, powers, members
            ), f"subset {members} of {instance_name}"


@st.composite
def small_instances(draw):
    """Random instances with n <= 24: uniform Euclidean ones, and line
    chains where consecutive links share a node (infinite gains)."""
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 10_000))
    direction = draw(st.sampled_from([Direction.DIRECTED, Direction.BIDIRECTIONAL]))
    if draw(st.booleans()):
        return random_uniform_instance(n, rng=seed, direction=direction)
    rng = np.random.default_rng(seed)
    metric = LineMetric(np.cumsum(rng.uniform(0.5, 3.0, size=n + 1)))
    return Instance(
        metric, list(range(n)), list(range(1, n + 1)), direction=direction
    )


@settings(max_examples=40, deadline=None)
@given(instance=small_instances(), seed=st.integers(0, 10_000))
def test_production_paths_match_oracles(instance, seed):
    clear_context_cache()
    powers = SquareRootPower()(instance)
    base = first_fit_schedule(instance, powers)
    np.testing.assert_array_equal(
        base.colors, oracles.first_fit_schedule(instance, powers).colors
    )
    np.testing.assert_array_equal(
        improve_schedule(instance, base).colors,
        oracles.improve_schedule(instance, base).colors,
    )
    np.testing.assert_array_equal(
        greedy_max_feasible_subset(instance, powers),
        oracles.greedy_max_feasible_subset(instance, powers),
    )
    schedule = sqrt_coloring(instance, rng=seed, use_lp=False)[0]
    with oracles.swap_peel(sqrt_module, oracles.greedy_max_feasible_subset):
        expected = sqrt_coloring(instance, rng=seed, use_lp=False)[0]
    np.testing.assert_array_equal(schedule.colors, expected.colors)
    clear_context_cache()


#: Session.schedule equivalents of the legacy free-function calls
#: above: ``(algorithm, session params)`` keyed like SCHEDULERS.  The
#: registry facade must reproduce every legacy schedule bit-for-bit on
#: every gain backend (epsilon=0 sparse and the numpy-namespace array
#: backend are lossless, so zero flip-risk events are expected
#: throughout).
SESSION_CALLS = {
    "trivial": ("trivial", {}),
    "first_fit": ("first_fit", {}),
    "first_fit_free_power": ("first_fit_free_power", {}),
    "peeling": ("peeling", {}),
    "gain_scaling": ("gain_scaling", {}),  # gamma_target added per instance
    "sqrt_coloring": ("sqrt_coloring", {}),
    "sqrt_coloring_no_lp": ("sqrt_coloring", {"use_lp": False}),
    "local_search": ("local_search", {}),  # schedule= added per run
    "distributed": ("distributed", {}),
    "exact": ("exact", {}),
    "protocol_model": ("protocol_model", {}),
}


@pytest.mark.parametrize("backend", ["dense", "sparse", "array"])
@pytest.mark.parametrize("scheduler_name", sorted(SESSION_CALLS))
@pytest.mark.parametrize(
    "instance_name",
    sorted(
        name
        for name in GRID
        if name.endswith(("n8", "n32")) or "shared-node" in name
    ),
)
def test_session_matches_legacy_free_functions(
    backend, instance_name, scheduler_name
):
    """Acceptance: every scheduler resolved through the registry and
    called via Session.schedule emits the very schedule the legacy free
    function emits — on the dense, the (lossless) sparse, and the
    array-API (numpy namespace) backend — with zero flip-risk
    events."""
    from repro.api import Problem

    instance = GRID[instance_name]
    if scheduler_name == "exact" and instance.n > MAX_EXACT_N:
        pytest.skip(f"exact solver caps at n={MAX_EXACT_N}")
    legacy = SCHEDULERS[scheduler_name](instance, np.random.default_rng(99))

    clear_context_cache()
    algorithm, params = SESSION_CALLS[scheduler_name]
    params = dict(params)
    session = Problem(instance, backend=backend).session()
    rng = None
    if scheduler_name in ("sqrt_coloring", "sqrt_coloring_no_lp", "distributed"):
        rng = np.random.default_rng(99)
    if scheduler_name == "gain_scaling":
        params["gamma_target"] = 2.0 * instance.beta
    if scheduler_name == "local_search":
        params["schedule"] = session.schedule("first_fit")
    result = session.schedule(algorithm, rng=rng, **params)

    np.testing.assert_array_equal(
        result.colors,
        legacy.colors,
        err_msg=(
            f"{scheduler_name} via Session on {backend} differs from the "
            f"legacy free function on {instance_name}"
        ),
    )
    np.testing.assert_array_equal(result.powers, legacy.powers)
    assert result.provenance.flip_risk_events == 0
    assert result.provenance.backend == backend
    clear_context_cache()


@pytest.mark.parametrize(
    "direction", [Direction.DIRECTED, Direction.BIDIRECTIONAL]
)
def test_shared_node_pairs_never_share_colors(fresh_cache, direction):
    """On the shared-node chain, adjacent requests have infinite mutual
    gain; every scheduler must keep them in distinct colors."""
    instance = _shared_node_instance(direction)
    rng = np.random.default_rng(5)
    for name, scheduler in sorted(SCHEDULERS.items()):
        schedule = scheduler(instance, rng)
        colors = schedule.colors
        for i, j in ((0, 1), (1, 2), (2, 3)):
            assert colors[i] != colors[j], (
                f"{name} put shared-node requests {i}, {j} in one color"
            )
