"""Determinism regression: pinned golden schedules.

The golden colorings below were produced by the pre-engine
implementation (before the shared ``InterferenceContext`` refactor) on
two small instances.  ``first_fit_schedule`` and ``sqrt_coloring``
must keep reproducing them bit-for-bit, and so must their from-scratch
oracles in ``tests/oracles.py`` — any divergence means a change altered
scheduling decisions, not just their cost.
"""

import importlib

import numpy as np
import pytest

import oracles
from repro.core.context import clear_context_cache
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring

sqrt_module = importlib.import_module("repro.scheduling.sqrt_coloring")

# Golden outputs pinned from the pre-refactor implementation
# (commit 7ad023e), generated with the exact calls used below.
GOLDEN = {
    "bidir-n12-rng0": {
        "first_fit": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        "sqrt_coloring": [0, 1, 1, 1, 0, 0, 2, 0, 1, 0, 3, 1],
    },
    "directed-n10-rng1": {
        "first_fit": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "sqrt_coloring": [0, 1, 1, 0, 0, 1, 2, 3, 0, 0],
    },
}


def _instances():
    return {
        "bidir-n12-rng0": random_uniform_instance(12, rng=0),
        "directed-n10-rng1": random_uniform_instance(
            10, rng=1, direction="directed"
        ),
    }


@pytest.fixture(params=["production", "oracle"])
def path(request):
    """Run the test body on the production code or on the oracles."""
    clear_context_cache()
    yield request.param
    clear_context_cache()


def _first_fit(path, instance, powers):
    if path == "oracle":
        return oracles.first_fit_schedule(instance, powers)
    return first_fit_schedule(instance, powers)


def _sqrt_coloring(path, instance, rng):
    if path == "oracle":
        with oracles.swap_peel(sqrt_module, oracles.greedy_max_feasible_subset):
            return sqrt_coloring(instance, rng=rng)
    return sqrt_coloring(instance, rng=rng)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_first_fit_matches_golden(path, name):
    instance = _instances()[name]
    powers = SquareRootPower()(instance)
    schedule = _first_fit(path, instance, powers)
    assert schedule.colors.tolist() == GOLDEN[name]["first_fit"], (
        f"first_fit diverged from the pre-refactor golden on {name} "
        f"({path} path)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sqrt_coloring_matches_golden(path, name):
    instance = _instances()[name]
    schedule, _ = _sqrt_coloring(path, instance, rng=42)
    assert schedule.colors.tolist() == GOLDEN[name]["sqrt_coloring"], (
        f"sqrt_coloring diverged from the pre-refactor golden on {name} "
        f"({path} path)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_identical_seeds_identical_schedules(path, name):
    """Same seed twice -> bitwise-identical output (no hidden state)."""
    instance = _instances()[name]
    first, _ = _sqrt_coloring(path, instance, rng=7)
    second, _ = _sqrt_coloring(path, instance, rng=7)
    np.testing.assert_array_equal(first.colors, second.colors)
    np.testing.assert_array_equal(first.powers, second.powers)
