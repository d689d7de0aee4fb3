"""Determinism regression: pinned golden schedules.

The golden colorings below were produced by the pre-engine
implementation (before the shared ``InterferenceContext`` refactor) on
two small instances.  ``first_fit_schedule`` and ``sqrt_coloring``
must keep reproducing them bit-for-bit, and so must their from-scratch
oracles in ``tests/oracles.py`` — any divergence means a change altered
scheduling decisions, not just their cost.  A second table pins the
lossy backends (ε-pruned sparse and sharded storage) at n=512, risk
counters included.
"""

import hashlib
import importlib

import numpy as np
import pytest

import oracles
from repro.api import Problem
from repro.core.context import clear_context_cache
from repro.core.instance import Instance
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


# ----------------------------------------------------------------------
# Lossy backends: sparse (epsilon = 0.05) and sharded (W = 2, serial)
# ----------------------------------------------------------------------

#: Pinned before the kernels walked stored column entries instead of
#: dense columns (the CSR-native first-fit admission and greedy peel).
#: Per algorithm: sha256 prefix of the int64 colors, the color count,
#: then the run's risk counters — first_fit ``flip_risk_events``;
#: sqrt_coloring ``peel_risk_events`` and the number of peel fallbacks.
#: Sharded runs must equal sparse ones at the same epsilon.
GOLDEN_LOSSY = {
    "directed": {
        "first_fit": ["9834061545b1976f", 18, 494],
        "sqrt_coloring": ["25c8c0dac80612ee", 26, 0, 0],
        "local_search": ["9834061545b1976f", 18],
    },
    "bidirectional": {
        "first_fit": ["3d6917d0131dc523", 25, 487],
        "sqrt_coloring": ["24bc11968400b783", 33, 174, 0],
        "local_search": ["31febe8458efa87d", 23],
    },
    "shared-node": {
        "first_fit": ["2f638dbe725760d3", 30, 482],
        "sqrt_coloring": ["d8cdaecf3a720cd7", 51, 371, 0],
        "local_search": ["2f638dbe725760d3", 30],
    },
}

LOSSY_BACKENDS = {
    "sparse": dict(backend="sparse", sparse_epsilon=0.05),
    "sharded": dict(
        backend="sharded",
        sparse_epsilon=0.05,
        workers=2,
        shard_executor="serial",
    ),
}


def _lossy_instance(name):
    n = 512
    if name == "directed":
        return random_uniform_instance(n, rng=5, direction="directed")
    if name == "bidirectional":
        return random_uniform_instance(n, rng=6)
    # Every eighth request transmits from its predecessor's receiver:
    # infinite mutual gains between the two.
    base = random_uniform_instance(n, rng=7)
    senders = list(base.senders)
    for i in range(7, n, 8):
        senders[i] = base.receivers[i - 1]
    return Instance(
        base.metric, senders, list(base.receivers), direction="bidirectional"
    )


def _digest(colors):
    colors = np.asarray(colors, dtype=np.int64)
    return hashlib.sha256(colors.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("backend", sorted(LOSSY_BACKENDS))
@pytest.mark.parametrize("name", sorted(GOLDEN_LOSSY))
def test_lossy_backends_match_golden(name, backend):
    clear_context_cache()
    session = Problem(_lossy_instance(name), **LOSSY_BACKENDS[backend]).session()
    ff = session.schedule("first_fit")
    sc = session.schedule("sqrt_coloring", rng=11, use_lp=False)
    ls = session.schedule("local_search", schedule=ff)
    clear_context_cache()
    got = {
        "first_fit": [
            _digest(ff.schedule.colors),
            ff.schedule.num_colors,
            ff.provenance.flip_risk_events,
        ],
        "sqrt_coloring": [
            _digest(sc.schedule.colors),
            sc.schedule.num_colors,
            sc.provenance.peel_risk_events,
            len(sc.provenance.peel_fallbacks),
        ],
        "local_search": [_digest(ls.schedule.colors), ls.schedule.num_colors],
    }
    assert got == GOLDEN_LOSSY[name], f"{name} on {backend} diverged"
