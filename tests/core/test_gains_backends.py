"""Conformance tests for the pluggable gain backends.

Contracts under test (see :mod:`repro.core.gains`):

* every backend primitive of a **lossless** sparse backend
  (``epsilon = 0``) is bit-identical to the dense backend;
* schedules computed under the sparse backend match the dense backend
  exactly when the run is certified (``flip_risk_events == 0``), and in
  particular always at ``epsilon = 0``;
* a pruned backend under-estimates interference by at most the
  recorded per-request pruned mass, and never by more than ``epsilon``
  times the row mass;
* tiled metric access (``pair_distances`` / ``distance_block``) is
  bit-identical to full-matrix gathers;
* backend selection (defaults, scopes, env plumbing, cache keying)
  behaves as documented.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import gains
from repro.core.context import clear_context_cache, get_context
from repro.core.gains import (
    ArrayBackend,
    DenseBackend,
    SparseBackend,
    backend_scope,
    build_backend,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.core.instance import Direction, Instance
from repro.core.interference import (
    bidirectional_gain_matrices,
    directed_gain_matrix,
)
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.explicit import ExplicitMetric
from repro.geometry.line import LineMetric
from repro.instances.random_instances import (
    clustered_instance,
    random_uniform_instance,
)
from repro.power.oblivious import SquareRootPower
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.local_search import improve_schedule
from repro.scheduling.peeling import peeling_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring


def _shared_node_instance(direction):
    metric = LineMetric([0.0, 1.0, 2.5, 4.5, 7.0])
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return Instance(
        metric,
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        direction=direction,
    )


def _grid():
    cases = {}
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        tag = direction.value[:3]
        inst = random_uniform_instance(24, rng=31, direction=direction)
        cases[f"euclid-{tag}"] = (inst, SquareRootPower()(inst))
        shared = _shared_node_instance(direction)
        cases[f"shared-{tag}"] = (shared, np.ones(shared.n))
    return cases


GRID = _grid()


@contextmanager
def gains_epsilon(value):
    previous = gains.default_sparse_epsilon()
    gains.set_sparse_epsilon(value)
    try:
        yield
    finally:
        gains.set_sparse_epsilon(previous)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


class TestLosslessBitIdentity:
    """Sparse at epsilon=0 must reproduce every dense primitive bitwise."""

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_primitives_match_dense(self, name):
        instance, powers = GRID[name]
        dense = build_backend(instance, powers, backend="dense")
        sparse = build_backend(
            instance, powers, backend="sparse", sparse_epsilon=0.0
        )
        assert sparse.is_lossless
        assert sparse.directed == dense.directed
        assert sparse.has_infinite_gains == dense.has_infinite_gains
        np.testing.assert_array_equal(sparse.pruned_mass_u, 0.0)
        n = instance.n
        idx = np.arange(0, n, 2)
        members = np.asarray([0, n - 1])
        colors = np.arange(n) % 3
        for endpoint in ("u", "v"):
            def op(backend, method, *args, e=endpoint):
                return getattr(backend, f"{method}_{e}")(*args)

            for j in (0, n // 2, n - 1):
                np.testing.assert_array_equal(
                    op(dense, "col", j), op(sparse, "col", j)
                )
                np.testing.assert_array_equal(
                    op(dense, "row", j), op(sparse, "row", j)
                )
            np.testing.assert_array_equal(
                op(dense, "gather_cols", members),
                op(sparse, "gather_cols", members),
            )
            np.testing.assert_array_equal(
                op(dense, "block", idx), op(sparse, "block", idx)
            )
            np.testing.assert_array_equal(
                op(dense, "cross_block", idx, members),
                op(sparse, "cross_block", idx, members),
            )
            for c in (None, colors):
                np.testing.assert_array_equal(
                    op(dense, "class_sum", c), op(sparse, "class_sum", c)
                )
            np.testing.assert_array_equal(
                op(dense, "dense", ), op(sparse, "dense", )
            )

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_row_sums_match_block_gather(self, name):
        """row_sums_{u,v} must equal the dense block-gather row sums
        bitwise — on every backend, with and without a column subset,
        including infinite (shared-node) rows."""
        instance, powers = GRID[name]
        dense = build_backend(instance, powers, backend="dense")
        sparse = build_backend(
            instance, powers, backend="sparse", sparse_epsilon=0.0
        )
        n = instance.n
        rows = np.arange(n)
        cols = np.asarray(sorted({0, n - 1, n // 2}))
        for backend in (dense, sparse):
            for endpoint in ("u", "v"):
                block = getattr(backend, f"cross_block_{endpoint}")
                sums = getattr(backend, f"row_sums_{endpoint}")
                np.testing.assert_array_equal(
                    sums(rows), block(rows, rows).sum(axis=1)
                )
                np.testing.assert_array_equal(
                    sums(rows, cols), block(rows, cols).sum(axis=1)
                )
                np.testing.assert_array_equal(
                    sums(rows[::2]), block(rows[::2], rows[::2]).sum(axis=1)
                )
        # And sparse agrees with dense bitwise at epsilon=0.
        np.testing.assert_array_equal(
            dense.row_sums_u(rows), sparse.row_sums_u(rows)
        )
        np.testing.assert_array_equal(
            dense.row_sums_v(rows, cols), sparse.row_sums_v(rows, cols)
        )

    def test_row_sums_tiling_invariant(self):
        """Tiled accumulation must not change the bits: shrinking the
        tile to 1 row yields the same sums."""
        instance, powers = GRID["euclid-bid"]
        dense = build_backend(instance, powers, backend="dense")
        rows = np.arange(instance.n)
        expected = dense.row_sums_u(rows)
        dense.tile_rows = 1
        np.testing.assert_array_equal(dense.row_sums_u(rows), expected)

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_context_queries_match_dense(self, name):
        instance, powers = GRID[name]
        ctx_dense = get_context(instance, powers, backend="dense")
        ctx_sparse = get_context(instance, powers, backend="sparse")
        assert ctx_dense is not ctx_sparse  # distinct cache slots
        np.testing.assert_array_equal(
            ctx_dense.margins(), ctx_sparse.margins()
        )
        subset = np.arange(instance.n)[::2]
        np.testing.assert_array_equal(
            ctx_dense.budget_slack(subset), ctx_sparse.budget_slack(subset)
        )
        np.testing.assert_array_equal(
            ctx_dense.greedy_max_feasible_subset(),
            ctx_sparse.greedy_max_feasible_subset(),
        )

    def test_schedulers_match_dense_bitwise(self):
        for direction in ("directed", "bidirectional"):
            instance = random_uniform_instance(32, rng=77, direction=direction)
            powers = SquareRootPower()(instance)
            reference = {
                "first_fit": first_fit_schedule(instance, powers).colors,
                "peeling": peeling_schedule(instance, powers).colors,
                "sqrt": sqrt_coloring(instance, rng=3, use_lp=False)[0].colors,
                "local_search": improve_schedule(
                    instance, first_fit_schedule(instance, powers)
                ).colors,
            }
            clear_context_cache()
            with backend_scope("sparse"):
                assert default_backend() == "sparse"
                results = {
                    "first_fit": first_fit_schedule(instance, powers).colors,
                    "peeling": peeling_schedule(instance, powers).colors,
                    "sqrt": sqrt_coloring(instance, rng=3, use_lp=False)[
                        0
                    ].colors,
                    "local_search": improve_schedule(
                        instance, first_fit_schedule(instance, powers)
                    ).colors,
                }
                backend = get_context(instance, powers).backend
                assert isinstance(backend, SparseBackend)
                assert backend.flip_risk_events == 0
            for key, expected in reference.items():
                np.testing.assert_array_equal(
                    results[key], expected, err_msg=f"{direction}:{key}"
                )


class TestPrunedBackend:
    def _pruned(self, instance, powers, epsilon):
        dense = build_backend(instance, powers, backend="dense")
        sparse = build_backend(
            instance, powers, backend="sparse", sparse_epsilon=epsilon
        )
        return dense, sparse

    def test_pruning_drops_mass_within_budget(self):
        instance = clustered_instance(48, rng=5, direction="directed")
        powers = SquareRootPower()(instance)
        epsilon = 1e-3
        dense, sparse = self._pruned(instance, powers, epsilon)
        assert not sparse.is_lossless
        assert sparse.nnz < dense.nnz  # pruning actually removed entries
        full_dense = dense.class_sum_u(None)
        full_sparse = sparse.class_sum_u(None)
        gap = full_dense - full_sparse
        assert np.all(gap >= -1e-12)  # never over-estimates
        # Recorded bound dominates the real gap...
        assert np.all(gap <= sparse.pruned_mass_u + 1e-12 * full_dense)
        # ...and respects the epsilon budget.
        assert np.all(sparse.pruned_mass_u <= epsilon * full_dense * (1 + 1e-6))

    def test_infinite_entries_survive_pruning(self):
        instance = _shared_node_instance(Direction.BIDIRECTIONAL)
        powers = np.ones(instance.n)
        _, sparse = self._pruned(instance, powers, 0.5)
        assert sparse.has_infinite_gains
        # Adjacent shared-node requests must still see infinite gain.
        assert np.isinf(sparse.col_u(1)).any() or np.isinf(sparse.col_v(1)).any()
        ctx = get_context(instance, powers, backend="sparse", sparse_epsilon=0.5)
        slack = ctx.budget_slack(np.asarray([0, 1]))
        assert np.all(np.isneginf(slack))

    def test_certified_run_matches_dense(self):
        """At-risk admissions are counted; a zero counter certifies the
        sparse first-fit schedule equals the dense one."""
        instance = random_uniform_instance(48, rng=11, direction="directed")
        powers = SquareRootPower()(instance)
        dense_colors = first_fit_schedule(instance, powers).colors
        clear_context_cache()
        # Small epsilon: pruning is active but far from any margin.
        epsilon = 1e-5
        ctx = get_context(
            instance, powers, backend="sparse", sparse_epsilon=epsilon
        )
        assert not ctx.backend.is_lossless
        ctx.backend.reset_flip_risk()
        with backend_scope("sparse"), gains_epsilon(epsilon):
            sparse_colors = first_fit_schedule(instance, powers).colors
        assert ctx.backend.flip_risk_events == 0
        np.testing.assert_array_equal(sparse_colors, dense_colors)

    def test_certification_soundness_under_heavy_pruning(self):
        """The certification contract: whenever a sparse run diverges
        from the dense schedule, its flip-risk counter must be nonzero
        (an uncounted divergence would be a soundness bug).  Across the
        seed sweep heavy pruning must also trip the counter at least
        once, so the property has teeth."""
        epsilon = 0.3
        any_risk = False
        for seed in range(8):
            instance = random_uniform_instance(
                48, rng=400 + seed, direction="directed"
            )
            powers = SquareRootPower()(instance)
            dense_colors = first_fit_schedule(instance, powers).colors
            clear_context_cache()
            ctx = get_context(
                instance, powers, backend="sparse", sparse_epsilon=epsilon
            )
            ctx.backend.reset_flip_risk()
            with backend_scope("sparse"), gains_epsilon(epsilon):
                sparse_colors = first_fit_schedule(instance, powers).colors
            risk = ctx.backend.flip_risk_events
            any_risk = any_risk or risk > 0
            if risk == 0:
                np.testing.assert_array_equal(
                    sparse_colors,
                    dense_colors,
                    err_msg=f"seed {seed}: uncertified divergence",
                )
        assert any_risk, "epsilon=0.3 never entered an uncertainty band"

    def test_flip_risk_counts_per_run_and_cumulatively(self):
        """Certification must be answerable per run: the kernel keeps
        its own count while the shared backend accumulates, so repeated
        runs on one cached context stay attributable."""
        from repro.core.kernels import ScheduleKernel

        instance = random_uniform_instance(48, rng=401, direction="directed")
        powers = SquareRootPower()(instance)
        epsilon = 0.3
        ctx = get_context(
            instance, powers, backend="sparse", sparse_epsilon=epsilon
        )
        with backend_scope("sparse"), gains_epsilon(epsilon):
            first_fit_schedule(instance, powers)
            first_run = ctx.backend.flip_risk_events
            assert first_run > 0  # seed 401 trips the band (see above)
            first_fit_schedule(instance, powers)
        # The backend total accumulates run over run...
        assert ctx.backend.flip_risk_events == 2 * first_run
        # ...while a fresh kernel's own counter starts at zero and
        # counts only its run.
        kernel = ScheduleKernel(ctx)
        assert kernel.flip_risk_events == 0
        budget = ctx.budgets()
        order = np.argsort(-instance.link_distances, kind="stable")
        for req in order:
            color = kernel.first_fit_admit(int(req), budget * (1.0 + 1e-9))
            if color < 0:
                color = kernel.open_class()
            kernel.add(int(req), color)
        assert kernel.flip_risk_events == first_run
        assert ctx.backend.flip_risk_events == 3 * first_run

    def test_context_pool_keys_on_sparse_epsilon(self):
        """A pool must never serve a context built under a different
        pruning budget (mirrors get_context's cache key)."""
        from repro.core.batch import ContextPool

        instance = random_uniform_instance(12, rng=21)
        powers = SquareRootPower()(instance)
        pool = ContextPool()
        lossless = pool.get(instance, powers, backend="sparse")
        assert lossless.sparse_epsilon == 0.0
        with gains_epsilon(0.2):
            pruned = pool.get(instance, powers, backend="sparse")
        assert pruned is not lossless
        assert pruned.sparse_epsilon == 0.2
        explicit = pool.get(
            instance, powers, backend="sparse", sparse_epsilon=0.2
        )
        assert explicit is pruned
        assert len(pool) == 2


#: Gain-tile entries: exact zeros, infinite (shared-node) gains, a few
#: repeated values (ties at the keep/drop boundary) and spread floats.
_tile_entries = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.sampled_from([0.25, 1.0, 3.0]),
    st.floats(min_value=1e-6, max_value=1e6),
)


@st.composite
def _prune_cases(draw):
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 24)))
    tile = draw(hnp.arrays(np.float64, shape, elements=_tile_entries))
    epsilon = draw(st.floats(min_value=0.0, max_value=0.5))
    # Small starting candidate counts drive the grow-and-retry rounds
    # and the full-sort fallback on these narrow tiles.
    start_k = draw(st.sampled_from([1, 2, 5, gains._PRUNE_START_K]))
    return tile, epsilon, start_k


class TestPruneTile:
    """Properties of the per-row ε-prune rule (:func:`gains._prune_tile`)."""

    @settings(max_examples=300, deadline=None)
    @given(case=_prune_cases())
    def test_prune_rule(self, case):
        tile, epsilon, start_k = case
        with mock.patch.object(gains, "_PRUNE_START_K", start_k):
            keep, pruned = gains._prune_tile(tile, epsilon)
            # Each row is decided alone: pruning a row by itself gives
            # the same mask and bound bit for bit.
            for r in range(tile.shape[0]):
                keep_r, pruned_r = gains._prune_tile(tile[r : r + 1], epsilon)
                np.testing.assert_array_equal(keep_r[0], keep[r])
                assert pruned_r[0] == pruned[r]
        assert np.all(keep[np.isinf(tile)])
        assert not np.any(keep[tile == 0.0])
        # Rounding margin of the float64 sums behind the decision.
        margin = 2 * (tile.shape[1] + 2) * 2.0**-52
        for r, row in enumerate(tile):
            finite = np.isfinite(row) & (row > 0)
            kept = np.sort(row[finite & keep[r]])
            dropped = row[finite & ~keep[r]]
            mass = math.fsum(row[finite])
            dropped_mass = math.fsum(dropped)
            assert dropped_mass <= epsilon * mass
            assert pruned[r] >= dropped_mass
            if kept.size:
                # The smallest entries go first...
                assert dropped.size == 0 or dropped.max() <= kept[0]
                # ...and no more are kept than the budget needs.
                assert math.fsum([dropped_mass, kept[0]]) > (
                    epsilon - margin
                ) * mass

    def test_bound_is_exact_sum_widened(self):
        tile = np.array([[1.0, 2.0, 4.0, 100.0, 0.0, np.inf]])
        keep, pruned = gains._prune_tile(tile, 0.05)
        np.testing.assert_array_equal(
            keep, [[False, False, True, True, False, True]]
        )
        assert 3.0 <= pruned[0] <= 3.0 * (1 + 1e-12)


class TestTiledMetricAccess:
    def test_euclidean_blocks_bit_identical(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 50, size=(40, 2))
        metric = EuclideanMetric(points)
        full = metric.distance_matrix()
        rows = np.asarray([0, 7, 39, 3])
        cols = np.arange(40)
        np.testing.assert_array_equal(
            metric.distance_block(rows, cols), full[np.ix_(rows, cols)]
        )
        us = np.asarray([0, 5, 11])
        vs = np.asarray([39, 2, 11])
        np.testing.assert_array_equal(
            metric.pair_distances(us, vs), full[us, vs]
        )
        np.testing.assert_array_equal(
            metric.loss_block(rows, cols, 3.0),
            metric.loss_matrix(3.0)[np.ix_(rows, cols)],
        )

    def test_default_metric_blocks_match(self):
        metric = LineMetric([0.0, 1.0, 3.0, 6.0, 10.0])
        full = metric.distance_matrix()
        rows = np.asarray([1, 4])
        cols = np.asarray([0, 2, 3])
        np.testing.assert_array_equal(
            metric.distance_block(rows, cols), full[np.ix_(rows, cols)]
        )

    def test_instance_link_distances_unchanged(self):
        """Instance now resolves link lengths via pair_distances; the
        values must match the historical full-matrix gather bitwise."""
        instance = random_uniform_instance(16, rng=8)
        expected = instance.metric.distance_matrix()[
            instance.senders, instance.receivers
        ]
        np.testing.assert_array_equal(instance.link_distances, expected)

    @pytest.mark.parametrize("backend", ["dense", "sparse", "array"])
    def test_sparse_build_never_builds_distance_matrix(self, backend):
        """Every tiled build (dense, array and the CSR build) must not
        materialize the metric's full matrix: only the request cells
        are needed, and at n >> 10^3 the node x node matrix dominates
        both time and memory."""
        instance = random_uniform_instance(32, rng=12, direction="directed")
        powers = SquareRootPower()(instance)
        assert instance.metric._matrix_cache is None
        built = build_backend(instance, powers, backend=backend)
        built.class_sum_u(None)
        assert instance.metric._matrix_cache is None


def _dense_build_grid():
    """GRID plus the two other ``distance_block`` paths: a
    9-dimensional Euclidean metric (the ``(r, c, d)`` broadcast branch)
    and an :class:`ExplicitMetric` (the default gather from the cached
    matrix)."""
    cases = dict(GRID)
    rng = np.random.default_rng(17)
    metrics = {
        "euclid9": EuclideanMetric(rng.uniform(0, 10, size=(30, 9))),
        "explicit": ExplicitMetric(
            EuclideanMetric(rng.uniform(0, 10, size=(30, 2))).distance_matrix()
        ),
    }
    for direction in (Direction.DIRECTED, Direction.BIDIRECTIONAL):
        for tag, metric in metrics.items():
            inst = Instance(
                metric, np.arange(0, 30, 2), np.arange(1, 30, 2), direction=direction
            )
            cases[f"{tag}-{direction.value[:3]}"] = (inst, SquareRootPower()(inst))
    return cases


DENSE_BUILD_GRID = _dense_build_grid()


def _full_matrix_gains(instance, powers):
    if instance.direction is Direction.DIRECTED:
        gains = directed_gain_matrix(instance, powers)
        return gains, gains
    return bidirectional_gain_matrices(instance, powers)


class TestTiledDenseBuild:
    """The dense backend is built by ``_gain_block`` tiles; every entry
    must equal the full-matrix builders' bitwise, for one tile and for
    many (tile rows patched small), cold and grown."""

    @pytest.mark.parametrize("tile_rows", [gains.DEFAULT_TILE_ROWS, 4])
    @pytest.mark.parametrize("name", sorted(DENSE_BUILD_GRID))
    def test_build_matches_full_matrix_builders(self, name, tile_rows, monkeypatch):
        monkeypatch.setattr(gains, "DEFAULT_TILE_ROWS", tile_rows)
        instance, powers = DENSE_BUILD_GRID[name]
        backend = DenseBackend.build(instance, powers)
        ref_u, ref_v = _full_matrix_gains(instance, powers)
        np.testing.assert_array_equal(backend.gains_u, ref_u)
        np.testing.assert_array_equal(backend.gains_v, ref_v)
        assert (backend.gains_v is backend.gains_u) == (
            instance.direction is Direction.DIRECTED
        )
        assert backend.has_infinite_gains == (
            not (np.all(np.isfinite(ref_u)) and np.all(np.isfinite(ref_v)))
        )

    @pytest.mark.parametrize("name", sorted(DENSE_BUILD_GRID))
    def test_append_matches_full_matrix_builders(self, name, monkeypatch):
        monkeypatch.setattr(gains, "DEFAULT_TILE_ROWS", 3)
        instance, powers = DENSE_BUILD_GRID[name]
        k = max(1, instance.n // 3)
        prefix = Instance(
            instance.metric,
            instance.senders[:k],
            instance.receivers[:k],
            direction=instance.direction,
            alpha=instance.alpha,
        )
        backend = DenseBackend.build(prefix, powers[:k])
        backend.append_requests(instance, powers)
        ref_u, ref_v = _full_matrix_gains(instance, powers)
        np.testing.assert_array_equal(backend.gains_u, ref_u)
        np.testing.assert_array_equal(backend.gains_v, ref_v)


class TestBackendSelection:
    def test_resolve_and_default(self):
        assert resolve_backend(None) == default_backend()
        assert resolve_backend("DENSE") == "dense"
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(ValueError):
            gains.resolve_sparse_epsilon(1.5)

    def test_scope_restores_default(self):
        before = default_backend()
        with backend_scope("sparse"):
            assert default_backend() == "sparse"
            with backend_scope(None):  # None = leave as is
                assert default_backend() == "sparse"
        assert default_backend() == before

    def test_set_default_backend_roundtrip(self):
        before = default_backend()
        try:
            set_default_backend("sparse")
            instance = random_uniform_instance(6, rng=3)
            powers = SquareRootPower()(instance)
            ctx = get_context(instance, powers)
            assert ctx.backend_name == "sparse"
            assert isinstance(ctx.backend, SparseBackend)
        finally:
            set_default_backend(before)

    def test_dense_backend_reuses_context_arrays(self):
        instance = random_uniform_instance(8, rng=2)
        powers = SquareRootPower()(instance)
        ctx = get_context(instance, powers, backend="dense")
        backend = ctx.backend
        assert isinstance(backend, DenseBackend)
        assert ctx.gains_u is backend.gains_u
        assert ctx.gains_ut is backend.gains_ut


class TestArrayBackend:
    """Tentpole: the array-API backend under the numpy namespace is
    float64 bit-identical to the dense backend on every primitive."""

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_primitives_match_dense(self, name):
        instance, powers = GRID[name]
        dense = build_backend(instance, powers, backend="dense")
        array = build_backend(instance, powers, backend="array")
        assert isinstance(array, ArrayBackend)
        assert array.name == "array"
        assert array.namespace == "numpy"
        assert array.is_lossless
        assert np.all(array.pruned_bound == 0.0)
        assert array.directed == dense.directed
        assert array.has_infinite_gains == dense.has_infinite_gains
        n = instance.n
        idx = np.arange(0, n, 2)
        members = np.asarray([0, n - 1])
        colors = np.arange(n) % 3
        for endpoint in ("u", "v"):
            def op(backend, method, *args, e=endpoint):
                return getattr(backend, f"{method}_{e}")(*args)

            for j in (0, n // 2, n - 1):
                np.testing.assert_array_equal(
                    op(dense, "col", j), op(array, "col", j)
                )
                np.testing.assert_array_equal(
                    op(dense, "row", j), op(array, "row", j)
                )
            np.testing.assert_array_equal(
                op(dense, "gather_cols", members),
                op(array, "gather_cols", members),
            )
            np.testing.assert_array_equal(
                op(dense, "block", idx), op(array, "block", idx)
            )
            np.testing.assert_array_equal(
                op(dense, "cross_block", idx, members),
                op(array, "cross_block", idx, members),
            )
            np.testing.assert_array_equal(
                op(dense, "row_sums", np.arange(n)),
                op(array, "row_sums", np.arange(n)),
            )
            for c in (None, colors):
                np.testing.assert_array_equal(
                    op(dense, "class_sum", c), op(array, "class_sum", c)
                )
            np.testing.assert_array_equal(
                op(dense, "dense"), op(array, "dense")
            )

    def test_numpy_namespace_is_zero_copy(self):
        """Under the numpy namespace the transfer boundary is the
        identity: primitives return host float64 arrays without a
        round-trip copy of the whole matrix."""
        instance, powers = GRID["euclid-bid"]
        array = build_backend(instance, powers, backend="array")
        col = array.col_u(0)
        assert isinstance(col, np.ndarray)
        assert col.dtype == np.float64

    def test_schedulers_match_dense_bitwise(self):
        for direction in ("directed", "bidirectional"):
            instance = random_uniform_instance(32, rng=78, direction=direction)
            powers = SquareRootPower()(instance)
            reference = {
                "first_fit": first_fit_schedule(instance, powers).colors,
                "peeling": peeling_schedule(instance, powers).colors,
                "local_search": improve_schedule(
                    instance, first_fit_schedule(instance, powers)
                ).colors,
            }
            clear_context_cache()
            with backend_scope("array"):
                results = {
                    "first_fit": first_fit_schedule(instance, powers).colors,
                    "peeling": peeling_schedule(instance, powers).colors,
                    "local_search": improve_schedule(
                        instance, first_fit_schedule(instance, powers)
                    ).colors,
                }
                backend = get_context(instance, powers).backend
                assert isinstance(backend, ArrayBackend)
                assert backend.flip_risk_events == 0
            for key, expected in reference.items():
                np.testing.assert_array_equal(
                    results[key], expected, err_msg=f"{direction}:{key}"
                )

    def test_namespace_validation(self):
        instance, powers = GRID["euclid-dir"]
        with pytest.raises(ValueError, match="array namespace"):
            build_backend(
                instance, powers, backend="array", array_namespace="jax"
            )
        with pytest.raises(ValueError, match="array namespace"):
            gains.resolve_array_namespace("pandas")

    def test_missing_framework_names_install_extra(self):
        """Selecting an uninstalled namespace fails at build with an
        error naming the package and the [array] extra (torch/cupy are
        not test dependencies)."""
        instance, powers = GRID["euclid-dir"]
        missing = []
        for name in ("torch", "cupy"):
            try:
                __import__(name)
            except ImportError:
                missing.append(name)
        if not missing:
            pytest.skip("torch and cupy both installed")
        with pytest.raises(ImportError, match=r"\[array\]"):
            build_backend(
                instance, powers, backend="array", array_namespace=missing[0]
            )

    def test_namespace_scope_and_default(self):
        before = gains.default_array_namespace()
        with gains.array_namespace_scope("numpy"):
            assert gains.default_array_namespace() == "numpy"
            with gains.array_namespace_scope(None):
                assert gains.default_array_namespace() == "numpy"
        assert gains.default_array_namespace() == before

    def test_context_cache_keys_on_namespace_and_device(self):
        instance, powers = GRID["euclid-bid"]
        dense_ctx = get_context(instance, powers, backend="dense")
        array_ctx = get_context(instance, powers, backend="array")
        again = get_context(instance, powers, backend="array")
        assert dense_ctx is not array_ctx
        assert array_ctx is again
        assert array_ctx.array_namespace == "numpy"
        assert array_ctx.backend_name == "array"


class TestArrayApiStrict:
    """The portability gate: every primitive must survive the strict
    array-API namespace (run in CI's array-backend job; skipped locally
    when array-api-strict is absent)."""

    @pytest.fixture(autouse=True)
    def _strict(self):
        pytest.importorskip("array_api_strict")

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_primitives_match_dense(self, name):
        instance, powers = GRID[name]
        dense = build_backend(instance, powers, backend="dense")
        strict = build_backend(
            instance,
            powers,
            backend="array",
            array_namespace="array_api_strict",
        )
        assert strict.namespace == "array_api_strict"
        n = instance.n
        idx = np.arange(0, n, 2)
        members = np.asarray([0, n - 1])
        colors = np.arange(n) % 3
        for endpoint in ("u", "v"):
            def op(backend, method, *args, e=endpoint):
                return getattr(backend, f"{method}_{e}")(*args)

            np.testing.assert_array_equal(
                op(dense, "col", 0), op(strict, "col", 0)
            )
            np.testing.assert_array_equal(
                op(dense, "gather_cols", members),
                op(strict, "gather_cols", members),
            )
            np.testing.assert_array_equal(
                op(dense, "block", idx), op(strict, "block", idx)
            )
            np.testing.assert_array_equal(
                op(dense, "cross_block", idx, members),
                op(strict, "cross_block", idx, members),
            )
            np.testing.assert_array_equal(
                op(dense, "row_sums", np.arange(n)),
                op(strict, "row_sums", np.arange(n)),
            )
            for c in (None, colors):
                np.testing.assert_array_equal(
                    op(dense, "class_sum", c), op(strict, "class_sum", c)
                )
            np.testing.assert_array_equal(
                op(dense, "dense"), op(strict, "dense")
            )

    def test_schedules_match_dense(self):
        instance = random_uniform_instance(24, rng=79)
        powers = SquareRootPower()(instance)
        expected = first_fit_schedule(instance, powers).colors
        clear_context_cache()
        with backend_scope("array"), gains.array_namespace_scope(
            "array_api_strict"
        ):
            got = first_fit_schedule(instance, powers).colors
        np.testing.assert_array_equal(got, expected)
