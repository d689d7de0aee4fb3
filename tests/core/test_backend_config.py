"""The frozen :class:`BackendConfig` and its ambient scope.

One value names the gain backend and every setting it reads; fields the
backend ignores do not count for equality, so the context cache and the
:class:`ContextPool` key on the configuration itself.
"""

import threading
from dataclasses import FrozenInstanceError

import pytest

from repro.core.batch import ContextPool
from repro.core.context import clear_context_cache, get_context
from repro.core.gains import BackendConfig, backend_config, use_backend
from repro.instances.random_instances import random_uniform_instance
from repro.power.oblivious import SquareRootPower


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.fixture
def pair():
    instance = random_uniform_instance(10, rng=5)
    return instance, SquareRootPower()(instance)


class TestNormalization:
    def test_ignored_fields_compare_and_hash_equal(self):
        plain = BackendConfig("dense")
        noisy = BackendConfig(
            "dense",
            epsilon=0.2,
            array_namespace="torch",
            device="cuda:0",
            shard_workers=8,
            shard_executor="serial",
        )
        assert noisy == plain
        assert hash(noisy) == hash(plain)
        assert str(noisy) == "dense"
        # The fields keep what was given; only the identity ignores it.
        assert noisy.epsilon == 0.2 and noisy.shard_workers == 8

    def test_canonical_keeps_only_the_backends_settings(self):
        sparse = BackendConfig("sparse", epsilon=0.05, shard_workers=4)
        canon = sparse.canonical()
        assert canon == sparse
        assert (canon.epsilon, canon.shard_workers) == (0.05, 2)
        sharded = BackendConfig(
            "sharded", epsilon=0.05, shard_workers=4, array_namespace="torch"
        ).canonical()
        assert (sharded.epsilon, sharded.shard_workers) == (0.05, 4)
        assert sharded.array_namespace == "numpy"
        array = BackendConfig(
            "array", epsilon=0.05, array_namespace="cupy", device="cpu"
        ).canonical()
        assert (array.epsilon, array.array_namespace) == (0.0, "cupy")
        assert array.device == "cpu"
        dense = BackendConfig("dense", device="cpu", epsilon=0.3).canonical()
        assert (dense.epsilon, dense.device) == (0.0, None)

    def test_ignored_settings_survive_an_override(self):
        ambient = BackendConfig("dense", epsilon=0.05, shard_executor="serial")
        assert ambient.override(backend="sparse") == BackendConfig(
            "sparse", epsilon=0.05
        )
        assert ambient.override(backend="sharded").shard_executor == "serial"

    def test_sparse_storage_property(self):
        assert BackendConfig("sparse").sparse_storage
        assert BackendConfig("sharded").sparse_storage
        assert not BackendConfig("dense").sparse_storage
        assert not BackendConfig("array").sparse_storage

    def test_device_compares_by_string(self):
        class Device:
            def __init__(self, name):
                self.name = name

            def __str__(self):
                return self.name

        a = BackendConfig("array", device=Device("cpu"))
        b = BackendConfig("array", device=Device("cpu"))
        c = BackendConfig("array", device=Device("gpu"))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != BackendConfig("array")

    def test_names_are_case_and_space_normalized(self):
        assert BackendConfig(" Sparse ", shard_executor="SERIAL") == (
            BackendConfig("sparse")
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"backend": "gpu"}, "backend must be one of"),
            ({"epsilon": 1.0}, r"sparse epsilon must be in \[0, 1\)"),
            ({"epsilon": -0.1}, r"sparse epsilon must be in \[0, 1\)"),
            ({"array_namespace": "jax"}, "array namespace must be one of"),
            ({"shard_workers": 0}, "shard workers must be in"),
            ({"shard_executor": "mpi"}, "shard executor must be one of"),
        ],
    )
    def test_every_field_is_validated(self, kwargs, message):
        # Even a field the backend ignores must be a valid value.
        with pytest.raises(ValueError, match=message):
            BackendConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            BackendConfig().backend = "sparse"

    def test_override_skips_none(self):
        base = BackendConfig("sparse", epsilon=0.05)
        assert base.override(backend=None, epsilon=None) == base
        assert base.override(backend="sharded").epsilon == 0.05
        assert base.override(epsilon=0.1).epsilon == 0.1

    def test_canonical_string(self):
        assert str(BackendConfig()) == "dense"
        assert str(BackendConfig("sparse", epsilon=0.05)) == "sparse:eps=0.05"
        assert str(BackendConfig("sparse")) == "sparse:eps=0.0"
        assert str(BackendConfig("array")) == "array:numpy"
        assert str(BackendConfig("array", device="cpu")) == "array:numpy@cpu"
        assert str(
            BackendConfig("sharded", epsilon=0.05, shard_executor="serial")
        ) == "sharded:eps=0.05,workers=2,executor=serial"


class TestCacheKeys:
    def test_ignored_fields_share_one_cached_context(self, pair):
        instance, powers = pair
        a = get_context(instance, powers, config=BackendConfig("dense"))
        b = get_context(
            instance, powers, config=BackendConfig("dense", epsilon=0.3)
        )
        assert a is b
        c = get_context(
            instance, powers, config=BackendConfig("sparse", shard_workers=7)
        )
        d = get_context(instance, powers, config=BackendConfig("sparse"))
        assert c is d
        assert c is not a

    def test_context_reports_the_canonical_config(self, pair):
        instance, powers = pair
        noisy = BackendConfig("dense", epsilon=0.3, shard_workers=5)
        ctx = get_context(instance, powers, config=noisy)
        assert ctx.config == noisy
        assert (ctx.config.epsilon, ctx.config.shard_workers) == (0.0, 2)

    def test_ambient_config_reaches_get_context(self, pair):
        instance, powers = pair
        config = BackendConfig("sparse", epsilon=0.05)
        with use_backend(config):
            ctx = get_context(instance, powers)
        assert ctx.config == config
        assert get_context(instance, powers, config=config) is ctx

    def test_pool_keeps_sharded_settings(self, pair):
        """The pool used to resolve ε only for ``"sparse"`` and to omit
        the shard settings from its key: a sharded pool context came out
        lossless, and pools under different worker counts collided."""
        instance, powers = pair
        config = BackendConfig(
            "sharded", epsilon=0.05, shard_workers=3, shard_executor="serial"
        )
        pool = ContextPool()
        with use_backend(config):
            pooled = pool.get(instance, powers)
            assert pooled.config.epsilon == get_context(
                instance, powers
            ).config.epsilon == 0.05
        assert pooled.config == config
        assert pooled is get_context(instance, powers, config=config)
        for other in (
            config.override(shard_workers=2),
            config.override(shard_executor="process"),
            config.override(epsilon=0.0),
        ):
            again = pool.get(instance, powers, config=other)
            assert again is not pooled
            assert again.config == other
        assert len(pool) == 4

    def test_pool_sharded_context_builds_pruned_shards(self, pair):
        instance, powers = pair
        config = BackendConfig(
            "sharded", epsilon=0.05, shard_workers=2, shard_executor="serial"
        )
        backend = ContextPool().get(instance, powers, config=config).backend
        try:
            assert backend.workers == 2
            assert backend.epsilon == 0.05
            assert not backend.is_lossless
        finally:
            backend.close()


class TestAmbientScope:
    def test_restores_previous_config_after_exception(self):
        before = backend_config()
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend(BackendConfig("sparse", epsilon=0.1)):
                assert backend_config().epsilon == 0.1
                raise RuntimeError("boom")
        assert backend_config() == before

    def test_nested_scopes_unwind_in_order(self):
        before = backend_config()
        with use_backend(BackendConfig("sparse")) as outer:
            with use_backend(BackendConfig("array")):
                assert backend_config().backend == "array"
            assert backend_config() is outer
        assert backend_config() == before

    def test_scope_is_invisible_to_other_threads(self):
        seen = {}
        entered = threading.Event()
        release = threading.Event()

        def other_thread():
            entered.wait(timeout=10)
            seen["other"] = backend_config()
            release.set()

        before = backend_config()
        worker = threading.Thread(target=other_thread)
        worker.start()
        with use_backend(BackendConfig("sparse", epsilon=0.2)):
            entered.set()
            release.wait(timeout=10)
            seen["here"] = backend_config()
        worker.join(timeout=10)
        assert seen["other"] == before
        assert seen["here"] == BackendConfig("sparse", epsilon=0.2)

    def test_rejects_non_config(self):
        with pytest.raises(TypeError, match="BackendConfig"):
            with use_backend("sparse"):
                pass  # pragma: no cover - never entered


class TestProblemConfig:
    def test_keywords_layer_over_the_ambient_config(self, pair):
        from repro.api import Problem

        instance, _ = pair
        with use_backend(BackendConfig("sparse", epsilon=0.05)):
            inherited = Problem(instance)
            sharded = Problem(
                instance, backend="sharded", workers=3, shard_executor="serial"
            )
        assert inherited.config == BackendConfig("sparse", epsilon=0.05)
        assert sharded.config == BackendConfig(
            "sharded", epsilon=0.05, shard_workers=3, shard_executor="serial"
        )

    def test_backend_keyword_picks_up_the_ambient_epsilon(self, pair):
        """A dense ambient default keeps its ε, so ``backend="sparse"``
        on the problem runs at it (as ``REPRO_SPARSE_EPSILON`` with a
        dense ``REPRO_BACKEND`` does)."""
        from repro.api import Problem

        instance, _ = pair
        with use_backend(BackendConfig("dense", epsilon=0.05)):
            problem = Problem(instance, backend="sparse")
        assert problem.config == BackendConfig("sparse", epsilon=0.05)
        result = problem.session().schedule("first_fit")
        assert result.provenance.backend == "sparse"
        assert result.provenance.sparse_epsilon == 0.05

    def test_growth_outside_the_scope_keeps_the_config(self, pair):
        from repro.api import Problem

        instance, _ = pair
        with use_backend(BackendConfig("sparse", epsilon=0.05)):
            session = Problem(instance).session()
            session.schedule("first_fit")
        session.add_requests([(0, 3)])
        assert session.problem.config == BackendConfig("sparse", epsilon=0.05)
        result = session.schedule("first_fit")
        assert result.provenance.backend == "sparse"
        assert result.provenance.sparse_epsilon == 0.05
