"""Environment-variable validation at load time.

Malformed ``REPRO_BACKEND`` / ``REPRO_CONTEXT_CACHE`` /
``REPRO_SPARSE_EPSILON`` / ``REPRO_ARRAY_NAMESPACE`` /
``REPRO_SHARD_WORKERS`` / ``REPRO_SHARD_EXECUTOR`` values must fail
with messages naming the variable and the accepted values — these
parsers run at module import (:meth:`BackendConfig.from_env` seeds the
ambient backend configuration), so a typo surfaces immediately instead
of deep inside ``get_context``.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.core.context import (
    DEFAULT_CONTEXT_CACHE_LIMIT,
    _env_cache_limit,
)
from repro.core.gains import BackendConfig

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_BACKEND_VARS = (
    "REPRO_BACKEND",
    "REPRO_SPARSE_EPSILON",
    "REPRO_ARRAY_NAMESPACE",
    "REPRO_SHARD_WORKERS",
    "REPRO_SHARD_EXECUTOR",
)


@pytest.fixture(autouse=True)
def _clean_backend_env(monkeypatch):
    """Start every test from an unset backend environment (the suite
    itself may run under ``REPRO_BACKEND=...``)."""
    for name in _BACKEND_VARS:
        monkeypatch.delenv(name, raising=False)


def _env_backend():
    return BackendConfig.from_env().backend


def _env_array_namespace():
    return BackendConfig.from_env().array_namespace


def _env_epsilon():
    return BackendConfig.from_env().epsilon


def _env_shard():
    config = BackendConfig.from_env()
    return config.shard_workers, config.shard_executor


class TestContextCacheEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTEXT_CACHE", raising=False)
        assert _env_cache_limit() == DEFAULT_CONTEXT_CACHE_LIMIT

    def test_blank_is_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "   ")
        assert _env_cache_limit() == DEFAULT_CONTEXT_CACHE_LIMIT

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "7")
        assert _env_cache_limit() == 7

    def test_non_integer_names_variable_and_form(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "lots")
        with pytest.raises(ValueError, match="REPRO_CONTEXT_CACHE") as err:
            _env_cache_limit()
        assert "positive integer" in str(err.value)
        assert "'lots'" in str(err.value)

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "0")
        with pytest.raises(ValueError, match=">= 1"):
            _env_cache_limit()


class TestBackendEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert _env_backend() == "dense"

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  Sparse ")
        assert _env_backend() == "sparse"

    def test_array_backend_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "array")
        assert _env_backend() == "array"

    def test_unknown_backend_lists_allowed_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="REPRO_BACKEND") as err:
            _env_backend()
        assert "dense" in str(err.value) and "sparse" in str(err.value)
        assert "array" in str(err.value)


class TestArrayNamespaceEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_NAMESPACE", raising=False)
        assert _env_array_namespace() == "numpy"

    def test_blank_is_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_NAMESPACE", "   ")
        assert _env_array_namespace() == "numpy"

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_NAMESPACE", "  NumPy ")
        assert _env_array_namespace() == "numpy"

    def test_known_namespaces_accepted(self, monkeypatch):
        # Configuration never imports the framework, so names whose
        # packages are absent still validate.
        for name in ("array_api_strict", "torch", "cupy"):
            monkeypatch.setenv("REPRO_ARRAY_NAMESPACE", name)
            assert _env_array_namespace() == name

    def test_unknown_namespace_names_variable_and_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_NAMESPACE", "jax")
        with pytest.raises(ValueError, match="REPRO_ARRAY_NAMESPACE") as err:
            _env_array_namespace()
        message = str(err.value)
        assert "numpy" in message and "torch" in message
        assert "'jax'" in message


class TestSparseEpsilonEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPARSE_EPSILON", raising=False)
        assert _env_epsilon() == 0.0

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "0.25")
        assert _env_epsilon() == 0.25

    def test_non_float_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "tiny")
        with pytest.raises(ValueError, match="REPRO_SPARSE_EPSILON") as err:
            _env_epsilon()
        assert "[0, 1)" in str(err.value)

    def test_out_of_range_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "1.0")
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _env_epsilon()


class TestShardEnv:
    def test_defaults_when_unset(self, monkeypatch):
        assert _env_shard() == (2, "process")

    def test_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "4")
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", " Serial ")
        assert _env_shard() == (4, "serial")

    def test_non_integer_workers_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS") as err:
            _env_shard()
        assert "integer" in str(err.value) and "'many'" in str(err.value)

    def test_workers_out_of_range_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "0")
        with pytest.raises(ValueError, match=r"REPRO_SHARD_WORKERS must be in \[1, "):
            _env_shard()

    def test_unknown_executor_lists_allowed_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "mpi")
        with pytest.raises(ValueError, match="REPRO_SHARD_EXECUTOR") as err:
            _env_shard()
        assert "serial" in str(err.value) and "process" in str(err.value)

    def test_settings_for_other_backends_are_kept(self, monkeypatch):
        """A dense default still carries the env ε and shard settings:
        they do not change its identity, but a later ``--backend`` or
        ``Problem(backend=...)`` override that selects a backend
        reading them picks them up."""
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "4")
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "0.25")
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "serial")
        config = BackendConfig.from_env()
        assert config == BackendConfig("dense")
        assert str(config) == "dense"
        assert config.override(backend="sparse") == BackendConfig(
            "sparse", epsilon=0.25
        )
        assert config.override(backend="sharded") == BackendConfig(
            "sharded", epsilon=0.25, shard_workers=4, shard_executor="serial"
        )


def test_import_time_env_reaches_backend_overrides(tmp_path):
    """The ambient default read at import keeps ``REPRO_SPARSE_EPSILON``
    and ``REPRO_SHARD_EXECUTOR`` under a dense ``REPRO_BACKEND``, so
    ``Problem(backend="sparse")`` runs at the env ε and an executor
    built by name ``None`` is the env one."""
    script = textwrap.dedent(
        """
        from repro.api import Problem
        from repro.instances.random_instances import random_uniform_instance
        from repro.runner.executors import (
            SerialShardExecutor,
            build_shard_executor,
        )

        instance = random_uniform_instance(6, rng=1)
        assert Problem(instance, backend="sparse").config.epsilon == 0.05
        sharded = Problem(instance, backend="sharded").config
        assert (sharded.epsilon, sharded.shard_executor) == (0.05, "serial")
        executor = build_shard_executor(None, 1)
        assert isinstance(executor, SerialShardExecutor), executor
        print("ok")
        """
    )
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in _BACKEND_VARS
    }
    env.update(
        REPRO_BACKEND="dense",
        REPRO_SPARSE_EPSILON="0.05",
        REPRO_SHARD_EXECUTOR="serial",
        PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
