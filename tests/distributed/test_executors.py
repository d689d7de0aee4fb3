"""Unit tests for the ShardExecutor abstraction (serial + process)."""

import hashlib
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.resilience import RetryPolicy
from repro.runner.executors import (
    SHARD_EXECUTORS,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutorError,
    build_shard_executor,
)


class Counter:
    """Tiny deterministic actor used across the executor tests."""

    def __init__(self, payload):
        self.base = int(payload)

    def add(self, x):
        return self.base + int(x)

    def pid(self):
        return os.getpid()

    def boom(self):
        raise ValueError("deterministic actor error")

    def die(self):
        os.kill(os.getpid(), signal.SIGKILL)


def _counter_factory(payload):
    return Counter(payload)


def _bad_factory(payload):
    raise ValueError(f"bad shard payload: {payload!r}")


class Sleeper(Counter):
    """Counter whose build sleeps, recording when it ran."""

    def __init__(self, payload):
        seconds, base = payload
        start = time.time()
        time.sleep(seconds)
        super().__init__(base)
        self.window = (start, time.time())

    def build_window(self):
        return self.window


def _sleepy_factory(payload):
    return Sleeper(payload)


def _die_once_factory(payload):
    """Kill the building process the first time a marker path is seen."""
    marker, base = payload
    if marker is not None and not os.path.exists(marker):
        pathlib.Path(marker).touch()
        os._exit(3)
    return Counter(base)


def _record_then_die_once_factory(payload):
    """Log the payload each build attempt received (pid, digest, base);
    the first attempt is SIGKILLed after logging, mid-build."""
    log, blob, base = payload
    if log is not None:
        with open(log, "a") as fh:
            digest = hashlib.sha256(blob).hexdigest()
            fh.write(f"{os.getpid()} {digest} {base}\n")
        with open(log) as fh:
            if len(fh.readlines()) == 1:
                os.kill(os.getpid(), signal.SIGKILL)
    return Counter(base)


def _always_die_factory(payload):
    os._exit(3)


def _fail_first_factory(payload):
    """Worker 0's build raises; the others build slowly."""
    worker, seconds = payload
    if worker == 0:
        raise ValueError("bad shard payload for worker 0")
    time.sleep(seconds)
    return Counter(worker)


def _live_shard_children():
    return [
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-shard-")
    ]


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("not picklable")


class TestSerialExecutor:
    def test_call_broadcast_scatter_order(self):
        with SerialShardExecutor(3) as ex:
            ex.start(_counter_factory, [10, 20, 30])
            assert ex.call(1, "add", 5) == 25
            assert ex.broadcast("add", 1) == [11, 21, 31]
            assert ex.scatter("add", [(1,), (2,), (3,)]) == [11, 22, 33]

    def test_payload_count_validated(self):
        ex = SerialShardExecutor(2)
        with pytest.raises(ValueError, match="one payload per worker"):
            ex.start(_counter_factory, [1])

    def test_double_start_rejected(self):
        ex = SerialShardExecutor(1)
        ex.start(_counter_factory, [0])
        with pytest.raises(RuntimeError, match="already started"):
            ex.start(_counter_factory, [0])

    def test_call_before_start_rejected(self):
        with pytest.raises(RuntimeError, match="not started"):
            SerialShardExecutor(1).call(0, "add", 1)

    def test_actor_error_propagates(self):
        ex = SerialShardExecutor(1)
        ex.start(_counter_factory, [0])
        with pytest.raises(ValueError, match="deterministic actor error"):
            ex.call(0, "boom")

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            SerialShardExecutor(0)


class TestBuildShardExecutor:
    def test_names(self):
        assert build_shard_executor("serial", 2).workers == 2
        proc = build_shard_executor("process", 2)
        assert isinstance(proc, ProcessShardExecutor)
        proc.close()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="shard executor"):
            build_shard_executor("mpi", 2)

    def test_registry_constant_matches_gains_copy(self):
        from repro.core.gains import SHARD_EXECUTORS as gains_names

        assert tuple(SHARD_EXECUTORS) == tuple(gains_names)

    def test_none_resolves_process_default(self):
        from repro.core.gains import BackendConfig, use_backend

        with use_backend(BackendConfig("sharded", shard_executor="serial")):
            assert isinstance(build_shard_executor(None, 1), SerialShardExecutor)


class TestProcessExecutor:
    def test_calls_run_in_real_processes(self):
        with ProcessShardExecutor(2) as ex:
            ex.start(_counter_factory, [100, 200])
            assert ex.broadcast("add", 7) == [107, 207]
            pids = ex.broadcast("pid")
            assert len(set(pids)) == 2
            assert os.getpid() not in pids

    def test_scatter_order_and_results(self):
        with ProcessShardExecutor(2) as ex:
            ex.start(_counter_factory, [1, 2])
            assert ex.scatter("add", [(10,), (20,)]) == [11, 22]

    def test_actor_error_propagates_without_respawn(self):
        with ProcessShardExecutor(1) as ex:
            ex.start(_counter_factory, [0])
            pid = ex.call(0, "pid")
            with pytest.raises(ShardExecutorError, match="ValueError") as info:
                ex.call(0, "boom")
            assert info.value.failure.shard_index == 0
            assert info.value.failure.error_type == "ValueError"
            # Same process is still serving: no respawn happened.
            assert ex.call(0, "pid") == pid

    def test_sigkill_respawns_and_replays(self):
        with ProcessShardExecutor(2) as ex:
            ex.start(_counter_factory, [10, 20])
            victim = ex.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            # The dead worker is respawned from its payload mid-call.
            assert ex.broadcast("add", 1) == [11, 21]
            assert ex.worker_pids()[1] != victim

    def test_suicide_inside_call_is_replayed(self):
        with ProcessShardExecutor(1) as ex:
            ex.start(_counter_factory, [5])
            with pytest.raises(ShardExecutorError, match="retry budget"):
                # `die` kills the worker during every replay, so the
                # budget must eventually exhaust with a ShardFailure.
                ex.call(0, "die")

    def test_retry_budget_recorded_in_failure(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessShardExecutor(1, retry=retry) as ex:
            ex.start(_counter_factory, [5])
            with pytest.raises(ShardExecutorError) as info:
                ex.call(0, "die")
            assert info.value.failure.attempts == 2
            assert info.value.failure.key == "die"

    def test_build_error_surfaces_without_retry(self):
        ex = ProcessShardExecutor(1)
        with pytest.raises(ShardExecutorError, match="failed to build"):
            ex.start(_bad_factory, [17])
        ex.close()

    def test_unpicklable_payload_fails_start(self):
        ex = ProcessShardExecutor(1)
        with pytest.raises(Exception):
            ex.start(_counter_factory, [_Unpicklable()])
        ex.close()

    def test_close_idempotent_and_kills_workers(self):
        ex = ProcessShardExecutor(2)
        ex.start(_counter_factory, [0, 1])
        pids = ex.worker_pids()
        ex.close()
        ex.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(RuntimeError, match="closed"):
            ex.call(0, "add", 1)


class TestProcessExecutorStart:
    def test_builds_overlap(self):
        def timed_start(workers):
            with ProcessShardExecutor(workers) as ex:
                t0 = time.perf_counter()
                ex.start(_sleepy_factory, [(1.0, k) for k in range(workers)])
                elapsed = time.perf_counter() - t0
                return elapsed, ex.broadcast("build_window")

        one, _ = timed_start(1)
        two, windows = timed_start(2)
        (start0, end0), (start1, end1) = windows
        # Both actors were building at the same time, and starting two
        # took well under two back-to-back one-worker starts.
        assert max(start0, start1) < min(end0, end1)
        assert two < 1.5 * one, (one, two)

    def test_worker_dying_mid_build_is_respawned(self, tmp_path):
        marker = tmp_path / "worker-1-died"
        with ProcessShardExecutor(2) as ex:
            ex.start(_die_once_factory, [(None, 10), (str(marker), 20)])
            assert marker.exists()  # the first build attempt did die
            assert ex.broadcast("add", 1) == [11, 21]
            pids = ex.broadcast("pid")
            assert pids == ex.worker_pids()

    def test_worker_killed_mid_build_rebuilds_from_the_same_payload(
        self, tmp_path
    ):
        # The payload is larger than a pipe buffer, so it travels as a
        # build message after the launch — and is sent again, whole, to
        # the relaunched worker.
        log = tmp_path / "worker-1-builds"
        blob = bytes(range(256)) * 4096
        with ProcessShardExecutor(2) as ex:
            ex.start(
                _record_then_die_once_factory,
                [(None, blob, 10), (str(log), blob, 20)],
            )
            builds = [line.split() for line in log.read_text().splitlines()]
            assert len(builds) == 2
            (pid0, digest0, base0), (pid1, digest1, base1) = builds
            assert pid0 != pid1  # a fresh process built the second time
            assert digest0 == digest1 == hashlib.sha256(blob).hexdigest()
            assert base0 == base1 == "20"
            assert ex.broadcast("add", 1) == [11, 21]
            assert ex.worker_pids()[1] == int(pid1)

    def test_build_deaths_exhaust_the_retry_budget(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        ex = ProcessShardExecutor(2, retry=retry)
        with pytest.raises(ShardExecutorError, match="died while building") as info:
            ex.start(_always_die_factory, [0, 1])
        assert info.value.failure.shard_index == 0
        assert info.value.failure.attempts == 2
        assert _live_shard_children() == []

    def test_build_error_names_worker_and_leaves_no_child(self):
        ex = ProcessShardExecutor(2)
        t0 = time.perf_counter()
        with pytest.raises(ShardExecutorError, match="worker 0 failed to build") as info:
            # Worker 1 would build for a minute: the failed start must
            # kill it rather than wait for it.
            ex.start(_fail_first_factory, [(0, 0.0), (1, 60.0)])
        assert time.perf_counter() - t0 < 30.0
        assert info.value.failure.shard_index == 0
        assert info.value.failure.error_type == "ValueError"
        assert _live_shard_children() == []
        assert ex.worker_pids() == [-1, -1]
