#!/usr/bin/env python
"""The distributed data plane in five minutes.

Walks ``repro.distributed`` end to end: block-row gain shards that
never materialize the global matrix, the ``serial`` vs ``process``
shard executors, bit-identity of the sharded first-fit against the
dense reference, self-healing after a SIGKILLed shard worker, and the
genuinely distributed staging of the paper's random-access protocol.

Run:  python examples/distributed_quickstart.py [seed]
"""

import os
import signal
import sys

import numpy as np

from repro import (
    BackendConfig,
    Problem,
    distributed_protocol,
    random_uniform_instance,
)
from repro.distributed import ShardedBackend, shard_bounds
from repro.power.oblivious import SquareRootPower


def main(seed: int = 0) -> None:
    instance = random_uniform_instance(64, rng=seed, direction="directed")
    powers = SquareRootPower()(instance)

    # -- block-row sharding --------------------------------------------
    # Each worker owns one contiguous block of gain-matrix rows; sizes
    # differ by at most one and no process ever holds the full matrix.
    bounds = shard_bounds(instance.n, workers=4)
    print(f"shard bounds for n={instance.n}, W=4: {bounds}")

    # -- sharded first-fit through the unified API ---------------------
    # backend="sharded" + workers/shard_executor; everything else —
    # algorithms, provenance, certification — is unchanged.
    dense = Problem(instance, backend="dense").session().schedule("first_fit")
    sharded = (
        Problem(instance, backend="sharded", workers=4,
                shard_executor="serial")
        .session()
        .schedule("first_fit")
        .validate()
    )
    assert np.array_equal(dense.schedule.colors, sharded.schedule.colors)
    print(f"sharded first-fit: {sharded.num_colors} colors "
          f"(bit-identical to dense), backend="
          f"{sharded.provenance.backend}, "
          f"certified={sharded.provenance.certified}")

    # -- real worker processes + self-healing --------------------------
    # The "process" executor gives every shard its own OS process; a
    # worker that dies is respawned from its deterministic payload and
    # the in-flight call replayed, bit-identical to a run that never
    # failed.
    backend = ShardedBackend.build(
        instance,
        powers,
        BackendConfig("sharded", shard_workers=2, shard_executor="process"),
    )
    try:
        health = backend.worker_health()
        print("worker processes:",
              [(h["pid"], f"{h['peak_rss_mb']:.0f} MB") for h in health])
        reference = backend.dense_u()

        victim = health[0]["pid"]
        os.kill(victim, signal.SIGKILL)
        print(f"SIGKILLed worker {victim} ...")
        assert np.array_equal(reference, backend.dense_u())
        respawned = backend.worker_health()[0]["pid"]
        print(f"... respawned as {respawned}; results bit-identical")
    finally:
        backend.close()

    # -- the distributed random-access protocol (E11) ------------------
    # Node blocks with private RNG streams and backoff state, the
    # parent acting only as the shared channel.  Serial and process
    # stagings are bit-identical.
    schedule, stats = distributed_protocol(
        instance, workers=4, executor="serial", seed=seed
    )
    schedule.validate(instance)
    print(f"protocol: {schedule.num_colors} colors in {stats.slots} slots "
          f"({stats.attempts_per_success:.2f} attempts per success)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
