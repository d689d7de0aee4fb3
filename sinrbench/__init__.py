"""The repository's benchmark: three workloads over the SINR scheduler.

``python3 sinrbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON object as the last
line of standard output.  See :mod:`sinrbench.run` for the metrics,
:mod:`sinrbench.workloads` for the workloads, :mod:`sinrbench.exact`
for the exact feasibility check every returned schedule passes through
and :mod:`sinrbench.trace` for the per-layer spans of a traced run.
"""
