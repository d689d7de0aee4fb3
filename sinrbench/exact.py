"""Backend-free exact SINR feasibility check.

The library's own :meth:`repro.core.schedule.Schedule.validate` answers
from the cached :class:`~repro.core.context.InterferenceContext` of the
process's default backend, so it reports whatever gains that context
holds (possibly pruned) and, for an n=8192 instance, would first build
an O(n^2) dense context.  This module recomputes only the same-color
gain pairs from :meth:`repro.geometry.metric.Metric.loss_block` tiles,
with the elementwise operations of ``repro.core.gains._gain_block``
(``p_j / loss`` with ``x / 0 -> inf`` and a zero diagonal), and compares
margins against :data:`repro.core.feasibility.DEFAULT_RTOL`.  Memory is
one ``(tile_rows, class size)`` block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.feasibility import DEFAULT_RTOL
from repro.core.instance import Direction, Instance

#: Rows of one gain tile.
TILE_ROWS = 512


@dataclass(frozen=True)
class ExactCheck:
    """Verdict of :func:`check_schedule`.

    ``min_margin`` is the smallest SINR margin
    ``signal / (beta * (interference + noise))`` over all requests
    (``inf`` when no request suffers interference or noise).
    """

    feasible: bool
    min_margin: float
    num_colors: int


def _gain_tile(
    instance: Instance,
    powers: np.ndarray,
    endpoint_nodes: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Gains ``G[rows][:, cols]`` at one endpoint, recomputed from the
    metric (shared-node pairs give ``inf``, a request never interferes
    with itself)."""
    metric = instance.metric
    w = endpoint_nodes[rows]
    if instance.direction is Direction.DIRECTED:
        loss = metric.loss_block(w, instance.senders[cols], instance.alpha)
    else:
        loss = np.minimum(
            metric.loss_block(w, instance.senders[cols], instance.alpha),
            metric.loss_block(w, instance.receivers[cols], instance.alpha),
        )
    numerator = np.broadcast_to(powers[cols][None, :], loss.shape)
    gains = np.full(loss.shape, np.inf)
    np.divide(numerator, loss, out=gains, where=loss > 0)
    gains[rows[:, None] == cols[None, :]] = 0.0
    return gains


def exact_margins(
    instance: Instance,
    colors: np.ndarray,
    powers: np.ndarray,
    tile_rows: int = TILE_ROWS,
) -> np.ndarray:
    """SINR margin of every request under the exact same-color gains."""
    colors = np.asarray(colors).reshape(-1)
    powers = np.asarray(powers, dtype=float).reshape(-1)
    n = instance.n
    if colors.shape != (n,) or powers.shape != (n,):
        raise ValueError(
            f"schedule covers {colors.size} colors / {powers.size} powers, "
            f"instance has {n} requests"
        )
    if instance.direction is Direction.DIRECTED:
        endpoints = (instance.receivers,)
    else:
        endpoints = (instance.senders, instance.receivers)
    interference = np.zeros(n)
    for color in np.unique(colors):
        members = np.flatnonzero(colors == color)
        for lo in range(0, members.size, tile_rows):
            rows = members[lo : lo + tile_rows]
            worst = None
            for nodes in endpoints:
                total = _gain_tile(instance, powers, nodes, rows, members).sum(axis=1)
                worst = total if worst is None else np.maximum(worst, total)
            interference[rows] = worst
    signals = powers / instance.link_losses
    denom = instance.beta * (interference + instance.noise)
    margins = np.full(n, np.inf)
    np.divide(signals, denom, out=margins, where=denom > 0)
    margins[np.isinf(interference)] = 0.0
    return margins


def check_schedule(
    instance: Instance,
    colors: np.ndarray,
    powers: np.ndarray,
    rtol: float = DEFAULT_RTOL,
) -> ExactCheck:
    """Exact verdict for one schedule: feasible iff every margin is at
    least ``1 - rtol``."""
    margins = exact_margins(instance, colors, powers)
    return ExactCheck(
        feasible=bool(np.all(margins >= 1.0 - rtol)),
        min_margin=float(margins.min()),
        num_colors=int(np.unique(np.asarray(colors)).size),
    )
