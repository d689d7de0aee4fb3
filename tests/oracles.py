"""Reference implementations ("oracles") of the scheduling algorithms.

Each production algorithm in ``src/`` has one implementation.  The
oracles here are the from-scratch versions they are checked against:
dense, small, and built only on the public gain builders of
:mod:`repro.core.interference`, so they share no code with
:class:`~repro.core.context.InterferenceContext` or the kernels.

* :func:`sinr_margins` / :func:`is_feasible_subset` — the exact SINR
  constraint, recomputed from fresh gain matrices on every call.
* :func:`first_fit_schedule` — first-fit with per-class running sums.
* :func:`improve_schedule` — local search over a ``feasible(subset)``
  predicate, rebuilding each trial subset.
* :func:`greedy_max_feasible_subset` — the greedy peel, recomputing
  margins every round.

The benchmarks time the reference computations through the same
module: :func:`first_fit_accumulator` (one public
:class:`~repro.core.context.ClassAccumulator` per class),
:func:`improve_schedule` with ``context.is_feasible_subset`` as the
predicate, and :func:`context_peel` (the per-round-rebuild
:meth:`~repro.core.context.InterferenceContext.greedy_max_feasible_subset`).
:func:`swap_peel` runs ``peeling_schedule`` or ``sqrt_coloring`` on
any of the peels by swapping that module's by-name import.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.context import get_context
from repro.core.instance import Direction, Instance
from repro.core.interference import (
    bidirectional_gain_matrices,
    directed_gain_matrix,
    interference,
)
from repro.core.schedule import Schedule, build_schedule


def _default_order(instance: Instance) -> np.ndarray:
    return np.argsort(-instance.link_distances, kind="stable")


def sinr_margins(
    instance: Instance,
    powers: np.ndarray,
    colors: Optional[np.ndarray] = None,
    subset: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    noise: Optional[float] = None,
) -> np.ndarray:
    """``signal / (beta * (interference + noise))`` from fresh gains."""
    beta = instance.beta if beta is None else float(beta)
    noise = instance.noise if noise is None else float(noise)
    powers = np.asarray(powers, dtype=float)
    signals = powers / instance.link_losses
    interf = interference(instance, powers, colors, subset)
    if subset is not None:
        signals = signals[np.asarray(subset, dtype=int)]
    denom = beta * (interf + noise)
    margins = np.full(signals.shape, np.inf)
    np.divide(signals, denom, out=margins, where=denom > 0)
    # inf interference (shared node) must dominate any signal.
    margins[np.isinf(interf)] = 0.0
    return margins


def feasible_subset_mask(
    instance: Instance,
    powers: np.ndarray,
    subset: Sequence[int],
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> np.ndarray:
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        return np.zeros(0, dtype=bool)
    return sinr_margins(instance, powers, subset=subset, beta=beta) >= 1.0 - rtol


def is_feasible_subset(
    instance: Instance,
    powers: np.ndarray,
    subset: Sequence[int],
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> bool:
    return bool(np.all(feasible_subset_mask(instance, powers, subset, beta, rtol)))


def first_fit_schedule(
    instance: Instance,
    powers: np.ndarray,
    order: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> Schedule:
    """First-fit with per-class running interference at each member."""
    beta = instance.beta if beta is None else float(beta)
    powers = np.asarray(powers, dtype=float)
    order = _default_order(instance) if order is None else np.asarray(order, dtype=int)
    if instance.direction is Direction.DIRECTED:
        gains_u = gains_v = directed_gain_matrix(instance, powers)
    else:
        gains_u, gains_v = bidirectional_gain_matrices(instance, powers)
    budget = powers / instance.link_losses / beta - instance.noise
    if np.any(budget < 0):
        raise ValueError("a request cannot satisfy its SINR constraint alone")
    tolerance = 1.0 + rtol

    # Per class: [members, interference at each member (u), (v)].
    classes: List[list] = []
    colors = np.full(instance.n, -1, dtype=int)
    for req in order:
        for color, (members, int_u, int_v) in enumerate(classes):
            new_u = float(np.sum(gains_u[req, members]))
            new_v = float(np.sum(gains_v[req, members]))
            if max(new_u, new_v) > budget[req] * tolerance:
                continue
            member_arr = np.asarray(members)
            add_u = gains_u[member_arr, req]
            add_v = gains_v[member_arr, req]
            limits = budget[member_arr] * tolerance
            if np.any(int_u + add_u > limits) or np.any(int_v + add_v > limits):
                continue
            classes[color] = [
                members + [int(req)],
                np.append(int_u + add_u, new_u),
                np.append(int_v + add_v, new_v),
            ]
            colors[req] = color
            break
        else:
            classes.append([[int(req)], np.zeros(1), np.zeros(1)])
            colors[req] = len(classes) - 1
    return build_schedule(colors, powers)


def first_fit_accumulator(
    instance: Instance,
    powers: np.ndarray,
    order: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
) -> Schedule:
    """First-fit scanning one public ``ClassAccumulator`` per class (the
    per-class reference of :class:`~repro.core.kernels.ScheduleKernel`)."""
    beta = instance.beta if beta is None else float(beta)
    powers = np.asarray(powers, dtype=float)
    order = _default_order(instance) if order is None else np.asarray(order, dtype=int)
    context = get_context(instance, powers)
    backend = context.backend
    budget = context.budgets(beta=beta)
    tolerance = 1.0 + rtol

    classes = []
    colors = np.full(instance.n, -1, dtype=int)
    for req in order:
        col_u = backend.col_u(int(req))
        col_v = col_u if context.directed else backend.col_v(int(req))
        for color, acc in enumerate(classes):
            members = acc.members
            # One resolution pass covers the candidate (last entry) and
            # every member.
            int_u, int_v = acc.interference_parts(np.append(members, req))
            if max(float(int_u[-1]), float(int_v[-1])) > budget[req] * tolerance:
                continue
            limits = budget[members] * tolerance
            if np.any(int_u[:-1] + col_u[members] > limits):
                continue
            if np.any(int_v[:-1] + col_v[members] > limits):
                continue
            acc.add(int(req))
            colors[req] = color
            break
        else:
            classes.append(context.accumulator(members=[int(req)], beta=beta))
            colors[req] = len(classes) - 1
    return build_schedule(colors, powers)


def improve_schedule(
    instance: Instance,
    schedule: Schedule,
    feasible: Optional[Callable[[np.ndarray], bool]] = None,
    beta: Optional[float] = None,
    max_rounds: Optional[int] = None,
) -> Schedule:
    """Local search: dissolve the smallest class whose members all fit
    elsewhere, re-checking each trial subset with ``feasible(subset)``
    (default: the from-scratch :func:`is_feasible_subset`)."""
    powers = schedule.powers
    if feasible is None:

        def feasible(subset):
            return is_feasible_subset(instance, powers, subset, beta=beta)

    colors = schedule.compacted().colors.copy()
    if max_rounds is None:
        max_rounds = int(np.unique(colors).size)
    for _ in range(max_rounds):
        sizes = {c: int(np.sum(colors == c)) for c in np.unique(colors)}
        if len(sizes) <= 1:
            break
        for victim in sorted(sizes, key=lambda c: (sizes[c], c)):
            if _try_empty_class(colors, victim, feasible):
                break
        else:
            break
        _, colors = np.unique(colors, return_inverse=True)
    return build_schedule(colors, powers)


def _try_empty_class(colors: np.ndarray, victim: int, feasible) -> bool:
    """Move every member of *victim* into the first class that stays
    feasible, or roll all moves back."""
    snapshot = colors.copy()
    targets = [c for c in np.unique(colors) if c != victim]
    target_members = {c: np.flatnonzero(colors == c) for c in targets}
    for request in np.flatnonzero(colors == victim):
        for target in targets:
            if feasible(np.append(target_members[target], request)):
                colors[request] = target
                current = target_members[target]
                target_members[target] = np.insert(
                    current, np.searchsorted(current, request), request
                )
                break
        else:
            colors[:] = snapshot
            return False
    return True


def greedy_max_feasible_subset(
    instance: Instance,
    powers: np.ndarray,
    candidates: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
    context=None,
) -> np.ndarray:
    """Peel the worst margin until feasible, then re-add what fits.

    *context* is accepted (and ignored) so this can stand in for
    :func:`repro.analysis.capacity.greedy_max_feasible_subset`.
    """
    current = list(range(instance.n)) if candidates is None else [int(i) for i in candidates]
    powers = np.asarray(powers, dtype=float)
    dropped: list = []
    while current:
        subset = np.asarray(current, dtype=int)
        if np.all(feasible_subset_mask(instance, powers, subset, beta, rtol)):
            break
        margins = sinr_margins(instance, powers, subset=subset, beta=beta)
        dropped.append(current.pop(int(np.argmin(margins))))
    for req in reversed(dropped):
        trial = np.asarray(current + [req], dtype=int)
        if np.all(feasible_subset_mask(instance, powers, trial, beta, rtol)):
            current.append(req)
    return np.asarray(sorted(current), dtype=int)


def context_peel(
    instance: Instance,
    powers: np.ndarray,
    candidates: Optional[Sequence[int]] = None,
    beta: Optional[float] = None,
    rtol: float = 1e-9,
    context=None,
) -> np.ndarray:
    """The per-round-rebuild peel on the cached gains."""
    if context is None:
        context = get_context(instance, powers)
    return context.greedy_max_feasible_subset(candidates=candidates, beta=beta, rtol=rtol)


@contextmanager
def swap_peel(module, peel) -> Iterator[None]:
    """Run *module*'s ``greedy_max_feasible_subset`` calls on *peel*."""
    original = module.greedy_max_feasible_subset
    module.greedy_max_feasible_subset = peel
    try:
        yield
    finally:
        module.greedy_max_feasible_subset = original
