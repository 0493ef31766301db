"""Frozen numpy greedy scheduler — the parity oracle for
:class:`repro.scheduling.greedy.GreedyScheduler`.

This is the mask-grid-vectorized greedy the scalar implementation
replaced, kept verbatim as a test-only reference: per query it builds
the completion vector over every mask with numpy, then applies the
deterministic tie-break (highest reward within eps, then earliest
completion within eps, then lowest mask). Not collected by pytest (no
``test_`` prefix); never imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.orders import ORDERS
from repro.scheduling.problem import (
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
)

_EPS = 1e-12


def oracle_greedy(
    instance: SchedulingInstance, order: str = "edf"
) -> ScheduleResult:
    """The numpy greedy plan for ``instance`` under ``order``."""
    if instance.n_queries == 0:
        return ScheduleResult(decisions=[], total_utility=0.0, work_units=0)

    indices = ORDERS[order](instance.queries)
    queries = [instance.queries[i] for i in indices]
    n_masks = 1 << instance.n_models
    membership = instance.mask_membership  # (n_masks, m) bool
    increments = instance.mask_increments  # (n_masks, m) float
    masks = np.arange(n_masks)
    times = instance.busy_until.astype(float, copy=True)

    decisions = []
    total = 0.0
    work_units = instance.n_queries * (n_masks - 1)
    for query in queries:
        relative_deadline = query.deadline - instance.now
        completion = np.where(
            membership, times[None, :] + increments, -np.inf
        ).max(axis=1)  # (n_masks,); mask 0 -> -inf
        rewards = query.utilities
        eligible = (
            (masks > 0)
            & (completion <= relative_deadline + _EPS)
            & (rewards > _EPS)
        )
        best_mask = 0
        if np.any(eligible):
            contenders = rewards >= rewards[eligible].max() - _EPS
            contenders &= eligible
            fastest = completion[contenders].min()
            contenders &= completion <= fastest + _EPS
            best_mask = int(masks[contenders][0])
        if best_mask:
            times = times + increments[best_mask]
            total += float(rewards[best_mask])
        decisions.append(
            ScheduleDecision(query_id=query.query_id, mask=best_mask)
        )
    return ScheduleResult(
        decisions=decisions, total_utility=total, work_units=work_units
    )
