"""Greedy scheduling baselines (Exp-4).

Processes queries in a chosen order (EDF/FIFO/SJF) and, for each query,
picks the feasible subset with the highest reward — ignoring the queries
still behind it, which is exactly the myopia the DP algorithm fixes.

Serving buffers are tiny, so the search is plain Python over lists
(numpy call overhead would dominate it). A mask's completion time
depends only on the running busy times, not on the query, so it is
recomputed only after a query takes a non-empty mask. The selection is
deterministic: highest reward, then earliest completion (each within
eps), then lowest mask.
"""

from __future__ import annotations

from repro.scheduling.orders import ORDERS
from repro.scheduling.problem import (
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
)

_EPS = 1e-12


class GreedyScheduler:
    """Greedy subset choice under a fixed execution order.

    Args:
        order: ``"edf"``, ``"fifo"`` or ``"sjf"``.
    """

    def __init__(self, order: str = "edf"):
        if order not in ORDERS:
            raise ValueError(
                f"unknown order {order!r}; choose from {sorted(ORDERS)}"
            )
        self.order = order
        self.name = f"greedy+{order}"

    def schedule(self, instance: SchedulingInstance) -> ScheduleResult:
        """Pick the highest-reward feasible subset per query in order."""
        queries = instance.queries
        members = instance.masks.members
        # Mask j completes when mask (j minus its top member) and that
        # member have both finished; max is exact, so order is moot.
        steps = [(j ^ (1 << m[-1]), m[-1]) for j, m in enumerate(members) if m]
        latencies = instance.latencies.tolist()
        # finish[k]: when model k would finish one more task.
        busy = instance.busy_until.tolist()
        finish = [t + latency for t, latency in zip(busy, latencies)]
        completion = _completions(steps, finish)
        now = instance.now
        decisions = []
        total = 0.0
        for i in ORDERS[self.order](queries):
            query = queries[i]
            limit = query.deadline - now + _EPS
            rewards = query.utilities.tolist()
            eligible = [
                j for j in range(1, len(members))
                if completion[j] <= limit and rewards[j] > _EPS
            ]
            best_mask = 0
            if eligible:
                floor = max([rewards[j] for j in eligible]) - _EPS
                contenders = [j for j in eligible if rewards[j] >= floor]
                fastest = min([completion[j] for j in contenders]) + _EPS
                for best_mask in contenders:
                    if completion[best_mask] <= fastest:
                        break
                for k in members[best_mask]:
                    finish[k] += latencies[k]
                completion = _completions(steps, finish)
                total += rewards[best_mask]
            decisions.append(ScheduleDecision(query.query_id, best_mask))
        # Unified accounting: one unit per non-empty subset evaluated.
        work_units = len(queries) * (len(members) - 1)
        return ScheduleResult(decisions, total, work_units)


def _completions(steps, finish):
    """Completion time per mask (index 0, the empty mask, is -inf)."""
    completion = [float("-inf")]
    for rest, top in steps:
        f, r = finish[top], completion[rest]
        completion.append(f if f > r else r)
    return completion
