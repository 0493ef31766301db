"""A fixed reference workload that measures the host's speed.

The host this benchmark runs on is shared, and its speed drifts: the
same serve can take twice the CPU time for minutes on end. The run
times :func:`reference_pass` next to its serves and set-ups and divides
their times by the reference's, so that a metric moves with the
program and not with the host.

The pass is the benchmark's own code and calls nothing in ``repro``:
a change to the program cannot change it. It does the kind of work
the simulator does, interpreted Python over a heap of small objects,
dict updates, list sorting and numpy calls on tiny arrays, so that a
host phase slows it by about as much as it slows a serve.
"""

from __future__ import annotations

import heapq

import numpy as np

ROUNDS = 3000
# Jobs pushed per round, and the heap size each round drains to.
FANOUT = 8
BACKLOG = 32


class _Job:
    __slots__ = ("t", "key", "cost")

    def __init__(self, t: float, key: int, cost: float):
        self.t = t
        self.key = key
        self.cost = cost


def reference_pass() -> float:
    """One pass of the reference workload; returns a checksum."""
    costs = np.random.default_rng(12345).random((ROUNDS, 4))
    heap = []
    totals = {}
    done = []
    acc = 0.0
    for i in range(ROUNDS):
        row = costs[i]
        acc += float(row[int(np.argmin(row))]) + float(row.sum())
        for k in range(FANOUT):
            job = _Job(i + k / FANOUT, (i * 7 + k) & 511, acc)
            heapq.heappush(heap, (job.t, i, k, job))
        while len(heap) > BACKLOG:
            job = heapq.heappop(heap)[3]
            totals[job.key] = totals.get(job.key, 0.0) + job.cost
            done.append(job.key)
        if i % 256 == 0:
            done.sort()
            done.clear()
    return acc + sum(totals.values())
