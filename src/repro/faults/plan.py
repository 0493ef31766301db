"""Deterministic fault plans for the serving simulator.

The paper's serving model (Section V) assumes perfectly reliable
workers whose availability is exactly predictable. A production
ensemble server sees the opposite: latency jitter, stragglers,
transient task failures and workers that crash and come back. A
:class:`FaultPlan` describes that behaviour as data — a frozen,
seedable specification the server turns into a
:class:`~repro.faults.injector.FaultInjector` at run start — so a
faulty run is exactly reproducible: the same plan and the same
workload always produce the same failures, the same retries and the
same degraded answers (the CI determinism check relies on this).

A default-constructed plan is *null*: it injects nothing. The server
runs one event loop for every config, and under a null plan the
injector draws no random numbers and returns every base latency
unchanged, so the run is exactly the paper's reliable serving model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class DowntimeWindow:
    """One crash/recover interval of one worker.

    The worker is unavailable during ``[start, end)``: a task executing
    at ``start`` is killed, queued tasks are revoked for failover, and
    the worker accepts work again at ``end``.
    """

    worker: int
    start: float
    end: float

    def __post_init__(self):
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"end {self.end} must be after start {self.start}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Seedable description of every fault the server should inject.

    Attributes:
        seed: Root seed of the per-run fault RNG. Two runs with the same
            plan, workload and server config are identical event for
            event.
        latency_jitter: Sigma of the lognormal multiplier applied to
            every task's service time (0 disables jitter; the multiplier
            has median 1, so jitter skews slow — the empirical shape of
            inference tail latency).
        straggler_prob: Probability a task becomes a straggler.
        straggler_factor: Service-time multiplier for stragglers (must
            be >= 1).
        task_failure_rate: Probability a task fails transiently: the
            worker is occupied for the full service time but produces no
            output (lost result, OOM, poisoned input...).
        downtime: Explicit per-worker crash windows. Use
            :meth:`with_random_crashes` to generate these from a rate.
    """

    seed: int = 0
    latency_jitter: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    task_failure_rate: float = 0.0
    downtime: Tuple[DowntimeWindow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_positive("latency_jitter", self.latency_jitter, allow_zero=True)
        check_in_range("straggler_prob", self.straggler_prob, 0.0, 1.0)
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        check_in_range(
            "task_failure_rate", self.task_failure_rate, 0.0, 1.0
        )
        object.__setattr__(self, "downtime", tuple(self.downtime))
        for window in self.downtime:
            if not isinstance(window, DowntimeWindow):
                raise TypeError(
                    f"downtime entries must be DowntimeWindow, got "
                    f"{type(window).__name__}"
                )

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.latency_jitter == 0.0
            and self.straggler_prob == 0.0
            and self.task_failure_rate == 0.0
            and not self.downtime
        )

    def windows_for(self, worker: int) -> Tuple[DowntimeWindow, ...]:
        """This worker's crash windows, sorted by start time."""
        return tuple(sorted(
            (w for w in self.downtime if w.worker == worker),
            key=lambda w: w.start,
        ))

    def with_random_crashes(
        self,
        n_workers: int,
        duration: float,
        crash_rate: float,
        mean_downtime: float,
        seed: int = 0,
    ) -> "FaultPlan":
        """A copy of this plan with Poisson crash windows added.

        Each worker crashes as a Poisson process of ``crash_rate``
        events per second over ``[0, duration]``; each outage lasts an
        exponential time with mean ``mean_downtime``. Overlapping
        windows are merged. The generation is a pure function of the
        arguments and ``seed``.
        """
        check_positive("duration", duration)
        check_positive("crash_rate", crash_rate, allow_zero=True)
        check_positive("mean_downtime", mean_downtime)
        rng = np.random.default_rng(seed)
        windows = list(self.downtime)
        for worker in range(n_workers):
            t = 0.0
            last_end = 0.0
            while True:
                t += float(rng.exponential(1.0 / crash_rate)) if crash_rate else np.inf
                if t >= duration:
                    break
                start = max(t, last_end)
                end = start + float(rng.exponential(mean_downtime))
                windows.append(DowntimeWindow(worker, start, end))
                last_end = end
                t = max(t, end)
        from dataclasses import replace

        return replace(self, downtime=tuple(windows))


def crash_windows(
    workers: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> Tuple[DowntimeWindow, ...]:
    """Convenience constructor for explicit downtime tuples."""
    if not (len(workers) == len(starts) == len(ends)):
        raise ValueError("workers, starts and ends must share length")
    return tuple(
        DowntimeWindow(int(w), float(s), float(e))
        for w, s, e in zip(workers, starts, ends)
    )
