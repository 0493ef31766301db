"""The three engine-ledger workloads.

Each workload has an offline phase (synthetic tables or a trained
task setup), a seeded input generator, a server builder and a serve
call. The workload seed reaches the program only through the inputs
it generates: arrival trace, per-query pool samples and, on
``dp_day``, the fault plan's seed.

* ``fleet_day`` — static 4-shard ``FleetServer``, power-of-two router,
  unlimited queue, greedy-EDF fast-path policy over the synthetic
  3-model fleet task; untraced. Exercises greedy call overhead,
  ``SchedulingInstance`` validation on small buffers, the reliable
  event loop and the fleet front end.
* ``dp_day`` — one ``EnsembleServer`` on the trained
  ``text_matching``/``small`` setup, Schemble policy with the exact DP
  (delta 0.01), day trace at 10x its default base rate, seeded
  ``FaultPlan`` (jitter, stragglers, transient failures) with a task
  timeout and one retry; untraced. The DP and the fault-mode event
  loop do the work; training dominates set-up.
* ``control_live`` — the controlled 4-shard fleet (queue limit 32,
  100 ms deadline, the control bench's ``ControlConfig``) under a
  span-keeping ``RecordingTracer`` with a ``LiveTelemetry`` plane at
  1 s cadence: the ``repro control --live`` shape. Observability and
  control do most of the work, and memory grows with the day length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control import ControlConfig
from repro.experiments.fleet import (
    fleet_workload,
    make_fleet_policy,
    synthetic_fleet_setup,
)
from repro.experiments.runner import RunSpec, make_workload, resolve_policy
from repro.experiments.setups import _cached_setup, build_setup
from repro.experiments.trace_segments import make_day_trace
from repro.faults import FaultPlan
from repro.fleet.config import FleetConfig
from repro.fleet.server import FleetResult, FleetServer
from repro.obs import LiveConfig, LiveTelemetry, RecordingTracer
from repro.obs.slo import SLOConfig
from repro.serving.config import ServerConfig
from repro.serving.records import ServingResult
from repro.serving.server import EnsembleServer

from layers import SpanLog, router_proxy, scheduler_proxy

N_SHARDS = 4

# fleet_day: the BENCH_fleet routing regime (power-of-two, unlimited
# queue, 60 ms deadline) at base rate 60 q/s. At 40 q/s only ~0.1% of
# queries miss, a rare-event count that swings 10x between seeds and
# can reach 0; at 60 q/s ~12% miss and the figure is steady.
FLEET_BASE_RATE = 60.0
FLEET_DEADLINE = 0.06
FLEET_DURATION = 60.0

# dp_day: the task's day trace at 10x its default base rate, served at
# the tightest grid deadline.
DP_TASK = "text_matching"
DP_PRESET = "small"
DP_RATE_SCALE = 10.0
DP_DURATION = 240.0
DP_TASK_TIMEOUT = 0.15
DP_MAX_RETRIES = 1

# control_live: the BENCH_control day (base 40 q/s, 100 ms deadline,
# queue limit 32) compressed to 90 s, which keeps a single run's span
# store near 300 MiB.
CONTROL_BASE_RATE = 40.0
CONTROL_DEADLINE = 0.1
CONTROL_DURATION = 90.0
CONTROL_QUEUE_LIMIT = 32
LIVE_CADENCE = 1.0


def control_config() -> ControlConfig:
    """The control bench's tuning (benchmarks/bench_control_loop.py),
    frozen here so the benchmark does not move when that bench does."""
    return ControlConfig(
        interval=1.0,
        warmup=2.0,
        max_extra_replicas=16,
        scale_up_burn=2.0,
        scale_down_burn=0.1,
        cooldown=5.0,
        seed=0,
        slo=SLOConfig(
            miss_target=0.05,
            windows=(20.0, 120.0),
            alert_window=20.0,
            breach_burn=2.0,
            recover_burn=1.0,
            min_events=20,
        ),
    )


@dataclass
class Offline:
    """What the offline phase hands to the serving side."""

    latencies: np.ndarray
    quality: np.ndarray
    policy: object
    setup: object = None


@dataclass
class Inputs:
    """One seed's generated inputs."""

    workload: object
    config: object


@dataclass
class Outcome:
    """What one serve call produced."""

    result: ServingResult  # records in global query order
    fleet: Optional[FleetResult] = None
    tracer: Optional[RecordingTracer] = None
    lives: tuple = ()


def _traced_policy(policy, log: Optional[SpanLog]):
    if log is None:
        return policy
    return policy.with_scheduler(scheduler_proxy(policy.scheduler, log))


def _fleet_offline() -> Offline:
    latencies, quality, scores = synthetic_fleet_setup(seed=0)
    return Offline(latencies, quality, make_fleet_policy(quality, scores))


class FleetDay:
    name = "fleet_day"

    def offline(self) -> Offline:
        return _fleet_offline()

    def inputs(self, offline: Offline, seed: int) -> Inputs:
        workload = fleet_workload(
            offline.quality, base_rate=FLEET_BASE_RATE,
            duration=FLEET_DURATION, deadline=FLEET_DEADLINE, seed=seed,
        )
        config = FleetConfig.uniform(
            N_SHARDS, ServerConfig(), router="power_of_two",
            queue_limit=10 ** 6, seed=0,
        )
        return Inputs(workload, config)

    def build(self, offline: Offline, inputs: Inputs, log=None):
        fleet = FleetServer.from_config(
            offline.latencies, _traced_policy(offline.policy, log),
            inputs.config,
        )
        if log is not None:
            fleet.router = router_proxy(fleet.router, log)
        return fleet

    def serve(self, fleet, inputs: Inputs) -> Outcome:
        result = fleet.run(inputs.workload)
        return Outcome(result.merged, fleet=result)


class DPDay:
    name = "dp_day"

    def offline(self) -> Offline:
        # build_setup memoises per process; clear it so every set-up
        # repetition trains from scratch.
        _cached_setup.cache_clear()
        setup = build_setup(DP_TASK, DP_PRESET, seed=0)
        policy = resolve_policy(setup, RunSpec(scheduler="dp"))
        return Offline(setup.latencies, setup.quality, policy, setup)

    def inputs(self, offline: Offline, seed: int) -> Inputs:
        setup = offline.setup
        # make_day_trace's default base rate puts the burst peak at
        # 2.5x the slowest model's service rate; scale that.
        base_rate = DP_RATE_SCALE * 2.5 / (24.0 * float(setup.latencies.max()))
        trace = make_day_trace(
            setup, duration=DP_DURATION, base_rate=base_rate, seed=seed,
        )
        workload = make_workload(
            setup, trace, deadline=min(setup.deadline_grid), seed=seed + 1,
        )
        plan = FaultPlan(
            seed=seed + 2,
            latency_jitter=0.1,
            straggler_prob=0.02,
            task_failure_rate=0.05,
        )
        config = ServerConfig(
            faults=plan, task_timeout=DP_TASK_TIMEOUT,
            max_retries=DP_MAX_RETRIES,
        )
        return Inputs(workload, config)

    def build(self, offline: Offline, inputs: Inputs, log=None):
        return EnsembleServer.from_config(
            offline.latencies, _traced_policy(offline.policy, log),
            inputs.config,
        )

    def serve(self, server, inputs: Inputs) -> Outcome:
        return Outcome(server.run(inputs.workload))


class ControlLive:
    name = "control_live"

    def offline(self) -> Offline:
        return _fleet_offline()

    def inputs(self, offline: Offline, seed: int) -> Inputs:
        workload = fleet_workload(
            offline.quality, base_rate=CONTROL_BASE_RATE,
            duration=CONTROL_DURATION, deadline=CONTROL_DEADLINE, seed=seed,
        )
        config = FleetConfig.uniform(
            N_SHARDS, ServerConfig(), router="power_of_two",
            queue_limit=CONTROL_QUEUE_LIMIT, seed=0,
            control=control_config(),
        )
        return Inputs(workload, config)

    def build(self, offline: Offline, inputs: Inputs, log=None):
        live = LiveTelemetry(LiveConfig(cadence=LIVE_CADENCE), source="fleet")
        fleet = FleetServer.from_config(
            offline.latencies, _traced_policy(offline.policy, log),
            inputs.config, tracer=RecordingTracer(live=live),
        )
        if log is not None:
            fleet.router = router_proxy(fleet.router, log)
        return fleet

    def serve(self, fleet, inputs: Inputs) -> Outcome:
        result = fleet.run(inputs.workload)
        tracer = fleet.tracer
        return Outcome(
            result.merged, fleet=result, tracer=tracer,
            lives=(tracer.live, *fleet.shard_lives),
        )


WORKLOADS = {w.name: w for w in (FleetDay, DPDay, ControlLive)}
