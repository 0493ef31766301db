"""Golden digests of the serving event loop.

Every case below serves a small deterministic workload and hashes what
the run produced: the per-query records, the :class:`ServingResult`
counters (not ``scheduler_wall_time``, which is host time) and, for a
controlled fleet, the canonical ``ControlLog``. The traced cases also
hash the span stream, minus the ``dispatch``/``queue_wait`` spans and
every ``wall_s`` attribute (task-start spans and host timings are not
part of the contract these digests pin); two of them run on dyadic
latencies, where same-instant task completions are common, so they pin
the order in which such ties resolve.

The digests were recorded before the reliable and faulty event loops
were merged into one, so they pin that the merge changed no outcome.
A deliberate behaviour change must re-record them; print the current
values with::

    PYTHONPATH=src python tests/serving/test_loop_parity.py
"""

import hashlib

import numpy as np
import pytest

from repro.control import ControlConfig
from repro.faults import DowntimeWindow, FaultPlan
from repro.fleet import FleetConfig, FleetServer
from repro.obs import spans as sp
from repro.obs.slo import SLOConfig
from repro.obs.tracer import RecordingTracer
from repro.scheduling.dp import DPScheduler
from repro.scheduling.greedy import GreedyScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy, ImmediateMaskPolicy
from repro.serving.server import EnsembleServer, WorkerSpec
from repro.serving.workload import ServingWorkload

LATENCIES = [0.010, 0.022, 0.045]
N_POOL = 64
M = len(LATENCIES)

# Dyadic latencies and arrival grid: sums are exact in binary floating
# point, so tasks of one query often complete at the same instant and
# the span order pins how such ties resolve.
DYADIC_LATENCIES = [0.125, 0.25, 0.5]

# One replica pair for model 0 so crash failover has a live sibling.
REPLICATED = [
    WorkerSpec(0, LATENCIES[0]),
    WorkerSpec(0, LATENCIES[0]),
    WorkerSpec(1, LATENCIES[1]),
    WorkerSpec(2, LATENCIES[2]),
]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def quality_table(seed=0):
    rng = np.random.default_rng(seed)
    difficulty = rng.uniform(0, 1, N_POOL)
    success = np.clip(
        np.linspace(0.7, 0.9, M)[None, :] - 0.5 * difficulty[:, None],
        0.05, 0.98,
    )
    quality = np.zeros((N_POOL, 1 << M))
    for mask in range(1, 1 << M):
        members = [k for k in range(M) if (mask >> k) & 1]
        quality[:, mask] = 1 - np.prod(1 - success[:, members], axis=1)
    scores = np.clip(difficulty + rng.normal(0, 0.05, N_POOL), 0, 1)
    return quality, scores


def make_workload(n=300, rate=140.0, seed=1):
    quality, _ = quality_table()
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0, n / rate, n))
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=rng.uniform(0.06, 0.2, n),
        sample_indices=rng.integers(N_POOL, size=n),
        quality=quality,
    )


def make_policy(kind):
    quality, scores = quality_table()
    if kind == "immediate":
        masks = np.random.default_rng(3).integers(1, 1 << M, size=N_POOL)
        return ImmediateMaskPolicy("immediate", masks)
    scheduler = (
        GreedyScheduler(order="edf") if kind == "greedy"
        else DPScheduler(delta=0.05)
    )
    return BufferedSchedulingPolicy(
        kind, scheduler, quality, scores=scores, fast_path=True,
    )


def dyadic_workload(n=300, seed=9):
    quality, _ = quality_table()
    rng = np.random.default_rng(seed)
    return ServingWorkload(
        arrivals=np.sort(rng.integers(0, n, n)) / 8.0,
        deadlines=rng.integers(4, 16, n) / 8.0,
        sample_indices=rng.integers(N_POOL, size=n),
        quality=quality,
    )


def burst_workload(n=1800, seed=0):
    """Calm 0-6 s, hard burst 6-14 s, calm tail: forces a breach."""
    quality, _ = quality_table()
    rng = np.random.default_rng(seed)
    t, arrivals = 0.0, []
    while len(arrivals) < n:
        rate = 180.0 if 6.0 <= t < 14.0 else 15.0
        t += rng.exponential(1.0 / rate)
        arrivals.append(t)
    return ServingWorkload(
        arrivals=np.array(arrivals),
        deadlines=np.full(n, 0.12),
        sample_indices=rng.integers(N_POOL, size=n),
        quality=quality,
    )


def control_config():
    return ControlConfig(
        interval=1.0, warmup=1.0, max_extra_replicas=2,
        scale_up_burn=2.0, scale_down_burn=0.5, cooldown=3.0,
        slo=SLOConfig(
            windows=(5.0, 30.0), alert_window=5.0,
            breach_burn=2.0, recover_burn=1.0, min_events=20,
        ),
    )


FAULT_PLANS = {
    "jitter_timeout": ServerConfig(
        faults=FaultPlan(seed=5, latency_jitter=0.3, straggler_prob=0.05),
        task_timeout=0.06, max_retries=1,
    ),
    "jitter_crash_backoff": ServerConfig(
        faults=FaultPlan(seed=6, latency_jitter=0.1).with_random_crashes(
            n_workers=len(REPLICATED), duration=3.0, crash_rate=0.6,
            mean_downtime=0.4, seed=7,
        ),
        max_retries=2, retry_backoff=0.005,
    ),
    "crash_only": ServerConfig(
        faults=FaultPlan(downtime=(
            DowntimeWindow(0, 0.5, 1.5),
            DowntimeWindow(3, 1.0, 1.8),
            DowntimeWindow(3, 1.6, 2.4),
            DowntimeWindow(1, 4.0, 4.3),
        )),
    ),
    "failure_only": ServerConfig(
        faults=FaultPlan(seed=8, task_failure_rate=0.15), max_retries=1,
    ),
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def _num(value):
    if value is None:
        return "None"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _record_line(r):
    return "|".join(_num(v) for v in (
        r.query_id, r.sample_index, r.arrival, r.deadline,
        r.scheduled_mask, r.executed_mask, r.completion, r.rejected,
        r.pending_tasks, r.failed_mask, r.degraded, r.retries,
    ))


def result_lines(result):
    lines = [
        f"policy={result.policy_name}",
        f"invocations={result.scheduler_invocations}",
        f"work_units={result.scheduler_work_units}",
    ]
    lines.extend(_record_line(r) for r in result.records)
    return lines


def span_lines(spans):
    lines = []
    for span in spans:
        if span.kind in (sp.DISPATCH, sp.QUEUE_WAIT):
            continue
        attrs = ",".join(
            f"{key}={_num(span.attrs[key])}"
            for key in sorted(span.attrs) if key != "wall_s"
        )
        lines.append(f"{span.kind}@{_num(span.time)}#{span.query_id}[{attrs}]")
    return lines


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


def run_single(policy, rejection):
    config = ServerConfig(allow_rejection=rejection)
    server = EnsembleServer.from_config(
        LATENCIES, make_policy(policy), config
    )
    return digest(result_lines(server.run(make_workload())))


def run_static_fleet():
    fleet = FleetServer.from_config(
        LATENCIES, make_policy("greedy"),
        FleetConfig.uniform(
            4, ServerConfig(), router="power_of_two", queue_limit=16,
            seed=2,
        ),
    )
    result = fleet.run(make_workload(n=900, rate=120.0, seed=4))
    lines = result_lines(result.merged)
    lines.append(f"shed={result.n_shed}")
    lines.append(",".join(str(int(a)) for a in result.assignments))
    return digest(lines)


def run_controlled_fleet():
    fleet = FleetServer.from_config(
        LATENCIES, make_policy("greedy"),
        FleetConfig.uniform(
            2, ServerConfig(), queue_limit=8, seed=0,
            control=control_config(),
        ),
    )
    result = fleet.run(burst_workload())
    lines = result_lines(result.merged)
    lines.append(f"shed={result.n_shed}")
    lines.append(result.control_log.dumps())
    return digest(lines)


def run_epoch_session():
    workload = make_workload(seed=5)
    server = EnsembleServer.from_config(
        LATENCIES, make_policy("dp"), ServerConfig()
    )
    session = server.session()
    qi, t, n = 0, 0.25, workload.n_queries
    while qi < n or session.pending:
        while qi < n and float(workload.arrivals[qi]) < t:
            session.offer(
                float(workload.arrivals[qi]),
                float(workload.deadlines[qi]),
                int(workload.sample_indices[qi]),
            )
            qi += 1
        session.advance(t)
        t += 0.25
    return digest(result_lines(session.finish()))


def run_faulty(name):
    server = EnsembleServer.from_config(
        LATENCIES, make_policy("dp"), FAULT_PLANS[name], workers=REPLICATED,
    )
    return digest(result_lines(server.run(make_workload(seed=6))))


def run_traced(faulty):
    tracer = RecordingTracer(profile=True)
    if faulty:
        config, workers = FAULT_PLANS["jitter_crash_backoff"], REPLICATED
    else:
        config, workers = ServerConfig(), None
    server = EnsembleServer.from_config(
        LATENCIES, make_policy("greedy"), config,
        workers=workers, tracer=tracer,
    )
    result = server.run(make_workload(seed=7))
    return digest(result_lines(result) + span_lines(tracer.spans))


def run_ties(policy):
    tracer = RecordingTracer()
    server = EnsembleServer.from_config(
        DYADIC_LATENCIES, make_policy(policy),
        ServerConfig(overhead_base=0.0, overhead_per_unit=0.0),
        tracer=tracer,
    )
    result = server.run(dyadic_workload())
    return digest(result_lines(result) + span_lines(tracer.spans))


GOLDEN = {
    "single/immediate/reject": "376702fb06a25e4926ddc954dadfd23f4e49c1670eba450eeca7c9f709bb7978",
    "single/immediate/no_reject": "3873147b7551859d0831658880cb507fb509cdbf7fbbf2109a60b3a4f165b21d",
    "single/greedy/reject": "68e5512ac53034a70a44d2883eaffb0128c2b3feb138756f2ac03182f1cd24ef",
    "single/greedy/no_reject": "7ec3395964db62d24f67584738d0cb71919a36d1f47dab3ece7a5f589ead0ba3",
    "single/dp/reject": "8eebd665350cfca3c7a4dc23cb20b1ba6486fbd5a57e52f835e86f97b8ae5046",
    "single/dp/no_reject": "56abaa989710d724c082d335b9dfdc208188a35794383fc1d3b3774e318d318a",
    "fleet/static": "06fed02a6217eb860a822ed2fdb097ae0fb0c5bd34efebfc9a35c798458d2a53",
    "fleet/controlled": "ed47425cdf87c7abca5db30124e56dd8f9fa81c825c44d19faba0dafcd5d98c6",
    "session/epochs": "d9edb1a5b62333bce19a717e303f13c95c09d19a797572d159437fe91f218033",
    "faults/jitter_timeout": "10374b22bb64d21cb7d2df420c757e3d548b63ea177e607b3ba042d2f807c58c",
    "faults/jitter_crash_backoff": "d2f21d6629099c27a0609be6a9052275a577bbef449ad5f2a02629c4a462dfe1",
    "faults/crash_only": "a09a32b59b9c546b0c8c57890df099d6e879c932f08d055b34027ee12f4f11c0",
    "faults/failure_only": "cccd57fc999c51abdbdc15557abb64b918d79dec6b25332da4e0195d8be62494",
    "traced/reliable": "d20d61856d9657ec324c6d4451416811c09cfdddd709ec156a34204b720d3e38",
    "traced/faulty": "1d37fceaf989c0ea6dd764213a900ae8f869ae2238e88456c29b50dba8fd6998",
    "ties/immediate": "7213541cfc9915cd7fac4e3f762053ad4b6334c13999548b13f6bfba21284fb8",
    "ties/greedy": "0538831407bcd1034e126f41cc9fcc312c62e14c03e1479f754a25fe43f9d7db",
}


def compute(case):
    family, _, rest = case.partition("/")
    if family == "single":
        policy, _, rejection = rest.partition("/")
        return run_single(policy, rejection == "reject")
    if family == "fleet":
        return run_static_fleet() if rest == "static" else run_controlled_fleet()
    if family == "session":
        return run_epoch_session()
    if family == "faults":
        return run_faulty(rest)
    if family == "ties":
        return run_ties(rest)
    return run_traced(rest == "faulty")


def _param(case):
    faulty = case.startswith("faults/") or case == "traced/faulty"
    return pytest.param(
        case, id=case, marks=[pytest.mark.faults] if faulty else [],
    )


@pytest.mark.parametrize("case", [_param(case) for case in GOLDEN])
def test_digest_matches_golden(case):
    assert compute(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in GOLDEN:
        print(f'    "{case}": "{compute(case)}",')
