"""Engine ledger: how fast the serving simulator serves a day, and where
its wall clock goes.

Run from the repository root::

    python3 enginebench/run.py --workload fleet_day --seed 1 --seconds 30 --trace 0

One invocation serves one workload (``fleet_day``, ``dp_day`` or
``control_live``, see ``workloads.py``) in this single process. It sets
the workload up and serves it once to warm up, then re-serves the same
inputs in rounds until the run is nearest to ``--seconds``, setting the
workload up again (for at least ``SETUP_SECONDS``) before each timed
serve. Every set-up re-imports the program. Serves and set-ups are
timed in CPU time, and the fixed reference workload in
``yardstick.py``, timed before and after each round's serves, gives the
host's speed; ``sim_qps`` and ``setup_s`` are reported at a nominal
host speed.
Every serve is checked: each query is accounted for exactly once, and
the deterministic metrics and a digest of the per-query records match
the first serve's bit for bit.

``--trace 0`` prints the end-to-end metrics (medians over the timed
serves and the set-ups). ``--trace 1`` alternates untraced serves with
serves under the wrappers in ``layers.py`` and prints the per-layer
metrics (medians over the traced serves). It also writes the last
traced serve's spans to ``.enginebench/``. The metric names and units
come from ``BENCHMARK.json``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# One thread: BLAS pools would add threads that compete for the host's
# few cores and put their CPU time on the serve's clock.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Outside a full checkout ``repro`` is missing and the run stops here,
# printing no result.
import numpy as np  # noqa: E402

from layers import CODE, SpanLog, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import reference_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

OUT_DIR = ROOT / ".enginebench"
# Fewest serves a run times, untraced (--trace 0) and per kind in a
# traced run (--trace 1, which alternates traced and untraced serves).
MIN_SERVES = {0: 3, 1: 2}
# Set-up time taken next to each timed serve. A set-up shorter than
# this repeats, so that the fleets' ~0.2 s set-ups get as many samples
# per run as the host noise needs, while dp_day's ~1.5 s set-up runs once.
SETUP_SECONDS = 1.0
# Modules a set-up imports afresh: the program, and the benchmark's own
# modules that import it. numpy is loaded once per process and stays.
IMPORTED = ("repro", "layers", "workloads")
# The clock of the timed serves and set-ups: this process's CPU time.
# The run has one thread, so it equals wall time while the process
# holds a core, and leaves out the time it waits for one (other
# processes on the same cores, and the hypervisor's steal time, which
# the guest kernel accounts apart). Only the run length is wall time.
clock = time.process_time
# Reference passes (``yardstick.py``) timed right before and right
# after the serves of each round. Their mean over the run, divided by
# REF_SECONDS, is the host factor: how much slower than nominal the
# host ran. The mean, not the median: the host switches between a fast
# and a slow speed within seconds, and a serve's time adds up both, as
# the mean does. ``sim_qps`` and ``setup_s`` are reported at nominal
# speed, with their CPU times divided by the host factor. REF_SECONDS
# is about one pass's CPU time on the 2-vCPU Xeon container in its
# fast phase.
REF_PASSES = 8
REF_SECONDS = 0.03


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _imported(name: str) -> bool:
    return name.split(".", 1)[0] in IMPORTED


def time_import() -> float:
    """Import the program afresh and return the CPU time it took.

    The modules in ``IMPORTED`` leave ``sys.modules`` and ``workloads``
    is imported again, which pulls in everything the workloads use.
    The original modules then go back, so the run keeps using them.
    """
    saved = {n: m for n, m in sys.modules.items() if _imported(n)}
    for name in saved:
        del sys.modules[name]
    try:
        start = clock()
        importlib.import_module("workloads")
        return clock() - start
    finally:
        for name in [n for n in sys.modules if _imported(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


# -- correctness -------------------------------------------------------


def count_violations(outcome, n: int) -> int:
    """Queries that break the accounting checks (see the README)."""
    records = outcome.result.records
    if len(records) != n:
        return n
    bad = set()
    rejected = np.zeros(n, dtype=bool)
    for i, record in enumerate(records):
        rejected[i] = record.rejected
        completed = record.completion is not None
        if record.query_id != i or completed == record.rejected:
            bad.add(i)
        elif completed and (
            record.executed_mask == 0 or record.completion < record.arrival
        ):
            bad.add(i)
    extra = 0
    fleet = outcome.fleet
    if fleet is not None:
        admitted = fleet.assignments >= 0
        served_by = np.zeros(n, dtype=int)
        for ids in fleet.shard_query_ids:
            np.add.at(served_by, ids, 1)
        bad.update(np.flatnonzero(served_by != admitted).tolist())
        bad.update(np.flatnonzero(~admitted & ~rejected).tolist())
        extra += abs(int((~admitted).sum()) - fleet.n_shed)
    if outcome.tracer is not None:
        counters = outcome.tracer.metrics
        resolved = (
            counters.counter("queries.completed").value
            + counters.counter("queries.rejected").value
        )
        extra += abs(int(resolved) - n)
    return min(n, len(bad) + extra)


def summarize(outcome, quality):
    """The deterministic end-to-end metrics and a digest of the serve."""
    result = outcome.result
    stats = result.latency_stats()
    metrics = {
        "accuracy": result.accuracy(quality),
        "deadline_miss_rate": result.deadline_miss_rate(),
        "sim_latency_p50_ms": stats["p50"] * 1e3,
        "sim_latency_p99_ms": stats["p99"] * 1e3,
    }
    digest = hashlib.sha256()
    for r in result.records:
        digest.update(repr((
            r.query_id, r.sample_index, r.arrival, r.deadline,
            r.scheduled_mask, r.executed_mask, r.failed_mask, r.completion,
            r.rejected, r.degraded, r.retries,
        )).encode())
    fleet = outcome.fleet
    if fleet is not None:
        digest.update(fleet.assignments.tobytes())
        if fleet.control_log is not None:
            digest.update(fleet.control_log.dumps().encode())
    return metrics, digest.hexdigest()


# -- per-layer metrics -------------------------------------------------


def layer_metrics(log, outcome, n: int):
    """Per-layer figures of one traced serve (timing and counts)."""
    cols = log.arrays()
    code, dur, parent = cols["code"], cols["dur"], cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_time = dur - child

    def mask(name):
        return code == CODE[name]

    def total(name):
        return float(dur[mask(name)].sum())

    def self_total(name):
        return float(self_time[mask(name)].sum())

    def calls(name):
        return int(mask(name).sum())

    def pct_us(name, q):
        values = dur[mask(name)]
        return float(np.percentile(values, q) * 1e6) if values.size else 0.0

    batches = cols["tag"][mask("scheduling.schedule")]
    requests = calls("serving.request")
    result = outcome.result
    records = result.records
    fleet = outcome.fleet
    load_ratio = 0.0
    if fleet is not None:
        load = np.array([len(ids) for ids in fleet.shard_query_ids])
        load_ratio = float(load.max() / load.mean())
    return {
        "scheduling.busy_s": total("scheduling.schedule"),
        "scheduling.call_us_p50": pct_us("scheduling.schedule", 50),
        "scheduling.call_us_p99": pct_us("scheduling.schedule", 99),
        "scheduling.instance_s": total("scheduling.instance"),
        "scheduling.instance_us_p50": pct_us("scheduling.instance", 50),
        "scheduling.calls": result.scheduler_invocations,
        "scheduling.batch_mean": (
            float(batches.mean()) if batches.size else 0.0
        ),
        "scheduling.work_units": result.scheduler_work_units,
        "scheduling.replan_ratio": (
            float(batches.sum()) / requests if requests else 0.0
        ),
        "serving.advance_s": total("serving.advance"),
        "serving.loop_self_s": self_total("serving.advance"),
        "serving.request_s": total("serving.request"),
        "serving.buffered_share": requests / n,
        "faults.retries": sum(r.retries for r in records),
        # Degraded answers after task failures; the controller's
        # cheap-subset clamp also sets ``degraded`` but fails no task.
        "faults.degraded_rate": sum(
            r.degraded and r.failed_mask != 0 for r in records
        ) / n,
        "fleet.frontend_s": (
            self_total("fleet.run") + self_total("fleet.route")
        ),
        "fleet.route_calls": calls("fleet.route"),
        "fleet.route_us_p50": pct_us("fleet.route", 50),
        "fleet.shed_share": fleet.n_shed / n if fleet is not None else 0.0,
        "fleet.shard_load_max_over_mean": load_ratio,
        "obs.emit_calls": calls("obs.emit"),
        "obs.emit_s": total("obs.emit"),
        "obs.emit_us_p50": pct_us("obs.emit", 50),
        "obs.emit_us_p99": pct_us("obs.emit", 99),
        "obs.spans_kept": log.spans_kept,
        "obs.live_tick_s": total("obs.live_tick"),
        "obs.snapshots": sum(len(live.snapshots) for live in outcome.lives),
        "obs.incidents": sum(len(live.incidents) for live in outcome.lives),
        "control.ticks": calls("control.tick"),
        "control.tick_s": total("control.tick"),
        "control.actions": (
            len(fleet.control_log)
            if fleet is not None and fleet.control_log is not None else 0
        ),
        "runtime.gc_s": total("runtime.gc"),
        "runtime.gc_collections": calls("runtime.gc"),
    }


# -- the run -----------------------------------------------------------


class Ledger:
    """Serves one workload repeatedly and keeps the run's books."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = None
        self.setup_times = []
        self.offline = None
        self.inputs = None

    def set_up(self) -> float:
        """One full set-up: imports, offline phase, inputs, server.
        Returns its duration."""
        wl = self.workload
        import_s = time_import()
        t0 = clock()
        offline = wl.offline()
        t1 = clock()
        inputs = wl.inputs(offline, self.seed)
        t2 = clock()
        wl.build(offline, inputs)
        t3 = clock()
        self.setup_times.append((import_s, t1 - t0, t2 - t1, t3 - t2))
        if self.offline is not None and not np.array_equal(
            offline.quality, self.offline.quality
        ):
            print("set-up is not deterministic: quality tables differ",
                  file=sys.stderr)
            self.correct = False
        self.offline, self.inputs = offline, inputs
        return sum(self.setup_times[-1])

    def serve(self, log=None):
        """One checked serve; returns ``(cpu_s, outcome)``."""
        wl = self.workload
        n = self.inputs.workload.n_queries
        server = wl.build(self.offline, self.inputs, log)
        gc.collect()
        self.attempted += n
        try:
            if log is None:
                start = clock()
                outcome = wl.serve(server, self.inputs)
                cpu = clock() - start
            else:
                with instrument(log):
                    start = clock()
                    idx = log.open(CODE["bench.serve"])
                    outcome = wl.serve(server, self.inputs)
                    log.close(idx)
                    cpu = clock() - start
        except Exception:
            self.failed += n
            self.correct = False
            raise
        del server
        self.failed += count_violations(outcome, n)
        metrics, digest = summarize(outcome, self.offline.quality)
        if self.reference is None:
            self.reference = (metrics, digest)
        elif (metrics, digest) != self.reference:
            print(f"serve is not deterministic: {metrics} / {digest} vs "
                  f"{self.reference}", file=sys.stderr)
            self.failed += n
            self.correct = False
        return cpu, outcome


def time_passes(passes) -> None:
    """Time REF_PASSES reference passes, appending each CPU time."""
    for _ in range(REF_PASSES):
        begin = clock()
        reference_pass()
        passes.append(clock() - begin)


def run(args, ledger: Ledger):
    ledger.set_up()
    n = ledger.inputs.workload.n_queries
    ledger.serve()  # warm-up: checked, not timed
    reference_pass()  # warm-up

    untraced, traced, per_serve, passes = [], [], [], []
    log = None
    start = time.perf_counter()
    while True:
        begin_round = time.perf_counter()
        # Set-ups next to every timed serve spread the set-up samples
        # over the whole run, as the serves are.
        spent = 0.0
        while spent < SETUP_SECONDS:
            spent += ledger.set_up()
        time_passes(passes)
        if args.trace:
            log = SpanLog(run=len(traced))
            cpu, outcome = ledger.serve(log)
            traced.append(cpu)
            per_serve.append(layer_metrics(log, outcome, n))
            del outcome
        cpu, outcome = ledger.serve()
        untraced.append(cpu)
        del outcome
        time_passes(passes)
        # Stop where the run ends nearest to --seconds: when another
        # round as long as this one would overshoot by more than half.
        now = time.perf_counter()
        if (now - start + (now - begin_round) / 2 >= args.seconds
                and len(untraced) >= MIN_SERVES[args.trace]):
            break

    host = statistics.mean(passes) / REF_SECONDS
    setup = [
        statistics.median(t[k] for t in ledger.setup_times) / host
        for k in range(4)
    ]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        log.save(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")
        metrics = {
            name: statistics.median(rep[name] for rep in per_serve)
            for name in per_serve[0]
        }
        metrics["setup.import_s"] = setup[0]
        metrics["setup.offline_s"] = setup[1]
        metrics["setup.workload_s"] = setup[2]
        metrics["bench.trace_overhead"] = (
            statistics.median(traced) / statistics.median(untraced)
        )
        metrics["bench.cpu_qps"] = n / statistics.median(untraced)
        metrics["bench.host_factor"] = host
        units = PER_LAYER
    else:
        metrics = dict(ledger.reference[0])
        metrics["sim_qps"] = n / statistics.median(untraced) * host
        metrics["setup_s"] = statistics.median(
            sum(t) for t in ledger.setup_times
        ) / host
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = END_TO_END
    print(f"{args.workload} seed={args.seed}: {n} queries; "
          f"{len(ledger.setup_times)} set-ups "
          f"{_seconds(sum(t) for t in ledger.setup_times)}; serve CPU "
          f"untraced {_seconds(untraced)}"
          + (f", traced {_seconds(traced)}" if traced else "")
          + f"; {len(passes)} reference passes, host factor {host:.3f}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
    }


def _seconds(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "] s"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    ledger = Ledger(WORKLOADS[args.workload](), args.seed)
    try:
        metrics = run(args, ledger)
    except Exception:
        # A serve that raised has already counted its queries as
        # failed; report that, unless nothing was ever served.
        traceback.print_exc()
        metrics = {}
    ok = ledger.correct and ledger.failed == 0 and bool(metrics)
    if ledger.attempted:
        print(json.dumps({
            "correct": ok,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
