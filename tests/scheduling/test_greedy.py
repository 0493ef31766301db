"""Greedy scheduler behaviour."""

import numpy as np
import pytest

from repro.scheduling.greedy import GreedyScheduler
from repro.scheduling.problem import (
    QueryRequest,
    SchedulingInstance,
    evaluate_schedule,
)
from tests.scheduling._greedy_oracle import oracle_greedy


class TestGreedyScheduler:
    def test_picks_highest_reward_feasible(self):
        u = np.array([0.0, 0.5, 0.7, 0.9])
        q = QueryRequest(0, 0.0, 0.2, u)
        inst = SchedulingInstance([q], np.array([0.02, 0.07]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        assert result.mask_for(0) == 3

    def test_ties_broken_toward_faster_subset(self):
        u = np.array([0.0, 0.8, 0.8, 0.8])
        q = QueryRequest(0, 0.0, 0.2, u)
        inst = SchedulingInstance([q], np.array([0.02, 0.07]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        assert result.mask_for(0) == 1  # fastest of the tied masks

    def test_skips_infeasible(self):
        u = np.array([0.0, 1.0])
        q = QueryRequest(0, 0.0, 0.05, u)
        inst = SchedulingInstance([q], np.array([0.1]), np.zeros(1))
        assert GreedyScheduler("edf").schedule(inst).mask_for(0) == 0

    def test_myopia_versus_later_queries(self):
        """Greedy gives the full set to the first query and starves the
        second — the failure mode the DP fixes."""
        u = np.array([0.0, 0.8, 0.85, 0.9])
        queries = [
            QueryRequest(0, 0.0, 0.1, u),
            QueryRequest(1, 0.0, 0.1, u),
        ]
        inst = SchedulingInstance(queries, np.array([0.08, 0.09]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        masks = [result.mask_for(0), result.mask_for(1)]
        assert masks[0] == 3  # grabbed everything
        assert masks[1] == 0  # nothing left in time
        assert result.total_utility == pytest.approx(0.9)

    def test_greedy_schedule_is_feasible(self):
        rng = np.random.default_rng(0)
        queries = [
            QueryRequest(
                i,
                float(rng.uniform(0, 0.02)),
                float(rng.uniform(0.1, 0.25)),
                np.array([0.0, 0.4, 0.5, 0.8]),
            )
            for i in range(6)
        ]
        inst = SchedulingInstance(queries, np.array([0.03, 0.06]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        achieved = evaluate_schedule(inst, result.decisions)
        assert achieved == pytest.approx(result.total_utility)

    def test_order_parameter_changes_processing(self):
        u = np.array([0.0, 1.0])
        queries = [
            QueryRequest(0, arrival=0.0, deadline=0.30, utilities=u, score=0.1),
            QueryRequest(1, arrival=0.01, deadline=0.11, utilities=u, score=0.9),
        ]
        inst = SchedulingInstance(queries, np.array([0.1]), np.zeros(1))
        edf = GreedyScheduler("edf").schedule(inst)
        fifo = GreedyScheduler("fifo").schedule(inst)
        # EDF serves the tight deadline first and completes both; FIFO
        # runs query 0 first, leaving query 1 past its deadline.
        assert edf.total_utility == pytest.approx(2.0)
        assert fifo.total_utility == pytest.approx(1.0)

    def test_full_tie_resolves_to_lowest_mask(self):
        """Equal reward AND equal completion: the lowest mask wins (the
        loop form's pick depended on enumeration order here)."""
        u = np.array([0.0, 0.7, 0.7, 0.7])
        q = QueryRequest(0, 0.0, 0.07, u)
        inst = SchedulingInstance([q], np.array([0.05, 0.05]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        # Masks 1, 2 and 3 all complete at 0.05 with reward 0.7.
        assert result.mask_for(0) == 1

    def test_busy_model_shifts_the_tie(self):
        """Same rewards, but model 0 starts busy: mask 2 now completes
        first and must win over the lower mask."""
        u = np.array([0.0, 0.7, 0.7, 0.7])
        q = QueryRequest(0, 0.0, 0.07, u)
        inst = SchedulingInstance(
            [q], np.array([0.05, 0.05]), np.array([0.01, 0.0]),
        )
        result = GreedyScheduler("edf").schedule(inst)
        assert result.mask_for(0) == 2

    def test_selection_is_deterministic_across_runs(self):
        rng = np.random.default_rng(9)
        queries = [
            QueryRequest(
                i, 0.0, float(rng.uniform(0.1, 0.3)),
                np.round(rng.uniform(0, 1, 8) * np.array([0, 1, 1, 1, 1, 1, 1, 1]), 1),
            )
            for i in range(5)
        ]
        inst = SchedulingInstance(
            queries, np.array([0.05, 0.05, 0.05]), np.zeros(3),
        )
        plans = {
            tuple(d.mask for d in GreedyScheduler("edf").schedule(inst).decisions)
            for _ in range(5)
        }
        assert len(plans) == 1

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            GreedyScheduler("lifo")

    def test_empty_instance(self):
        inst = SchedulingInstance([], np.array([0.1]), np.zeros(1))
        assert GreedyScheduler("edf").schedule(inst).decisions == []


def _random_instance(rng, m, n_queries):
    """One random instance with exact reward and completion ties.

    Rewards are rounded to one decimal, so equal-reward masks are
    common; latencies are sometimes equal, so equal completions are
    too; busy entries are sometimes 0 or ``inf`` (a downed model)."""
    latencies = rng.uniform(0.005, 0.05, m)
    if rng.random() < 0.3:
        latencies = np.full(m, 0.02)
    busy = rng.uniform(0.0, 0.05, m) * (rng.random(m) < 0.7)
    if rng.random() < 0.25:
        busy[rng.integers(m)] = np.inf
    now = float(rng.uniform(0.0, 10.0))
    queries = []
    for qid in range(n_queries):
        utilities = rng.uniform(0.0, 1.0, 1 << m)
        if rng.random() < 0.7:
            utilities = np.round(utilities, 1)
        utilities[0] = 0.0
        queries.append(
            QueryRequest(
                qid,
                arrival=now - float(rng.uniform(0.0, 0.05)),
                deadline=now + float(rng.uniform(0.0, 0.2)),
                utilities=utilities,
                score=float(np.round(rng.random(), 1)),
            )
        )
    return SchedulingInstance(queries, latencies, busy, now=now)


class TestGreedyOracleParity:
    """The scalar greedy must reproduce the frozen numpy greedy exactly:
    same decisions in the same order, same total and same work units."""

    @pytest.mark.parametrize("order", ["edf", "fifo", "sjf"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_numpy_oracle(self, m, order):
        rng = np.random.default_rng([m, ord(order[0])])
        sizes = [0, 1, 2, 3, 7, 64] + [int(n) for n in rng.integers(0, 65, 34)]
        for n_queries in sizes:
            inst = _random_instance(rng, m, n_queries)
            got = GreedyScheduler(order).schedule(inst)
            want = oracle_greedy(inst, order)
            assert got.decisions == want.decisions
            assert got.total_utility == want.total_utility
            assert got.work_units == want.work_units

    def test_exact_reward_and_completion_ties(self):
        """Every non-empty mask has the same reward and (equal
        latencies, idle models) the same completion: lowest mask wins,
        in both implementations, for every query that still fits."""
        m = 3
        utilities = np.full(1 << m, 0.5)
        utilities[0] = 0.0
        queries = [QueryRequest(q, 0.0, 0.1, utilities) for q in range(6)]
        inst = SchedulingInstance(queries, np.full(m, 0.02), np.zeros(m))
        got = GreedyScheduler("edf").schedule(inst)
        assert got.decisions == oracle_greedy(inst, "edf").decisions
        assert [d.mask for d in got.decisions][:3] == [1, 2, 4]

    def test_ties_within_eps(self):
        """Rewards and completions that differ by less than eps tie:
        the faster mask beats a reward edge below eps, and the lower
        mask beats a completion edge below eps."""
        latencies = np.array([0.02, 0.02])
        u = np.array([0.0, 0.5, 0.0, 0.5 + 5e-13])
        inst = SchedulingInstance(
            [QueryRequest(0, 0.0, 0.1, u)], latencies, np.array([0.0, 0.01])
        )
        assert GreedyScheduler("edf").schedule(inst).mask_for(0) == 1
        assert oracle_greedy(inst, "edf").mask_for(0) == 1
        u = np.array([0.0, 0.5, 0.5, 0.0])
        inst = SchedulingInstance(
            [QueryRequest(0, 0.0, 0.1, u)], latencies, np.array([5e-13, 0.0])
        )
        assert GreedyScheduler("edf").schedule(inst).mask_for(0) == 1
        assert oracle_greedy(inst, "edf").mask_for(0) == 1
