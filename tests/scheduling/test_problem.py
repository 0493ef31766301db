"""Scheduling problem types and schedule evaluation."""

import numpy as np
import pytest

from repro.scheduling.problem import (
    QueryRequest,
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
    evaluate_schedule,
)


def query(qid=0, arrival=0.0, deadline=1.0, utilities=None, m=2, score=0.0):
    if utilities is None:
        utilities = np.linspace(0.0, 1.0, 1 << m)
        utilities[0] = 0.0
    return QueryRequest(qid, arrival, deadline, utilities, score=score)


class TestQueryRequest:
    def test_validation(self):
        with pytest.raises(ValueError, match="1-d"):
            QueryRequest(0, 0.0, 1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="deadline"):
            QueryRequest(0, 2.0, 1.0, np.zeros(4))
        with pytest.raises(ValueError, match="empty subset"):
            QueryRequest(0, 0.0, 1.0, np.ones(4))

    def test_rejects_non_finite_arrival_and_nan_deadline(self):
        """NaN slips past ``deadline < arrival`` (every NaN comparison
        is False), so both are rejected explicitly."""
        for arrival in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="arrival must be finite"):
                QueryRequest(0, arrival, 1.0, np.zeros(4))
        with pytest.raises(ValueError, match="deadline must not be NaN"):
            QueryRequest(0, 0.0, np.nan, np.zeros(4))
        # An unbounded deadline is still a valid (never-late) query.
        assert QueryRequest(0, 0.0, np.inf, np.zeros(4)).deadline == np.inf


class TestSchedulingInstance:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SchedulingInstance([], np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="busy_until"):
            SchedulingInstance([], np.array([0.1]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="utilities"):
            SchedulingInstance(
                [query(m=3)], np.array([0.1, 0.1]), np.zeros(2)
            )

    @pytest.mark.parametrize(
        "latencies, busy_until, queries, message",
        [
            ([[0.1, 0.1]], [0.0, 0.0], [], "non-empty 1-d array"),
            ([], [], [], "non-empty 1-d array"),
            ([0.1, 0.0], [0.0, 0.0], [], "latencies must be positive"),
            ([0.1, -0.2], [0.0, 0.0], [], "latencies must be positive"),
            ([np.nan, 0.1], [0.0, 0.0], [], "latencies must be positive"),
            ([0.1, 0.1], [0.0], [], r"busy_until shape \(1,\) must match"),
            ([0.1, 0.1], [0.0, np.nan], [], "must not be NaN"),
            # NaN is reported ahead of a negative entry, wherever it sits.
            ([0.1, 0.1], [-1.0, np.nan], [], "must not be NaN"),
            ([0.1, 0.1], [0.0, -1e-9], [], "must be non-negative"),
            ([0.1, 0.1], [0.0, 0.0], [query(7, m=3)],
             "query 7 has 8 utilities, expected 4"),
        ],
    )
    def test_each_validation_error(self, latencies, busy_until, queries,
                                   message):
        with pytest.raises(ValueError, match=message):
            SchedulingInstance(
                queries, np.array(latencies), np.array(busy_until)
            )

    def test_inf_busy_is_valid(self):
        """A model with no live worker is ``inf`` busy, not an error."""
        inst = SchedulingInstance(
            [query(m=2)], np.array([0.1, 0.2]), np.array([np.inf, 0.0])
        )
        assert inst.busy_until[0] == np.inf

    def test_properties(self):
        inst = SchedulingInstance(
            [query(m=2)], np.array([0.1, 0.2]), np.zeros(2)
        )
        assert inst.n_models == 2
        assert inst.n_queries == 1


class TestScheduleResult:
    def test_mask_for(self):
        result = ScheduleResult(
            decisions=[ScheduleDecision(5, 3), ScheduleDecision(6, 0)]
        )
        assert result.mask_for(5) == 3
        with pytest.raises(KeyError):
            result.mask_for(99)

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            ScheduleDecision(0, -1)


class TestEvaluateSchedule:
    def test_serial_queue_on_one_model(self):
        # Two queries on model 0 (latency 0.1); second finishes at 0.2.
        queries = [
            query(0, deadline=0.15, m=1, utilities=np.array([0.0, 1.0])),
            query(1, deadline=0.15, m=1, utilities=np.array([0.0, 1.0])),
        ]
        inst = SchedulingInstance(queries, np.array([0.1]), np.zeros(1))
        decisions = [ScheduleDecision(0, 1), ScheduleDecision(1, 1)]
        # Second query completes at 0.2 > 0.15: only one reward.
        assert evaluate_schedule(inst, decisions) == pytest.approx(1.0)

    def test_busy_until_delays_completion(self):
        queries = [query(0, deadline=0.15, m=1, utilities=np.array([0.0, 1.0]))]
        inst = SchedulingInstance(
            queries, np.array([0.1]), np.array([0.1])
        )
        decisions = [ScheduleDecision(0, 1)]
        # Starts after busy time: completes at 0.2 > 0.15.
        assert evaluate_schedule(inst, decisions) == 0.0

    def test_parallel_models_counted_by_max(self):
        utilities = np.array([0.0, 0.4, 0.5, 1.0])
        queries = [query(0, deadline=0.21, utilities=utilities)]
        inst = SchedulingInstance(
            queries, np.array([0.1, 0.2]), np.zeros(2)
        )
        # Mask 3 completes at max(0.1, 0.2) = 0.2 <= 0.21.
        assert evaluate_schedule(inst, [ScheduleDecision(0, 3)]) == 1.0

    def test_skip_earns_nothing(self):
        inst = SchedulingInstance(
            [query(0)], np.array([0.1, 0.1]), np.zeros(2)
        )
        assert evaluate_schedule(inst, [ScheduleDecision(0, 0)]) == 0.0

    def test_explicit_order_respected(self):
        utilities = np.array([0.0, 1.0])
        queries = [
            query(0, deadline=0.25, m=1, utilities=utilities),
            query(1, deadline=0.1, m=1, utilities=utilities),
        ]
        inst = SchedulingInstance(queries, np.array([0.1]), np.zeros(1))
        decisions = [ScheduleDecision(0, 1), ScheduleDecision(1, 1)]
        # As listed: q1 runs second, finishing at 0.2 > 0.1 -> 1 reward.
        assert evaluate_schedule(inst, decisions) == 1.0
        # Reversed order serves both deadlines.
        assert evaluate_schedule(inst, decisions, order=[1, 0]) == 2.0
