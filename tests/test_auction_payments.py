"""The one-pass critical payments against the slow exclusion-run oracle.

On small-integer appraisements and bids every coverage sum and every spend
is exact and unit-gain ties are real, so the fast path must reproduce the
oracle's positions bit for bit. Float instances are held to 1e-9. A golden
digest pins the exact bits of both mechanisms on geometric instances.
"""

import hashlib

import numpy as np
import pytest

from trafficmarket.auction import greedy_heuristic, tbsap, tbsap_allocate, tbsap_payment

from conftest import build_instance, dense_scenario, random_synthetic_instance
from oracles import exclusion_payment, slow_greedy


def integer_instance(rng: np.random.Generator):
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 9))
    values = rng.integers(1, 5, size=m).tolist()
    subsets = [
        rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist()
        for _ in range(n)
    ]
    bids = rng.integers(1, 4, size=n).tolist()
    budget = int(rng.integers(1, 3 * sum(bids) + 1))
    return build_instance(values, subsets, bids, budget)


def oracle_view(instance):
    """Winners, payments and traces as the oracle computes them."""
    picks, _, _ = slow_greedy(instance)
    winners = [pick[0] for pick in picks]
    return winners, {w: exclusion_payment(instance, w) for w in winners}


def trace_view(trace):
    positions = [
        (s.candidate_id, s.replacement_bid, s.budget_slack) for s in trace.candidates
    ]
    assert [s.contribution for s in trace.candidates] == [
        min(raw, slack) for _, raw, slack in positions
    ]
    return positions, trace.tail_value, trace.tail_slack, trace.payment


def test_exact_on_integer_instances():
    rng = np.random.default_rng(31)
    winners_seen = 0
    for _ in range(400):
        instance = integer_instance(rng)
        winners, scans = oracle_view(instance)
        outcome = tbsap(instance)
        assert list(outcome.winners) == winners == tbsap_allocate(instance)
        assert outcome.payments == {w: scans[w][3] for w in winners}
        for w in winners:
            assert trace_view(tbsap_payment(w, instance)) == scans[w]
        winners_seen += len(winners)
    assert winners_seen >= 400


def test_greedy_heuristic_exact_on_integer_instances():
    # The filter rule shares the lazy loop; bids that exactly use up the
    # budget are common here, so the fit test is checked at its boundary.
    rng = np.random.default_rng(33)
    for _ in range(400):
        instance = integer_instance(rng)
        picks, _, (_, spent) = slow_greedy(instance, drop_misfits=True)
        outcome = greedy_heuristic(instance)
        assert list(outcome.winners) == [pick[0] for pick in picks]
        assert outcome.total_bid == spent


def test_close_on_float_instances():
    rng = np.random.default_rng(32)
    for _ in range(150):
        instance = random_synthetic_instance(rng)
        winners, scans = oracle_view(instance)
        outcome = tbsap(instance)
        assert list(outcome.winners) == winners
        for w in winners:
            positions, tail_value, tail_slack, payment = trace_view(
                tbsap_payment(w, instance)
            )
            want_positions, want_value, want_slack, want_payment = scans[w]
            assert [p[0] for p in positions] == [p[0] for p in want_positions]
            assert [p[1:] for p in positions] == [
                pytest.approx(p[1:], abs=1e-9) for p in want_positions
            ]
            assert (tail_value is None) == (want_value is None)
            if tail_value is not None:
                assert tail_value == pytest.approx(want_value, abs=1e-9)
                assert tail_slack == pytest.approx(want_slack, abs=1e-9)
            assert payment == pytest.approx(want_payment, abs=1e-9)
            assert outcome.payments[w] == payment


# sha256 of repr((tbsap winners, their payments, greedy winners)) per case,
# recorded with one full greedy re-run per winner: sharing the prefix and the
# lazy heap must not move a single bit.
GOLDEN_DIGEST = "0fa09ec91bc580ae90cebb5b057f3654889afe0ea8dfa8d4ef455947283da4de"


def test_golden_digest_dense():
    parts = []
    for seed in (0, 1, 2):
        for budget in (5.0, 15.0, 30.0, 60.0):
            instance = dense_scenario(seed, n_vehicles=120, budget=budget)
            truthful = tbsap(instance)
            parts.append(
                (
                    truthful.winners,
                    [truthful.payments[w] for w in truthful.winners],
                    greedy_heuristic(instance).winners,
                )
            )
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == GOLDEN_DIGEST
