import re

import numpy as np
import pytest

from trafficmarket.auction import (
    NotWinnerError,
    greedy_heuristic,
    tbsap,
    tbsap_allocate,
    tbsap_payment,
)
from trafficmarket.model import coverage_value, paper_example

from conftest import build_instance, dense_scenario, random_synthetic_instance
from oracles import critical_bid_bisection, marginal_gain, wins


def test_example_allocation(example_instance):
    # Same two winners as the greedy heuristic; the third vehicle's bid no
    # longer fits, and the break rule ends the loop there.
    assert tbsap_allocate(example_instance) == [0, 1]


def test_example_payments(example_instance):
    # Hand trace. Pricing v0 against {v1, v2}: v2 is picked first (ties at
    # 4.5 go to the remaining lowest id), replacement bid 2*11/11 = 2, then
    # v1's position gives 2*2/5 = 0.8; no tail, budget spent. Pricing v1:
    # positions give 2*10/11 and 2*3/2 = 3, tail is clamped to slack 1.
    assert tbsap_payment(0, example_instance).payment == 2.0
    assert tbsap_payment(1, example_instance).payment == 3.0


def test_example_outcome(example_instance):
    outcome = tbsap(example_instance)
    assert outcome.winners == (0, 1)
    assert outcome.payments == {0: 2.0, 1: 3.0}
    assert outcome.profit == 9.0
    assert outcome.total_bid == 4.0


def test_example_profit_below_greedy(example_instance):
    assert tbsap(example_instance).profit <= greedy_heuristic(example_instance).profit


def test_example_payments_match_bisection(example_instance):
    for vid in (0, 1):
        tau = critical_bid_bisection(example_instance, vid, tbsap_allocate)
        assert tbsap_payment(vid, example_instance).payment == pytest.approx(
            tau, abs=1e-9
        )


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_example_truthful_under_deviation(example_instance, lam):
    truthful = tbsap(example_instance)
    cost = example_instance.vehicle(1).true_cost
    truthful_utility = truthful.payments[1] - cost
    assert truthful_utility == 1.0

    deviated = example_instance.with_bid(1, 2.0 + lam)
    outcome = tbsap(deviated)
    assert 1 in outcome.winners
    assert outcome.payments[1] == 3.0  # payment ignores the vehicle's own bid
    assert outcome.payments[1] - cost <= truthful_utility


def test_tight_budget_payment_is_the_real_threshold():
    # Replacing the second-position candidate would tie at bid 5, but the
    # budget only leaves 1.5 at that position: any re-bid above 1.5 makes
    # the allocation loop break on budget before v2 is in. The unclamped
    # replacement-bid rule would claim 5 and overpay.
    instance = build_instance(
        values=[10.0, 1.2, 6.0],
        subsets=[{0}, {1}, {2}],
        bids=[1.0, 1.0, 1.0],
        budget=2.5,
    )
    assert tbsap_allocate(instance) == [0, 2]
    trace = tbsap_payment(2, instance)
    assert trace.payment == pytest.approx(1.5)
    raw = [s.replacement_bid for s in trace.candidates]
    assert raw == pytest.approx([0.6, 5.0])  # Unclamped values for the record
    assert not wins(instance, 2, 1.5 + 1e-6, tbsap_allocate)
    assert wins(instance, 2, 1.5 - 1e-6, tbsap_allocate)
    assert tbsap_payment(0, instance).payment == pytest.approx(5.0 / 3.0)


def test_tight_budget_truthfulness_regression():
    # With the unclamped payment a cost-2 vehicle would profit by bidding
    # 1.4 (utility 3 instead of 0). The clamped payment removes the gain.
    instance = build_instance(
        values=[10.0, 1.2, 6.0],
        subsets=[{0}, {1}, {2}],
        bids=[1.0, 1.0, 2.0],
        budget=2.5,
    )
    assert 2 not in tbsap_allocate(instance)  # truthful cost-2 bid loses
    deviated = instance.with_bid(2, 1.4)
    outcome = tbsap(deviated)
    assert 2 in outcome.winners
    assert outcome.payments[2] == pytest.approx(1.5)
    assert outcome.payments[2] - 2.0 <= 0.0 + 1e-12


def test_single_vehicle_payment_cases():
    # Coverage below budget: pay the full marginal coverage.
    small = build_instance(values=[3.0], subsets=[{0}], bids=[1.0], budget=5.0)
    assert tbsap_payment(0, small).payment == 3.0
    # Coverage above budget: bids beyond the budget always break the loop,
    # so the threshold is the budget itself.
    large = build_instance(values=[10.0], subsets=[{0}], bids=[1.0], budget=5.0)
    assert tbsap_payment(0, large).payment == 5.0
    for instance in (small, large):
        tau = critical_bid_bisection(instance, 0, tbsap_allocate)
        assert tbsap_payment(0, instance).payment == pytest.approx(tau, abs=1e-9)


def test_all_negative_unit_gains_empty():
    instance = build_instance(
        values=[1.0, 1.0], subsets=[{0}, {1}], bids=[5.0, 9.0], budget=20.0
    )
    assert tbsap_allocate(instance) == []
    outcome = tbsap(instance)
    assert outcome.winners == ()
    assert outcome.profit == 0.0


def test_single_winner_trivial():
    instance = build_instance(values=[4.0], subsets=[{0}], bids=[2.0], budget=5.0)
    assert tbsap_allocate(instance) == [0]


def test_non_winner_payment_rejected(example_instance):
    with pytest.raises(NotWinnerError):
        tbsap_payment(2, example_instance)


@pytest.mark.parametrize("bad", [True, 1.0, np.int64(1)])
def test_payment_refuses_an_id_that_is_not_an_int(example_instance, bad):
    # each equals winner 1, whose trace it would return under its own label
    with pytest.raises(ValueError, match=re.escape(f"vehicle id {bad!r} is not an int")):
        tbsap_payment(bad, example_instance)
    assert tbsap_payment(1, example_instance).vehicle_id == 1


def test_selection_unit_gains_non_increasing():
    rng = np.random.default_rng(7)
    for _ in range(40):
        instance = random_synthetic_instance(rng)
        order = tbsap_allocate(instance)
        gains = [
            marginal_gain(vid, order[:k], instance).unit_gain
            for k, vid in enumerate(order)
        ]
        for earlier, later in zip(gains, gains[1:]):
            assert later <= earlier + 1e-9


def test_tbsap_winners_prefix_of_greedy():
    # Both mechanisms agree until the first unaffordable argmax, where the
    # break rule stops and the filter rule keeps going.
    rng = np.random.default_rng(8)
    for _ in range(60):
        instance = random_synthetic_instance(rng)
        stopped = tbsap_allocate(instance)
        continued = list(greedy_heuristic(instance).winners)
        assert continued[: len(stopped)] == stopped


def test_properties_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(40):
        instance = random_synthetic_instance(rng)
        outcome = tbsap(instance)
        assert outcome.total_bid <= instance.budget + 1e-12
        covered_value = coverage_value(outcome.winners, instance)
        assert outcome.profit == pytest.approx(
            covered_value - sum(outcome.payments.values())
        )
        for k, vid in enumerate(outcome.winners):
            bid = instance.vehicle(vid).bid
            payment = outcome.payments[vid]
            # individual rationality, then per-winner profitability
            assert payment >= bid - 1e-9
            marginal = marginal_gain(vid, outcome.winners[:k], instance)
            assert marginal.gain + bid >= payment - 1e-9
        assert outcome.profit >= -1e-9
        assert outcome.profit <= greedy_heuristic(instance).profit + 1e-9


def test_payments_match_bisection_random():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(30):
        instance = random_synthetic_instance(rng)
        for vid in tbsap_allocate(instance):
            tau = critical_bid_bisection(instance, vid, tbsap_allocate)
            payment = tbsap_payment(vid, instance).payment
            assert payment == pytest.approx(tau, abs=1e-6)
            checked += 1
    assert checked >= 30


def test_payments_match_bisection_geometric():
    for seed in range(4):
        instance = dense_scenario(seed, budget=15.0)
        winners = tbsap_allocate(instance)
        for vid in winners[:5]:
            tau = critical_bid_bisection(instance, vid, tbsap_allocate)
            assert tbsap_payment(vid, instance).payment == pytest.approx(
                tau, abs=1e-6
            )


def test_bid_monotonicity_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        instance = random_synthetic_instance(rng)
        for vid in tbsap_allocate(instance):
            lower = instance.vehicle(vid).bid * rng.uniform(0.1, 0.9)
            assert wins(instance, vid, lower, tbsap_allocate)


def test_critical_payment_perturbations_random():
    rng = np.random.default_rng(12)
    for _ in range(30):
        instance = random_synthetic_instance(rng)
        for vid in tbsap_allocate(instance):
            payment = tbsap_payment(vid, instance).payment
            assert not wins(instance, vid, payment + 1e-3, tbsap_allocate)
            below = payment - 1e-3
            if below <= 0:
                below = payment / 2
            assert wins(instance, vid, below, tbsap_allocate)


def test_truthfulness_random_deviations():
    rng = np.random.default_rng(13)
    for _ in range(25):
        instance = random_synthetic_instance(rng)
        truthful = tbsap(instance)
        for v in instance.vehicles:
            cost = v.true_cost
            truthful_utility = (
                truthful.payments[v.id] - cost if v.id in truthful.winners else 0.0
            )
            for _ in range(2):
                bid = float(rng.uniform(0.05, 2.0) * instance.budget)
                deviated_instance = instance.with_bid(v.id, bid)
                deviated = tbsap(deviated_instance)
                utility = (
                    deviated.payments[v.id] - cost
                    if v.id in deviated.winners
                    else 0.0
                )
                assert utility <= truthful_utility + 1e-9


def test_payment_trace_structure(example_instance):
    trace = tbsap_payment(1, example_instance)
    assert trace.vehicle_id == 1
    assert [s.candidate_id for s in trace.candidates] == [0, 2]
    assert len(trace.candidates) <= len(example_instance.vehicles) - 1
    pool = [s.contribution for s in trace.candidates]
    if trace.tail_value is not None:
        pool.append(min(trace.tail_value, trace.tail_slack))
    assert trace.payment == max(pool)
