import numpy as np
import pytest

from trafficmarket.auction import (
    brute_force_optimum,
    greedy_heuristic,
    tbsap,
    tbsap_allocate,
)
from trafficmarket.model import paper_example

from conftest import build_instance, dense_scenario, random_synthetic_instance
from oracles import marginal_gain, reduced_profit


def test_example_first_iteration_unit_gains(example_instance):
    # Direct evaluation: (11-2)/2, (10-2)/2, (11-2)/2. The third vehicle
    # ties the first at 4.5; ties go to the lowest id.
    assert marginal_gain(0, [], example_instance).unit_gain == 4.5
    assert marginal_gain(1, [], example_instance).unit_gain == 4.0
    assert marginal_gain(2, [], example_instance).unit_gain == 4.5


def test_example_second_iteration_unit_gains(example_instance):
    assert marginal_gain(1, [0], example_instance).unit_gain == 0.5
    assert marginal_gain(2, [0], example_instance).unit_gain == 0.0


def test_example_greedy_outcome(example_instance):
    outcome = greedy_heuristic(example_instance)
    assert outcome.winners == (0, 1)
    assert outcome.payments == {0: 2.0, 1: 2.0}
    assert outcome.total_bid == 4.0
    assert outcome.profit == 10.0


def test_example_reduced_profits(example_instance):
    assert reduced_profit([], example_instance) == 0.0
    assert reduced_profit([0], example_instance) == 9.0
    assert reduced_profit([0, 1], example_instance) == 10.0


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_example_greedy_is_untruthful(example_instance, lam):
    # v1 overbids its cost by lam and still wins; paid-bid pricing hands it
    # the overbid, so lying beats truth-telling under the greedy heuristic.
    truthful = greedy_heuristic(example_instance)
    truthful_utility = truthful.payments[1] - example_instance.vehicle(1).true_cost
    assert truthful_utility == 0.0

    deviated = example_instance.with_bid(1, 2.0 + lam)
    second_gain = marginal_gain(1, [0], deviated)
    assert second_gain.unit_gain == pytest.approx(3.0 / (2.0 + lam) - 1.0)

    outcome = greedy_heuristic(deviated)
    assert outcome.winners == (0, 1)
    lying_utility = outcome.payments[1] - deviated.vehicle(1).true_cost
    assert lying_utility == pytest.approx(lam)
    assert lying_utility > truthful_utility


def test_all_bids_over_budget_wins_nothing():
    instance = build_instance(
        values=[5.0, 5.0], subsets=[{0}, {1}], bids=[9.0, 7.0], budget=5.0
    )
    outcome = greedy_heuristic(instance)
    assert outcome.winners == ()
    assert outcome.profit == 0.0


def test_filter_semantics_continue_past_expensive_candidate():
    # The best unit gain (v0) does not fit the budget; the filter drops it
    # and keeps selecting among the affordable rest, unlike the break rule.
    instance = build_instance(
        values=[100.0, 4.0],
        subsets=[{0}, {1}],
        bids=[6.0, 1.0],
        budget=5.0,
    )
    outcome = greedy_heuristic(instance)
    assert outcome.winners == (1,)
    assert tbsap_allocate(instance) == []


def test_zero_gain_candidate_is_still_selected():
    # Stop rule is strictly negative: a vehicle whose marginal value equals
    # its bid is taken.
    instance = build_instance(values=[2.0], subsets=[{0}], bids=[2.0], budget=4.0)
    assert greedy_heuristic(instance).winners == (0,)


def test_budget_never_exceeded_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        instance = random_synthetic_instance(rng)
        outcome = greedy_heuristic(instance)
        assert outcome.total_bid <= instance.budget + 1e-12
        assert set(outcome.payments) == set(outcome.winners)


def test_selection_sequence_never_negative():
    rng = np.random.default_rng(43)
    for _ in range(40):
        instance = random_synthetic_instance(rng)
        winners = greedy_heuristic(instance).winners
        for k, vid in enumerate(winners):
            assert marginal_gain(vid, winners[:k], instance).gain >= -1e-9


def test_geometric_scenarios_run():
    for seed in range(5):
        instance = dense_scenario(seed)
        outcome = greedy_heuristic(instance)
        assert outcome.profit >= -1e-9
        assert reduced_profit(outcome.winners, instance) == pytest.approx(
            outcome.profit
        )


def test_zero_bid_rejected():
    instance = build_instance(
        values=[1.0, 1.0], subsets=[{0}, {1}], bids=[0.0, 1.0], budget=3.0
    )
    with pytest.raises(ValueError, match="positive"):
        greedy_heuristic(instance)


def test_empty_instance():
    instance = build_instance(values=[1.0], subsets=[], bids=[], budget=2.0)
    outcome = greedy_heuristic(instance)
    assert outcome.winners == ()
    assert outcome.profit == 0.0


def test_zero_budget_buys_nothing():
    instance = paper_example().with_budget(0.0)
    for mechanism in (greedy_heuristic, tbsap, brute_force_optimum):
        outcome = mechanism(instance)
        assert outcome.winners == ()
        assert outcome.payments == {}
        assert outcome.profit == 0.0
        assert outcome.total_bid == 0.0
