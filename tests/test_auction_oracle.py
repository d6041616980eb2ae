import itertools

import numpy as np
import pytest

from trafficmarket.auction import (
    SizeLimitError,
    brute_force_optimum,
    greedy_heuristic,
    tbsap,
)
from trafficmarket.model import paper_example

from conftest import build_instance, random_synthetic_instance
from oracles import reduced_profit


def test_example_optimum(example_instance):
    # {v1, v2} covers all five tasks for a bid total of 4: Pbar = 16-4 = 12.
    # The greedy pick {v0, v1} only reaches 10.
    outcome = brute_force_optimum(example_instance)
    assert outcome.winners == (1, 2)
    assert outcome.profit == 12.0
    assert greedy_heuristic(example_instance).profit == 10.0


def test_example_optimum_cross_checked_by_itertools(example_instance):
    best = 0.0
    for r in range(4):
        for combo in itertools.combinations(range(3), r):
            if sum(example_instance.vehicle(v).bid for v in combo) > 5.0:
                continue
            best = max(best, reduced_profit(combo, example_instance))
    assert brute_force_optimum(example_instance).profit == best == 12.0


def test_empty_instance():
    instance = build_instance(values=[1.0], subsets=[], bids=[], budget=1.0)
    outcome = brute_force_optimum(instance)
    assert outcome.winners == ()
    assert outcome.profit == 0.0


def test_size_guard():
    instance = build_instance(
        values=[1.0],
        subsets=[{0}] * 25,
        bids=[1.0] * 25,
        budget=5.0,
    )
    with pytest.raises(SizeLimitError):
        brute_force_optimum(instance)


def test_respects_budget():
    instance = build_instance(
        values=[10.0, 10.0], subsets=[{0}, {1}], bids=[3.0, 3.0], budget=4.0
    )
    outcome = brute_force_optimum(instance)
    assert outcome.winners == (0,)
    assert outcome.total_bid <= 4.0


def test_greedy_never_beats_oracle():
    rng = np.random.default_rng(21)
    for _ in range(80):
        instance = random_synthetic_instance(rng)
        optimum = brute_force_optimum(instance)
        assert greedy_heuristic(instance).profit <= optimum.profit + 1e-9
        assert optimum.total_bid <= instance.budget + 1e-12


def test_tbsap_reduced_profit_never_beats_oracle():
    # The oracle maximizes Pbar; the allocation's Pbar (not its profit after
    # critical payments) must stay below it.
    rng = np.random.default_rng(22)
    for _ in range(40):
        instance = random_synthetic_instance(rng)
        winners = tbsap(instance).winners
        assert reduced_profit(winners, instance) <= (
            brute_force_optimum(instance).profit + 1e-9
        )
