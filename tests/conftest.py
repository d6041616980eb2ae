from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

import trafficmarket.consensus as consensus
from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    Task,
    Vehicle,
    generate_scenario,
    paper_example,
)

settings.register_profile("suite", max_examples=100, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def example_instance() -> AuctionInstance:
    return paper_example()


def build_instance(values, subsets, bids, budget) -> AuctionInstance:
    """Hand-built instance helper: positions are irrelevant placeholders."""
    tasks = tuple(
        Task(id=j, x=float(j), y=0.0, appraisement=float(a))
        for j, a in enumerate(values)
    )
    vehicles = tuple(
        Vehicle(
            id=i,
            x=0.0,
            y=float(i),
            detection_distance=0.0,
            true_cost=float(b),
            task_subset=frozenset(s),
            bid=float(b),
        )
        for i, (s, b) in enumerate(zip(subsets, bids))
    )
    return AuctionInstance(tasks=tasks, vehicles=vehicles, budget=float(budget))


def dense_scenario(seed, n_tasks=40, n_vehicles=30, budget=30.0, side=150.0):
    """Geometric instance small enough for tests but with real overlap."""
    return generate_scenario(
        ScenarioConfig(
            n_tasks=n_tasks,
            n_vehicles=n_vehicles,
            budget=budget,
            rng_seed=seed,
            city_side=side,
        )
    )


def random_synthetic_instance(rng: np.random.Generator, max_n=8, max_m=10):
    """Adversarially overlapping instance, not tied to geometry."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    values = rng.uniform(0.0, 10.0, size=m)
    values = 10.0 - values  # (0, 10]
    subsets = []
    for _ in range(n):
        size = int(rng.integers(1, m + 1))
        subsets.append(rng.choice(m, size=size, replace=False).tolist())
    bids = 10.0 - rng.uniform(0.0, 10.0, size=n)
    budget = float(1.0 + rng.uniform(0.0, 1.0) * 3.0 * float(np.sum(bids)))
    return build_instance(values, subsets, bids, budget)


@contextmanager
def kept_tallies():
    """The tally of each election held inside the block, in order: the float
    per node id that ``consensus._tally`` returns, kept as it goes by."""
    tallies, tally = [], consensus._tally

    def keep(pools, weights, home):
        tallies.append(tally(pools, weights, home))
        return tallies[-1]

    consensus._tally = keep
    try:
        yield tallies
    finally:
        consensus._tally = tally
