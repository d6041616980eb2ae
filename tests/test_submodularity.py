"""Coverage value A is monotone submodular; reduced profit inherits the
diminishing-returns inequality since the bid term cancels."""

import numpy as np
import pytest

from trafficmarket.model import coverage_value

from conftest import random_synthetic_instance
from oracles import marginal_gain


def sample_nested_sets(rng, ids):
    ids = list(ids)
    rng.shuffle(ids)
    cut_x = int(rng.integers(0, len(ids)))
    cut_y = int(rng.integers(cut_x, len(ids)))
    return ids[:cut_x], ids[:cut_y], ids[cut_y:]


def test_marginal_coverage_diminishes():
    rng = np.random.default_rng(100)
    done = 0
    while done < 400:
        instance = random_synthetic_instance(rng)
        if len(instance.vehicles) < 2:
            continue
        smaller, larger, rest = sample_nested_sets(
            rng, [v.id for v in instance.vehicles]
        )
        if not rest:
            continue
        v = rest[0]
        gain_small = coverage_value(smaller + [v], instance) - coverage_value(
            smaller, instance
        )
        gain_large = coverage_value(larger + [v], instance) - coverage_value(
            larger, instance
        )
        assert gain_large <= gain_small + 1e-9
        done += 1


def test_reduced_profit_marginals_diminish():
    rng = np.random.default_rng(101)
    done = 0
    while done < 400:
        instance = random_synthetic_instance(rng)
        if len(instance.vehicles) < 2:
            continue
        smaller, larger, rest = sample_nested_sets(
            rng, [v.id for v in instance.vehicles]
        )
        if not rest:
            continue
        v = rest[0]
        assert (
            marginal_gain(v, larger, instance).gain
            <= marginal_gain(v, smaller, instance).gain + 1e-9
        )
        done += 1


def test_unit_gain_scales_with_bid(example_instance):
    # Phat = Pbar / b exactly, cross-checked on the worked example.
    gain = marginal_gain(0, [], example_instance)
    assert gain.unit_gain * 2.0 == pytest.approx(gain.gain)
    assert gain.gain == 9.0
