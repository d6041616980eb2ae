"""The one-pass critical payments against the slow exclusion-run oracle.

On small-integer appraisements and bids every coverage sum and every spend
is exact and unit-gain ties are real, so the fast path must reproduce the
oracle's positions bit for bit. Float instances are held to 1e-9. A golden
digest pins the exact bits of both mechanisms on geometric instances.

``tbsap`` folds every payment from a trace whose suffixes end once no later
position can raise the payment, while ``tbsap_payment`` scans in full, so
the two are compared bit for bit. The set-up cache is checked against
outcomes from a new interpreter, budget sweeps that fold a cached trace
against ``tbsap_payment`` and ``tbsap`` on an emptied cache, and the rule
that caps a trace at the first call's budget directly.
"""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trafficmarket
from trafficmarket import auction
from trafficmarket.auction import (
    _CoverageState,
    _critical_scans,
    greedy_heuristic,
    tbsap,
    tbsap_allocate,
    tbsap_payment,
)
from trafficmarket.model import dumps_scenario

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


def assert_payments_match_full_scans(instance):
    """Every ``tbsap`` payment has the bits of the winner's full scan;
    returns (positions in the trace a first call at this budget builds,
    positions in the full scans), leftover-coverage rows counted on both."""
    outcome = tbsap(instance)
    full = 0
    for w in outcome.winners:
        trace = tbsap_payment(w, instance)
        assert outcome.payments[w].hex() == trace.payment.hex(), w
        full += len(trace.candidates) + (trace.tail_value is not None)
    state = _CoverageState(instance)
    cut = sum(len(rows) for _, _, rows in _critical_scans(state, instance.budget, True))
    return cut, full


@pytest.mark.parametrize("seed", [0, 1])
def test_cut_scans_match_full_scans_on_dense_maps(seed):
    base = dense_scenario(seed, n_tasks=200, n_vehicles=1000, side=1000.0)
    cut = full = 0
    for budget in (25.0, 50.0, 100.0, 200.0, 400.0):
        c, f = assert_payments_match_full_scans(base.with_budget(budget))
        cut, full = cut + c, full + f
    # the early exit does fire here, so the comparison is not vacuous
    assert cut < full


def test_cut_scans_match_full_scans_on_float_instances():
    rng = np.random.default_rng(34)
    cut = full = 0
    for _ in range(300):
        c, f = assert_payments_match_full_scans(
            random_synthetic_instance(rng, max_n=50, max_m=100)
        )
        cut, full = cut + c, full + f
    assert cut < full


def test_replacement_bid_rounded_above_the_gain_still_counts():
    # Vehicles 1 and 2 have unit gain exactly 0, so vehicle 0's replacement
    # bid at each is fl(fl(bid * 7.82) / bid): 7.82 itself at vehicle 1, and
    # one ulp above it at vehicle 2. An early exit that ties the best at
    # 7.82 without the widening margin would miss that ulp.
    instance = build_instance(
        [7.82, 1.469, 7.135], [[0], [1], [2]], [3.91, 1.469, 7.135], 100.0
    )
    up = math.nextafter(7.82, math.inf)
    assert [s.replacement_bid for s in tbsap_payment(0, instance).candidates] == [7.82, up]
    assert tbsap(instance).payments[0] == up
    # Bidding 7.82, vehicle 0 ties at unit gain 0 and is picked first, so its
    # best entry at the least budget at which it wins is 7.82 from vehicle 1.
    assert tbsap(instance.with_bid(0, 7.82)).payments[0] == up


def test_replacement_bid_far_above_the_gain_still_counts():
    # A product below the normal range rounds with an absolute error, so a
    # replacement bid can exceed the gain by more than an ulp: here by one
    # at vehicle 0 and by 86 (2e-14 relative) at vehicle 2. Every vehicle
    # has unit gain 0, so vehicle 1's best entry before vehicle 2 is the
    # first of these, above its gain; only the 1e-12 margin keeps the scan
    # going to the second.
    gain = 1.2345e-150
    instance = build_instance(
        [1.04e-160, gain, 1.014e-160], [[0], [1], [2]], [1.04e-160, gain, 1.014e-160], 100.0
    )
    bids = [s.replacement_bid for s in tbsap_payment(1, instance).candidates]
    assert bids == [math.nextafter(gain, math.inf), 1.2345000000000232e-150]
    assert tbsap(instance).payments[1] == bids[1]


FRESH = """
import sys
from trafficmarket.auction import greedy_heuristic, tbsap
from trafficmarket.model import loads_scenario
for text in sys.stdin.read().split("\\0"):
    instance = loads_scenario(text)
    print(repr((tbsap(instance), greedy_heuristic(instance))))
"""


def fresh_outcomes(instances) -> list[str]:
    """``repr`` of (tbsap, greedy) per instance, from a new interpreter that
    parses each instance on its own, so no geometry is shared."""
    env = dict(os.environ, PYTHONPATH=str(Path(trafficmarket.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", FRESH],
        input="\0".join(map(dumps_scenario, instances)),
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return done.stdout.splitlines()


def outcomes(instances) -> list[str]:
    return [repr((tbsap(i), greedy_heuristic(i))) for i in instances]


def test_setup_cache_matches_a_fresh_process():
    a = dense_scenario(3, n_tasks=60, n_vehicles=120, budget=40.0, side=300.0)
    b = dense_scenario(4, n_tasks=60, n_vehicles=120, budget=40.0, side=300.0)
    assert a.tasks != b.tasks
    winners = tbsap(a).winners
    winner, loser = winners[0], next(v.id for v in a.vehicles if v.id not in winners)
    # same tasks tuple; a loser now senses what the first winner senses
    swapped = replace(
        a,
        vehicles=tuple(
            replace(v, task_subset=frozenset(a.vehicles[winner].task_subset))
            if v.id == loser else v
            for v in a.vehicles
        ),
    )
    assert swapped.tasks is a.tasks
    assert swapped.vehicles[loser].task_subset != a.vehicles[loser].task_subset
    cases = [
        a, b, a.with_budget(10.0), b.with_budget(100.0), a,  # A/B/A interleave
        a.with_bid(winner, a.vehicles[winner].bid * 2.5),
        a.with_bid(loser, a.vehicles[loser].bid / 4),
        swapped, a, swapped.with_budget(20.0),
    ]
    fresh = fresh_outcomes(cases)
    assert fresh[7] != fresh[0]  # the swap changes the outcome
    assert outcomes(cases) == fresh


@pytest.mark.parametrize("bid", [math.nan, 0.0, -1.0])
def test_bad_bid_on_a_cached_geometry_raises(bid):
    instance = dense_scenario(5, n_tasks=60, n_vehicles=120, side=300.0)
    tbsap(instance)
    for mechanism in (tbsap, greedy_heuristic, tbsap_allocate):
        with pytest.raises(ValueError):
            mechanism(instance.with_bid(1, bid))


def cold(instance):
    """``tbsap`` and each winner's ``tbsap_payment`` on an emptied cache, so
    the trace is built afresh, capped at this budget; the cache is put back
    afterwards, so a sweep under test goes on with its own trace."""
    saved = auction._last_geometry
    auction._last_geometry = ((), None, None)
    try:
        outcome = tbsap(instance)
        assert auction._last_geometry[2][1] == instance.budget
        return outcome, [tbsap_payment(w, instance).payment for w in outcome.winners]
    finally:
        auction._last_geometry = saved


def exact(outcome):
    payments = [outcome.payments[w].hex() for w in outcome.winners]
    return outcome.winners, payments, outcome.profit.hex(), outcome.total_bid.hex()


def boundary_budgets(instance) -> list[float]:
    """The spend after each pick of a run no budget stops, one ulp either
    side of it, and zero: the budgets where a pick starts or stops fitting."""
    bids = [float(v.bid) for v in instance.vehicles]
    spends = [0.0]
    for k in tbsap_allocate(instance.with_budget(2 * sum(bids))):
        spends.append(spends[-1] + bids[k])
    return [b for s in spends for b in (s, math.nextafter(s, 0.0), math.nextafter(s, math.inf))]


def small_geometric(rng):
    seed, n = int(rng.integers(2**31)), int(rng.integers(20, 70))
    return dense_scenario(seed, n_tasks=30, n_vehicles=n, side=120.0)


@st.composite
def budget_sweeps(draw):
    """Calls on one geometry at budgets in any order, repeats included,
    interleaved with a copy that changes one bid and with a second geometry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([integer_instance, random_synthetic_instance, small_geometric]))
    main, other = make(rng), make(rng)
    v = draw(st.integers(0, len(main.vehicles) - 1))
    # the first choice keeps the bids, so that copy may share the trace
    bid = draw(st.sampled_from([main.vehicles[v].bid, main.vehicles[v].bid / 3, 1.0, 2.0]))
    variants = [main, main.with_bid(v, bid), other]
    pool = boundary_budgets(main) + boundary_budgets(other)
    budget = st.sampled_from(pool) | st.floats(0.0, max(pool) * 1.1)
    variant = st.sampled_from([0, 0, 0, 1, 2])
    steps = draw(st.lists(st.tuples(variant, budget), min_size=1, max_size=10))
    descending = sorted((budget for _, budget in steps), reverse=True)
    steps += [(0, budget) for budget in descending] + steps[:1]
    return [variants[i].with_budget(budget) for i, budget in steps]


@settings(max_examples=200)
@given(sweep=budget_sweeps())
def test_budget_sweeps_match_an_emptied_cache(sweep):
    # tbsap_payment scans in full with no trace, so it is the independent
    # reference; the cold call checks the outcome's other fields
    for instance in sweep:
        outcome = tbsap(instance)
        want, payments = cold(instance)
        assert exact(outcome) == exact(want)
        assert exact(outcome)[1] == [p.hex() for p in payments]


def test_trace_is_capped_at_the_first_budget():
    instance = dense_scenario(6, n_tasks=60, n_vehicles=120, side=300.0)
    tbsap(instance.with_budget(10.0))
    memo = auction._last_geometry[2]
    trace = memo[2]
    assert memo[1] == 10.0  # new bids: built at this budget
    for budget in (10.0, 4.0, 0.0):
        tbsap(instance.with_budget(budget))
        assert memo[1] == 10.0 and memo[2] is trace  # within the cap: folded
    tbsap(instance.with_bid(0, instance.vehicles[0].bid).with_budget(10.0))  # same bids
    assert memo[1] == 10.0 and memo[2] is trace
    tbsap(instance.with_budget(30.0))
    assert memo[1] == math.inf and memo[2] is not trace  # above the cap: rebuilt
    uncapped = memo[2]
    assert len(uncapped) > len(trace)  # the cap left picks out
    for budget in (1e9, 5.0):
        tbsap(instance.with_budget(budget))
        assert memo[2] is uncapped  # rebuilt once only
    tbsap(instance.with_bid(0, instance.vehicles[0].bid * 2).with_budget(5.0))
    assert memo[1] == 5.0 and memo[2] is not uncapped  # new bids: built again
