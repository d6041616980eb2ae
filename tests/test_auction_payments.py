"""The one-pass critical payments against the slow exclusion-run oracle.

On small-integer appraisements and bids every coverage sum and every spend
is exact and unit-gain ties are real, so the fast path must reproduce the
oracle's positions bit for bit. Float instances are held to 1e-9. A golden
digest pins the exact bits of both mechanisms on geometric instances.

``tbsap`` reads every payment from one record per bid vector, whose walk
prices its own budget and whose suffixes end once no later position can
raise the payment, while ``tbsap_payment`` runs the greedy over everyone
but the winner in full on its own fork of the start state, with no record,
so the two are compared bit for bit, and a test checks that it makes no
record. The set-up cache is checked against outcomes from a new
interpreter, budget sweeps that fold a cached record against
``tbsap_payment`` and ``tbsap`` on an emptied cache (also after a greedy
call made the record without rows), and the rule that walks at the first
call's budget and then with no cap, directly. A record read below its cap
is folded as arrays, against the full scans below the cap of a dense map
and of overlapping synthetic instances, where the cut drops rows, and
tests pin a zero payment beside a -0.0 entry, budgets at every spend where
a pick or a row stops fitting, and leftover rows, and check that such a
fold builds no greedy state, that a greedy, an allocation or ``tbsap``
call at or below the walk's budget walks no more, and that the mechanisms
interleaved on one geometry match an emptied cache. Tie families with
values across the whole float range keep the cut exact where a product
leaves the normal range. A suffix whose bound holds on the state a pick
leaves ends there, with no further pop and no leftover row. The total
bid, which ``tbsap`` reads off the record, must have the bits of its
winners' bids folded in pick order.

A call on the ``(tasks, vehicles)`` pair the memo holds checks only its
budget, so bad budgets, bad bids and bad subsets right after a cached call
must still raise. ``greedy_heuristic`` is checked against ``slow_greedy``
at every boundary budget, on fresh bids and beside a capped and an
uncapped priced record. It reads the break greedy's picks from the same
record as ``tbsap_allocate``: budget sweeps in rising, falling and
shuffled order, a capped, a complete and a reset record, the fit test
after the first drop, and a new interpreter check it against the oracle;
beside a walk that met no misfit it forks nothing.

The greedy rebuilds the state after its first n picks from the walk's
gains after them; that state must have the bits of n ``select`` calls, on
the seed-1009 auction-dense map and on smaller dense maps, and the greedy
must match the oracle on their budget sweeps in any order. A walk's own
payments at its cap must have the bits of its rows folded as columns and
of the full scans. The memo keeps the last winners' coverage across bid
vectors and budgets, so those alternate against an emptied cache, empty
winners included. Ids that equal an int but are not one are refused.
"""

import functools
import hashlib
import heapq
import itertools
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trafficmarket
from trafficmarket import auction, model
from trafficmarket.auction import (
    _CoverageState,
    _Record,
    brute_force_optimum,
    greedy_heuristic,
    tbsap,
    tbsap_allocate,
    tbsap_payment,
)
from trafficmarket.model import (
    AuctionInstance,
    AuctionOutcome,
    ScenarioConfig,
    coverage_value,
    dumps_scenario,
    generate_scenario,
    left_sum,
    paper_example,
)

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
    start = auction._memo(instance).start
    cut = len(_Record(start, instance.budget, price=True).rows) // 2  # two floats a row
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


def test_cut_records_fold_below_their_cap_on_float_instances():
    # A record priced at B, folded at 0, at every spend after a pick and
    # one ulp either side, up to B: the cut drops about a quarter of the
    # rows on these overlapping instances (2,734 kept of 3,618 at B), and
    # each fold must have the bits of the full scans at its budget
    rng = np.random.default_rng(35)
    folds = below = cut = full = 0
    for _ in range(300):
        instance = random_synthetic_instance(rng, max_n=50, max_m=100)
        cap = instance.budget
        record = _Record(auction._memo(instance).start, cap, price=True)
        cut += len(record.rows) // 2
        for w in record.picks:
            trace = tbsap_payment(w, instance)
            full += len(trace.candidates) + (trace.tail_value is not None)
        spends = [b for s in record.reach
                  for b in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))]
        for budget in [0.0] + [b for b in spends if b <= cap]:
            case = instance.with_budget(budget)
            got = record.fold(budget)
            assert list(got) == tbsap_allocate(case), budget
            want = [tbsap_payment(w, case).payment.hex() for w in got]
            assert [p.hex() for p in got.values()] == want, budget
            folds += 1
            below += budget < cap and bool(got)
    assert below > folds // 2  # most folds read the columns, with winners
    assert cut < full


def test_a_suffix_stops_on_the_state_its_bound_rules_out(monkeypatch):
    # Vehicle 0 is picked first, then vehicle 1. In the run without 1, its
    # prefix row ties vehicle 0 at 1 * 12 / 10, and the suffix picks vehicle
    # 2, whose row raises the max to 5 * 12 / 10. Vehicle 2 covers task 2,
    # which leaves vehicle 1 a gain of 2, below that max: the scan ends on
    # that state, with no pop (vehicle 3 is left, at a negative unit gain)
    # and no leftover row
    instance = build_instance([10.0, 2.0, 10.0, 1.0], [[0], [1, 2], [2], [3]],
                              [1.0, 2.0, 5.0, 2.0], 100.0)
    popped, pop_best = [], _CoverageState.pop_best
    monkeypatch.setattr(
        _CoverageState, "pop_best", lambda self: popped.append(self.spent) or pop_best(self)
    )
    record = _Record(auction._memo(instance).start, instance.budget, price=True)
    monkeypatch.undo()
    assert record.picks == [0, 1]
    start, end = record.offsets[1:3]
    assert record.rows[2 * start : 2 * end] == [1.0 * 12.0 / 10.0, 0.0, 5.0 * 12.0 / 10.0, 1.0]
    assert 1.0 + 5.0 not in popped  # the spend once vehicle 2 is in, without vehicle 1
    assert record.paid[1] == tbsap_payment(1, instance).payment == 6.0


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


def test_payment_cut_is_exact_below_the_normal_range():
    # Every unit gain is 0 and ids break the ties. Vehicle 0's replacement
    # bid for vehicle 2 comes from a product below the normal range and lands
    # above vehicle 2's gain by far more than the margin; with vehicle 1's
    # slack it is the best entry before vehicle 3, and a cut there loses
    # vehicle 3's larger one. So the trace of such bids is built uncut.
    values = [5.140139183153108e-168, 1.0, 1.2345e-150, 1.0451280436117553e-173]
    instance = build_instance(values, [[0], [1], [2], [3]], values, 100.0)
    want = "0x1.291ba0151afb5p-498"
    assert tbsap_payment(2, instance).payment.hex() == want
    assert tbsap(instance).payments[2].hex() == want


@st.composite
def tie_families(draw):
    """Calls at several budgets on vehicles with one task each that bid its
    value, so every unit gain is 0 and the picks run in id order. An anchor
    value has its exponent drawn across the whole float range. One or two
    values before it and one or two after it have exponents that put their
    product with the anchor below the normal range, where it can round far
    off, or (one in four) anywhere. A filler worth 1.0 may be put anywhere,
    to leave slack. Budgets are the spend after each pick and one ulp
    either side, 100 and the largest float."""
    anchor = draw(st.integers(-1074, 1023))
    near = st.integers(-1070, -1050).map(lambda e: max(-1074, min(1023, e - anchor)))
    exponent = st.sampled_from([near, near, near, st.integers(-1074, 1023)]).flatmap(lambda s: s)
    before, after = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    exponents = [draw(exponent) for _ in range(before)] + [anchor]
    exponents += [draw(exponent) for _ in range(after)]
    values = [math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), e) for e in exponents]
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), 1.0)
    instance = build_instance(values, [[v] for v in range(len(values))], values, 0.0)
    spends = itertools.accumulate(values)
    pool = [b for s in spends for b in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))]
    pool = [b for b in pool if math.isfinite(b)] + [100.0, sys.float_info.max]
    budgets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return [instance.with_budget(budget) for budget in budgets]


@settings(max_examples=200)
@given(sweep=tie_families())
def test_tie_families_match_full_scans_at_every_magnitude(sweep):
    for instance in sweep:
        outcome = tbsap(instance)
        assert exact(outcome)[1] == [
            tbsap_payment(w, instance).payment.hex() for w in outcome.winners
        ]


FRESH = """
import sys
from trafficmarket import auction
from trafficmarket.model import loads_scenario
mechanisms = [getattr(auction, name) for name in sys.argv[1:]]
for text in sys.stdin.read().split("\\0"):
    instance = loads_scenario(text)
    print(repr(tuple(mechanism(instance) for mechanism in mechanisms)))
"""


def fresh_outcomes(instances, mechanisms=(tbsap, greedy_heuristic)) -> list[str]:
    """``repr`` of each mechanism's outcome per instance, from a new
    interpreter that parses each instance on its own, so no geometry is
    shared."""
    env = dict(os.environ, PYTHONPATH=str(Path(trafficmarket.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", FRESH, *(m.__name__ for m in mechanisms)],
        input="\0".join(map(dumps_scenario, instances)),
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return done.stdout.splitlines()


def outcomes(instances, mechanisms=(tbsap, greedy_heuristic)) -> list[str]:
    return [repr(tuple(m(i) for m in mechanisms)) for i in instances]


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
        assert auction._last_geometry[2].record.cap == instance.budget
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
@given(sweep=budget_sweeps(), lead=st.sampled_from([None, 0.5, 1.0, 2.0]))
def test_budget_sweeps_match_an_emptied_cache(sweep, lead):
    # tbsap_payment runs its own full scan on a fork of the start state and
    # never reads the record, so it is the independent reference; the cold
    # call checks the outcome's other fields. With a lead the sweep starts
    # on an emptied cache after a greedy call at a lower, the same or a
    # higher budget, whose record holds no rows.
    if lead is not None:
        auction._last_geometry = ((), None, None)
        greedy_heuristic(sweep[0].with_budget(sweep[0].budget * lead))
    for instance in sweep:
        outcome = tbsap(instance)
        want, payments = cold(instance)
        assert exact(outcome) == exact(want)
        assert exact(outcome)[1] == [p.hex() for p in payments]


def assert_total_bid_is_a_left_fold(instance, outcome):
    """``tbsap`` reads its total bid off the trace, as the spend after the
    last winner: the winners' bids added from 0.0 in pick order."""
    assert type(outcome.total_bid) is float
    want = left_sum(instance.vehicle(v).bid for v in outcome.winners)
    assert outcome.total_bid.hex() == want.hex()


@settings(max_examples=150)
@given(sweep=budget_sweeps() | tie_families())
def test_total_bid_is_the_left_fold_of_the_winning_bids(sweep):
    for instance in sweep:
        assert_total_bid_is_a_left_fold(instance, tbsap(instance))


@pytest.fixture(scope="module")
def dense_map():
    """The auction-dense map at held-out seed 1009 (920 vehicles)."""
    return generate_scenario(
        ScenarioConfig(n_tasks=200, n_vehicles=4000, budget=400.0, rng_seed=1009)
    )


def test_total_bid_on_the_dense_map(dense_map):
    # the auction-dense map; rising budgets rebuild the trace uncapped,
    # falling ones fold it as columns
    for budget in (25.0, 50.0, 100.0, 200.0, 400.0, 100.0, 25.0, 0.0):
        case = dense_map.with_budget(budget)
        assert_total_bid_is_a_left_fold(case, tbsap(case))


def test_trace_is_capped_at_the_first_budget():
    instance = dense_scenario(6, n_tasks=60, n_vehicles=120, side=300.0)
    tbsap(instance.with_budget(10.0))
    memo = auction._last_geometry[2]
    trace = memo.record
    assert trace.cap == 10.0  # new bids: built at this budget
    assert trace.columns is None  # the walk priced its own budget
    for budget in (10.0, 4.0, 0.0):
        tbsap(instance.with_budget(budget))
        assert trace.cap == 10.0 and memo.record is trace  # within the cap: folded
        # the walk's payments at the cap, then columns from the first fold below it
        assert (trace.columns is None) == (budget == 10.0)
    tbsap(instance.with_bid(0, instance.vehicles[0].bid).with_budget(10.0))  # same bids
    assert memo.record is trace
    tbsap(instance.with_budget(30.0))
    assert memo.record.cap == math.inf and memo.record is not trace  # above the cap: rebuilt
    uncapped = memo.record
    assert len(uncapped.picks) > len(trace.picks)  # the cap left picks out
    for budget in (1e9, 5.0):
        tbsap(instance.with_budget(budget))
        assert memo.record is uncapped  # rebuilt once only
    tbsap(instance.with_bid(0, instance.vehicles[0].bid * 2).with_budget(5.0))
    assert memo.record.cap == 5.0 and memo.record is not uncapped  # new bids: built again


def test_one_walk_serves_every_budget_below_it(monkeypatch):
    # tbsap at B on new bids walks once, with rows; the greedy, the
    # allocation and tbsap at any budget up to B read that record
    rng = np.random.default_rng(44)
    instances = [priced_bids(rng) for _ in range(20)] + list(dense_families())
    walks = []
    init = _Record.__init__
    monkeypatch.setattr(
        _Record, "__init__", lambda self, *args: walks.append(args[1:]) or init(self, *args)
    )
    for instance in instances:
        budgets = sorted(boundary_budgets(instance))
        top = budgets[len(budgets) // 2]
        auction._last_geometry = ((), None, None)
        walks.clear()
        tbsap(instance.with_budget(top))
        assert walks == [(top, True)]
        walks.clear()
        for budget in [b for b in budgets if b <= top] + [top / 3, 0.0]:
            for mechanism in (greedy_heuristic, tbsap_allocate, tbsap):
                mechanism(instance.with_budget(budget))
        assert walks == [], instance
        tbsap(instance.with_budget(math.nextafter(top, math.inf)))  # above the cap
        assert walks == [(math.inf, True)]


def test_a_walk_that_ends_on_its_own_leaves_the_greedy_nothing_to_fork(monkeypatch):
    # tbsap's walk at 1e6 ends with no misfit, so the greedy at 1e6 takes
    # its picks and is done, as beside an unpriced record of that walk
    instance = dense_scenario(6, n_tasks=60, n_vehicles=120, side=300.0).with_budget(1e6)
    auction._last_geometry = ((), None, None)
    tbsap(instance)
    record = auction._last_geometry[2].record
    assert not record.misfit and record.cap == 1e6 and record.reach[-1] < 1e6
    forks = []
    fork = _CoverageState.fork
    monkeypatch.setattr(_CoverageState, "fork", lambda self: forks.append(1) or fork(self))
    got = greedy_heuristic(instance)
    assert forks == []
    assert exact(got) == exact(cold_call(greedy_heuristic, instance))


def test_the_reference_builds_no_record(monkeypatch, dense_map):
    # tbsap_payment runs its own greedy walks on forks of the start state: it
    # makes no record, and leaves the one tbsap made in the memo
    walks = []
    init = _Record.__init__

    def counted(self, *args, **kwargs):
        walks.append(args[1:])
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Record, "__init__", counted)
    for instance in (paper_example(), dense_map):
        outcome = tbsap(instance)
        memo = auction._last_geometry[2]
        record = memo.record
        walks.clear()
        for w in outcome.winners:
            assert tbsap_payment(w, instance).payment.hex() == outcome.payments[w].hex()
        assert walks == []
        assert auction._last_geometry[2] is memo and memo.record is record


def test_zero_payment_keeps_the_first_zero():
    # Every bid is the least float. Vehicle 0 is picked first; in the run
    # without it, its replacement bids at vehicles 1 and 2 round to +0.0 and,
    # once 1 and 2 cover its tasks and leave its gain at -2**-60, the one at
    # vehicle 3 rounds to -0.0. Its payment is the first zero, +0.0.
    tiny = math.ldexp(1.0, -1074)
    instance = build_instance(
        [1.0, 2.0**-60, 4.0, 4.0, 4.0], [[0, 1], [0, 2], [1, 3], [4]], [tiny] * 4, 1.0
    )
    rows = [r.replacement_bid.hex() for r in tbsap_payment(0, instance).candidates]
    assert rows == ["0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]
    for budget in (1.0, 0.5, 1.0):  # the second and third calls fold columns
        outcome = tbsap(instance.with_budget(budget))
        want, payments = cold(instance.with_budget(budget))
        assert exact(outcome) == exact(want)
        assert exact(outcome)[1] == [p.hex() for p in payments]
        assert outcome.payments[0].hex() == "0x0.0p+0"


def row_sums(instance) -> list[float]:
    """The spend after each pick of an uncapped walk, and after each
    candidate of the run without each pick at an unlimited budget, as
    ``tbsap_payment`` runs it: the budgets at which a pick or a row stops
    fitting."""
    memo = auction._memo(instance)
    record = _Record(memo.start, math.inf)
    sums = set(record.reach)
    for k in record.picks:
        state = memo.start.fork()
        state.heap = [key for key in state.heap if key[1] != k]
        heapq.heapify(state.heap)
        sums.update(state.spent + memo.bids[c] for c, _ in auction._picks(state, math.inf))
        sums.add(state.spent + memo.bids[k])  # the leftover row
    return sorted(sums)


def test_folds_at_misfit_thresholds():
    # Each budget sits at a spend where a pick or a row stops fitting, or
    # one ulp either side. The first call builds the trace at the largest,
    # so every later one folds columns.
    rng = np.random.default_rng(36)
    instances = [integer_instance(rng) for _ in range(40)] + [small_geometric(rng) for _ in range(2)]
    for instance in instances:
        sums = row_sums(instance)
        if len(sums) > 40:
            sums = sorted(rng.choice(sums, 40, replace=False).tolist())
        budgets = [b for s in sums for b in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))]
        tbsap(instance.with_budget(max(budgets, default=0.0)))
        for budget in budgets:
            outcome = tbsap(instance.with_budget(budget))
            want, payments = cold(instance.with_budget(budget))
            assert exact(outcome) == exact(want)
            assert exact(outcome)[1] == [p.hex() for p in payments]


def test_leftover_row_prices_the_winners():
    # Disjoint tasks: vehicle 0 is picked first, then vehicle 1, and no
    # budget break ends either scan, so each winner's last row is its
    # leftover coverage, which sets its payment; vehicle 1's is the last row
    # of the whole trace. At B=11 vehicle 0's is cut to its slack, 9.
    instance = build_instance([10.0, 10.0], [[0], [1]], [1.0, 2.0], 100.0)
    for budget in (100.0, 50.0, 11.0, 12.0, 100.0):
        outcome = tbsap(instance.with_budget(budget))
        assert outcome.winners == (0, 1)
        for w in outcome.winners:
            trace = tbsap_payment(w, instance.with_budget(budget))
            tail = min(trace.tail_value, trace.tail_slack)
            assert outcome.payments[w].hex() == trace.payment.hex() == tail.hex()
    assert outcome.payments == {0: 10.0, 1: 10.0}


def test_a_fold_builds_no_state(monkeypatch):
    instance = dense_scenario(7, n_tasks=60, n_vehicles=120, side=300.0)
    tbsap(instance.with_budget(40.0))
    built = []
    init, fork, validate = _CoverageState.__init__, _CoverageState.fork, model.validate_instance
    monkeypatch.setattr(
        _CoverageState, "__init__", lambda self, *args: built.append("init") or init(self, *args)
    )
    monkeypatch.setattr(
        _CoverageState, "fork", lambda self, *parts: built.append("fork") or fork(self, *parts)
    )
    monkeypatch.setattr(
        model, "validate_instance", lambda i: built.append("validate") or validate(i)
    )
    for budget in (40.0, 10.0, 25.0):
        tbsap(instance.with_budget(budget))
    assert built == []
    greedy_heuristic(instance)
    tbsap_allocate(instance)
    # the greedy replays tbsap's record on one fork of the cached start
    # state, and the allocation at the same budget reads the record
    assert built == ["fork"]
    for _ in range(2):  # beside the trace capped at 40, then beside an uncapped one
        for mechanism in (greedy_heuristic, tbsap_allocate, tbsap):
            for budget in (40.0, 10.0, 25.0, 0.0):
                built.clear()
                mechanism(instance.with_budget(budget))  # the pair the memo holds
                assert built in ([], ["fork"]), (mechanism, budget)
        tbsap(instance.with_budget(1e9))  # above the cap: rebuilt with no cap
    assert auction._last_geometry[2].record.cap == math.inf
    built.clear()
    tbsap(instance.with_bid(0, instance.vehicles[0].bid * 2))
    # a new pair, new bids: checked once, by the copy's constructor
    assert built.count("validate") == built.count("init") == 1


def cold_call(mechanism, instance):
    """``mechanism`` on an emptied cache, which is put back afterwards."""
    saved = auction._last_geometry
    auction._last_geometry = ((), None, None)
    try:
        return mechanism(instance)
    finally:
        auction._last_geometry = saved


def test_an_instance_is_checked_once_when_built(monkeypatch):
    example, checks, validate = paper_example(), [], model.validate_instance
    monkeypatch.setattr(model, "validate_instance", lambda i: checks.append(i) or validate(i))
    instance = AuctionInstance(example.tasks, example.vehicles, 5.0)
    assert len(checks) == 1
    for mechanism in (tbsap, greedy_heuristic, tbsap_allocate, brute_force_optimum,
                      functools.partial(tbsap_payment, 0)):
        cold_call(mechanism, instance)
    for budget in (0.0, 3.0, 1e9):
        twin = instance.with_budget(budget)
        assert twin.budget == budget and twin.tasks is instance.tasks
        assert twin.vehicles is instance.vehicles
    for bad in (math.nan, math.inf, -math.inf, -1, True):
        with pytest.raises(ValueError, match="^budget must be finite and nonnegative$"):
            instance.with_budget(bad)
    assert checks == [instance]


def sensed_last_task(seed):
    """A dense map on which some vehicle senses the last task."""
    instance = dense_scenario(seed, n_tasks=60, n_vehicles=120, side=300.0)
    assert any(len(instance.tasks) - 1 in v.task_subset for v in instance.vehicles)
    return instance


@pytest.mark.parametrize("mechanism", [greedy_heuristic, tbsap, tbsap_allocate])
def test_known_pair_still_fails_closed(mechanism):
    instance = sensed_last_task(8)
    vehicles, last = instance.vehicles, len(instance.tasks)
    # a subset naming a task the instance does not have
    bad = replace(vehicles[1], task_subset=vehicles[1].task_subset | {last})
    # each case is built inside pytest.raises: its constructor refuses it
    cases = [
        lambda: replace(instance, budget=math.nan),
        lambda: replace(instance, budget=-1.0),
        lambda: replace(instance, budget=math.inf),
        lambda: instance.with_bid(1, math.nan),
        # the same tasks tuple, a distinct vehicles tuple holding a bad subset
        lambda: replace(instance, vehicles=(vehicles[0], bad, *vehicles[2:])),
        # an equal but distinct vehicles tuple, and the last task dropped
        lambda: replace(instance, vehicles=tuple(list(vehicles)), tasks=instance.tasks[:-1]),
        # the very vehicles tuple, and the last task dropped
        lambda: replace(instance, tasks=instance.tasks[:-1]),
    ]
    for case in cases:
        mechanism(instance)  # the memo now holds this pair
        with pytest.raises(ValueError):
            mechanism(case())
    for budget in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="^budget must be finite and nonnegative$"):
            mechanism(replace(instance, budget=budget))


@pytest.mark.parametrize(
    "mechanism", [greedy_heuristic, tbsap, tbsap_allocate, brute_force_optimum]
)
def test_mutable_containers_are_rejected(mechanism):
    # the set-up cache and the memo match by identity, so a list or set
    # changed in place between calls would be read as the geometry cached
    # before it; every mechanism refuses them before any cache is read
    instance = paper_example()
    tasks, vehicles = instance.tasks, list(instance.vehicles)
    with pytest.raises(ValueError, match="^tasks and vehicles must be tuples$"):
        mechanism(AuctionInstance(tasks, vehicles, 10.0))
    vehicles[1] = replace(vehicles[1], bid=4.0)
    with pytest.raises(ValueError, match="^tasks and vehicles must be tuples$"):
        mechanism(AuctionInstance(tasks, vehicles, 10.0))
    with pytest.raises(ValueError, match="^tasks and vehicles must be tuples$"):
        mechanism(AuctionInstance(list(tasks), instance.vehicles, 10.0))
    loose = replace(instance.vehicles[2], task_subset=set(instance.vehicles[2].task_subset))
    with pytest.raises(ValueError, match="^vehicle 2 task subset must be a frozenset$"):
        mechanism(replace(instance, vehicles=(*instance.vehicles[:2], loose)))
    # the same instance built from tuples and frozensets is accepted
    fixed = AuctionInstance(tuple(tasks), tuple(vehicles), 10.0)
    assert mechanism(fixed) == cold_call(mechanism, fixed)


@pytest.mark.parametrize(
    "mechanism", [greedy_heuristic, tbsap, tbsap_allocate, brute_force_optimum]
)
@pytest.mark.parametrize("bad", [False, 0.0, np.int64(0)], ids=["bool", "float", "numpy"])
def test_ids_that_are_not_ints_are_rejected(mechanism, bad):
    # after a call that leaves the example in the memo, its vehicle 0 and
    # then its task 0 get an id that equals 0 but is not an int
    instance = paper_example()
    mechanism(instance)
    message = f"at position 0 has id {re.escape(repr(bad))}, not an int$"
    vehicles = (replace(instance.vehicles[0], id=bad), *instance.vehicles[1:])
    with pytest.raises(ValueError, match="^vehicle " + message):
        mechanism(replace(instance, vehicles=vehicles))
    tasks = (replace(instance.tasks[0], id=bad), *instance.tasks[1:])
    with pytest.raises(ValueError, match="^task " + message):
        mechanism(replace(instance, tasks=tasks))


def test_bid_copies_interleaved_match_an_emptied_cache():
    # main, a copy with one bid changed, and main again: each bid change
    # resets the memo, so the tuple held before it must miss. A budget
    # above the cap makes the trace uncapped, and main then runs beside it.
    main = dense_scenario(9, n_tasks=60, n_vehicles=120, side=300.0)
    other = main.with_bid(3, main.vehicles[3].bid / 3)
    same = main.with_bid(3, main.vehicles[3].bid)  # a distinct tuple, the same bids
    sweep = [main, other, main, same, main.with_budget(1e4), main,
             other.with_budget(10.0), main.with_budget(10.0)]
    for instance in sweep:
        for mechanism in (greedy_heuristic, tbsap, tbsap_allocate):
            got, want = mechanism(instance), cold_call(mechanism, instance)
            if isinstance(got, AuctionOutcome):
                got, want = exact(got), exact(want)
            assert got == want


def priced_bids(rng):
    """An integer instance whose bids are tenths: gains are exact, so the
    oracle's unit gains have the fast path's bits, but spends round."""
    instance = integer_instance(rng)
    vehicles = tuple(replace(v, bid=int(rng.integers(1, 40)) / 10) for v in instance.vehicles)
    return replace(instance, vehicles=vehicles)


def slow_heuristic(instance):
    """``greedy_heuristic``'s winners, total bid and profit, from the oracle."""
    picks, _, (_, spent) = slow_greedy(instance, drop_misfits=True)
    winners = tuple(pick[0] for pick in picks)
    bids = left_sum(instance.vehicles[v].bid for v in winners)
    return winners, spent.hex(), (coverage_value(winners, instance) - bids).hex()


def heuristic_view(outcome):
    return outcome.winners, outcome.total_bid.hex(), outcome.profit.hex()


def test_greedy_matches_the_oracle_beside_any_trace():
    # Budgets one ulp either side of every spend of the break greedy's
    # order. The greedy runs on fresh bids, beside a trace capped below the
    # largest budget, and beside an uncapped one.
    rng = np.random.default_rng(37)
    instances = [priced_bids(rng) for _ in range(60)] + [small_geometric(rng) for _ in range(3)]
    for instance in instances:
        budgets = boundary_budgets(instance)
        want = {b: slow_heuristic(instance.with_budget(b)) for b in budgets}
        low, high = min(budgets), 2 * max(budgets) + 1.0
        for before in ([], [low], [low, high]):
            auction._last_geometry = ((), None, None)
            for budget in before:
                tbsap(instance.with_budget(budget))
            record = getattr(auction._last_geometry[2], "record", None)  # no memo yet
            assert (record is not None and record.cap == math.inf) == (len(before) == 2)
            for budget in budgets:
                got = heuristic_view(greedy_heuristic(instance.with_budget(budget)))
                assert got == want[budget], (before, budget)


@pytest.mark.parametrize(
    "bids, budget, takes_vehicle_1",
    [
        # fl(0.3 + 0.7) = 1.0 is one ulp above B, though 0.7 > fl(B - 0.3)
        # is false: vehicle 1 is dropped and vehicle 2 fits after it
        ([0.3, 0.7, 0.05], 0.9999999999999999, False),
        # fl(0.7 + 0.1) is B, though 0.1 > fl(B - 0.7) is true: vehicle 1
        # fits and vehicle 2 no longer does
        ([0.7, 0.1, 0.05], 0.7999999999999999, True),
    ],
)
def test_greedy_keeps_its_own_fit_test(bids, budget, takes_vehicle_1):
    # a remaining-budget test (bid > B - spend) rounds apart from the fit
    # test (spend + bid > B) at vehicle 1, which the break greedy's order
    # holds second: beside any trace the greedy decides by the fit test
    instance = build_instance([20.0, 1.0, 0.06], [[0], [1], [2]], bids, budget)
    assert (bids[1] > budget - bids[0]) != (bids[0] + bids[1] > budget)
    auction._last_geometry = ((), None, None)
    outcome = greedy_heuristic(instance)  # no trace: the filter loop
    assert outcome.winners == ((0, 1) if takes_vehicle_1 else (0, 2))
    assert outcome.total_bid <= budget
    fresh = heuristic_view(outcome)
    assert fresh == slow_heuristic(instance)
    tbsap(instance)  # capped at B
    assert heuristic_view(greedy_heuristic(instance)) == fresh
    tbsap(instance.with_budget(10.0))  # rebuilt with no cap
    assert auction._last_geometry[2].record.picks == [0, 1, 2]
    assert heuristic_view(greedy_heuristic(instance)) == fresh


@settings(max_examples=100)
@given(sweep=budget_sweeps(), data=st.data())
def test_mechanisms_interleaved_match_an_emptied_cache(sweep, data):
    # budget_sweeps mixes the same bids, a changed bid and a second geometry
    mechanisms = st.sampled_from([greedy_heuristic, tbsap, tbsap_allocate])
    for instance in sweep:
        mechanism = data.draw(mechanisms)
        got, want = mechanism(instance), cold_call(mechanism, instance)
        if isinstance(got, AuctionOutcome):
            got, want = exact(got), exact(want)
        assert got == want


def sweep_budgets(instance, rng) -> list[float]:
    """The boundary budgets of ``instance`` and a few random ones; the
    call that finds them builds an order, so the cache is emptied after."""
    budgets = boundary_budgets(instance)
    budgets += rng.uniform(0.0, 1.2 * max(budgets), size=5).tolist()
    auction._last_geometry = ((), None, None)
    return budgets


def test_greedy_sweeps_match_the_oracle_in_any_order():
    # The first call of each sweep builds the order at its budget, so an
    # ascending sweep rebuilds it above each cap, a descending one builds
    # it once and replays its prefix, and a shuffled one mixes the two.
    rng = np.random.default_rng(38)
    instances = [priced_bids(rng) for _ in range(40)] + [small_geometric(rng) for _ in range(2)]
    instances += dense_families()
    for instance in instances:
        budgets = sweep_budgets(instance, rng)
        want = {b: slow_heuristic(instance.with_budget(b)) for b in budgets}
        shuffled = rng.permutation(budgets).tolist()
        for sweep in (sorted(budgets), sorted(budgets, reverse=True), shuffled):
            auction._last_geometry = ((), None, None)
            for budget in sweep:
                got = heuristic_view(greedy_heuristic(instance.with_budget(budget)))
                assert got == want[budget], (sweep[0], budget)


def test_greedy_order_is_capped_rebuilt_and_reset():
    instance = dense_scenario(6, n_tasks=60, n_vehicles=120, side=300.0)
    auction._last_geometry = ((), None, None)

    def check(budget, instance=instance):
        instance = instance.with_budget(budget)
        got = heuristic_view(greedy_heuristic(instance))
        assert got == slow_heuristic(instance), budget
        allocated = tbsap_allocate(instance)  # reads the same order
        assert allocated == [pick[0] for pick in slow_greedy(instance)[0]], budget
        return got

    check(10.0)
    memo = auction._last_geometry[2]
    capped = memo.record
    cap, picks, reach = capped.cap, capped.picks, capped.reach
    assert cap == 10.0 and reach[-1] <= 10.0  # new bids: walked at B, to a misfit
    for budget in (10.0, reach[-1], 4.0, 0.0):
        check(budget)
        assert memo.record is capped  # within the cap: read
    check(30.0)
    complete = memo.record
    assert complete.cap == math.inf  # above the cap: walked again with no cap, to its end
    assert complete.picks[: len(picks)] == picks and len(complete.picks) > len(picks)
    cap, picks, reach = complete.cap, complete.picks, complete.reach
    for budget in (1e9, reach[-1], math.nextafter(reach[-1], 0.0), 30.0, 5.0, 0.0):
        check(budget)
        assert memo.record is complete
    raised = instance.with_bid(picks[0], instance.vehicles[picks[0]].bid * 4)
    assert check(1e9, raised) != check(1e9)  # new bids, a new order
    for budget in (30.0, 10.0, 1e9):
        check(budget, raised)
        check(budget)


def test_greedy_does_not_depend_on_what_ran_before():
    # The allocation shares the greedy's order and tbsap keeps its own
    # trace; either run first, capped low or not capped, leaves every
    # greedy outcome as it is on an emptied cache.
    rng = np.random.default_rng(39)
    instances = [priced_bids(rng) for _ in range(20)] + [small_geometric(rng)]
    for instance in instances:
        budgets = sweep_budgets(instance, rng)
        want = [cold_call(greedy_heuristic, instance.with_budget(b)) for b in budgets]
        low, high = min(budgets), 2 * max(budgets) + 1.0
        for before in ([(tbsap, low)], [(tbsap_allocate, low)],
                       [(tbsap, high), (tbsap_allocate, low)], [(tbsap_allocate, high)]):
            auction._last_geometry = ((), None, None)
            for mechanism, budget in before:
                mechanism(instance.with_budget(budget))
            for budget, outcome in zip(budgets, want):
                got = greedy_heuristic(instance.with_budget(budget))
                assert exact(got) == exact(outcome), (before, budget)


def test_continuation_keeps_the_fit_test():
    # Vehicle 1 misfits after vehicle 0, so the greedy goes on from spend
    # 0.7, where fl(0.7 + 0.1) is B though 0.1 > fl(B - 0.7): vehicle 2
    # still fits, and its bid is the only one that does
    budget = 0.7999999999999999
    instance = build_instance([20.0, 5.0, 1.0], [[0], [1], [2]], [0.7, 0.5, 0.1], budget)
    assert 0.1 > budget - 0.7 and 0.7 + 0.1 <= budget
    for before in ([], [1e9], [budget]):  # no order, a complete one, one capped at B
        auction._last_geometry = ((), None, None)
        for b in before:
            greedy_heuristic(instance.with_budget(b))
        outcome = greedy_heuristic(instance)
        assert outcome.winners == (0, 2) and outcome.total_bid == budget
        assert heuristic_view(outcome) == slow_heuristic(instance)


def test_greedy_sweeps_match_a_fresh_process():
    # One interpreter sweeps one geometry in shuffled order, with a bid
    # copy part way, so every call after the first reads a shared order;
    # the new one parses each instance on its own.
    rng = np.random.default_rng(40)
    main = dense_scenario(11, n_tasks=60, n_vehicles=120, side=300.0)
    budgets = sweep_budgets(main, rng)
    budgets = rng.choice(budgets, size=min(len(budgets), 40), replace=False).tolist()
    copy = main.with_bid(3, main.vehicles[3].bid / 3)
    cases = [main.with_budget(b) for b in budgets]
    cases[10:10] = [copy.with_budget(b) for b in budgets[:5]]
    auction._last_geometry = ((), None, None)
    assert outcomes(cases, (greedy_heuristic,)) == fresh_outcomes(cases, (greedy_heuristic,))


def dense_families():
    """Dense maps of 60 tasks and 120 placements, and one of the default size."""
    for seed in (6, 10, 11):
        yield dense_scenario(seed, n_tasks=60, n_vehicles=120, side=300.0)
    yield dense_scenario(12)


def state_view(state):
    return [g.hex() for g in state.gain], state.covered, state.spent.hex()


def test_replay_matches_one_select_per_pick(dense_map):
    # The state after n picks, forked from the walk's gains after n picks,
    # has every gain, covered flag and the spend of n select calls, for
    # every n, on a complete order and on one capped at a tight budget; the
    # walk keeps one gain list per n, and the start state it forks is left
    # as it was
    for instance in (dense_map, *dense_families()):
        for budget in (1e9, instance.budget / 8):
            auction._last_geometry = ((), None, None)
            memo = auction._memo(instance.with_budget(budget))
            order = auction._record(memo, budget)
            assert order.cap == math.inf or budget < 1e9  # no budget stops a run at 1e9
            start = state_view(memo.start)
            selected = memo.start.fork()
            for n in range(len(order.picks) + 1):
                if n:
                    selected.select(order.picks[n - 1])
                assert state_view(order.replay(memo.start, n)) == state_view(selected), n
            assert len(order.gains) == len(order.picks) + 1
            assert state_view(memo.start) == start


def nudged_spends(rng, reach, size):
    """``size`` spends after a pick, drawn without replacement, each with
    one ulp either side: the budgets at which a pick starts or stops fitting."""
    spends = rng.choice(reach, size=min(len(reach), size), replace=False).tolist()
    return [b for s in spends for b in (s, math.nextafter(s, 0.0), math.nextafter(s, math.inf))]


def test_the_walk_prices_its_cap_with_the_bits_of_the_fold(dense_map):
    # A walk's own payments at its cap against the column fold of its rows
    # at that budget and against the full scans, at the benchmark's budgets
    # and at spends after a pick and one ulp either side
    rng = np.random.default_rng(42)
    for instance in (dense_map, *dense_families()):
        memo = auction._memo(instance)
        for cap in [25.0, 50.0, 100.0, 200.0, 400.0,
                    *nudged_spends(rng, _Record(memo.start, math.inf).reach, 4)]:
            record = _Record(memo.start, cap, price=True)
            got = record.fold(cap)
            assert record.columns is None  # the walk's own payments
            record.cap = math.inf  # the same rows, folded as columns
            want = record.fold(cap)
            assert list(got) == list(want) == record.picks, cap
            paid = [p.hex() for p in got.values()]
            assert paid == [p.hex() for p in want.values()], cap
            case = instance.with_budget(cap)
            assert paid == [tbsap_payment(w, case).payment.hex() for w in got], cap


def test_a_walk_cut_at_its_cap_folds_every_budget_below_it(dense_map):
    # The walk at 400 on the dense map cuts each suffix against the running
    # max at 400; folded at the benchmark's lower budgets, at 30 spends after
    # a pick and one ulp either side and at zero, its winners are those of a
    # walk at that budget and its payments the full scans' bit for bit
    rng = np.random.default_rng(44)
    memo = auction._memo(dense_map)
    record = _Record(memo.start, 400.0, price=True)
    budgets = [25.0, 50.0, 100.0, 200.0, 0.0, *nudged_spends(rng, record.reach, 30)]
    assert sum(b < 400.0 for b in budgets) > 90
    for budget in (b for b in budgets if b < 400.0):
        got = record.fold(budget)
        assert list(got) == _Record(memo.start, budget).picks, budget
        case = dense_map.with_budget(budget)
        paid = [tbsap_payment(w, case).payment.hex() for w in got]
        assert [p.hex() for p in got.values()] == paid, budget
    assert record.columns is not None


def test_reused_coverage_matches_an_emptied_cache():
    # The memo keeps the last winners' coverage whatever the bids, so bid
    # vectors and budgets alternate on one geometry, empty winners included,
    # and every outcome still matches an emptied cache
    rng = np.random.default_rng(43)
    instance = dense_scenario(9, n_tasks=60, n_vehicles=120, side=300.0)
    first = tbsap_allocate(instance.with_budget(1e9))[0]
    bid = instance.vehicles[first].bid
    variants = [instance, instance.with_bid(first, bid * 3), instance.with_bid(first, bid / 3)]
    least = min(v.bid for v in instance.vehicles)
    budgets = [0.0, least / 2, 5.0, 30.0, 1e9]
    auction._last_geometry = ((), None, None)
    reused = empty = 0
    for _ in range(80):
        variant, budget = variants[rng.integers(3)], budgets[rng.integers(len(budgets))]
        mechanism = (greedy_heuristic, tbsap)[rng.integers(2)]
        case = variant.with_budget(budget)
        got = mechanism(case)
        assert exact(got) == exact(cold_call(mechanism, case)), (mechanism, budget)
        memo = auction._last_geometry[2]
        assert memo.coverage[0] == got.winners
        reused += memo.coverage[0] is not got.winners  # an equal tuple kept from before
        empty += got.winners == ()
        if got.winners == ():
            assert got.profit == 0.0 and got.total_bid == 0.0
    assert reused and empty


def test_a_warm_dense_pass_reuses_coverage(dense_map):
    # A call reuses the coverage kept by the call before it exactly when
    # their winners are equal: on this map at B=100, 200 and 400, where
    # both rules take the same picks, four of a warm pass's ten calls
    cases = [dense_map.with_budget(b) for b in (25.0, 50.0, 100.0, 200.0, 400.0)]
    calls = [(mechanism, case) for case in cases for mechanism in (greedy_heuristic, tbsap)]
    for mechanism, case in calls:
        mechanism(case)
    memo = auction._last_geometry[2]
    reused, winners = [], [memo.coverage[0]]
    for mechanism, case in calls:
        winners.append(mechanism(case).winners)
        reused.append(memo.coverage[0] is not winners[-1])  # an equal tuple from before
    assert reused == [a == b for a, b in zip(winners, winners[1:])]
    assert sum(reused) == 4
