"""The auction's set-up cache and bid memo, driven as a state machine.

Each step switches among three maps (the third rebuilt from the first's
file, so its values are equal but its objects new), changes one bid with
``with_bid`` or restores the map's own bids, or calls ``tbsap``,
``greedy_heuristic`` or ``tbsap_allocate``. A call's budget is 0, one of
the benchmark's budgets, or the spend after a pick of the current record
with one ulp either side of it, where picks start or stop fitting. One
rule calls ``tbsap`` or ``greedy_heuristic`` twice at one of the
benchmark's budgets, around one bid change; whether the winners then
number the same but differ is a statistic. Every
call is made again on an emptied cache and must give the same winners,
payments, total bid and profit, bit for bit; the warm cache is then put
back, so a record can serve a long run of calls. After a call the cache
must hold the map's own objects, not equal ones. Between steps the memo's
start state and every gain list a record keeps must be as they were when
first seen, and a record, when first seen, must rebuild the state after
each number of its picks with the bits of that many ``select`` calls.
Calls that walk again are counted as a statistic, with nothing asserted
on the count (``--hypothesis-show-statistics``).
"""

import math
import operator

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import dense_scenario
from trafficmarket import auction
from trafficmarket.auction import greedy_heuristic, tbsap, tbsap_allocate
from trafficmarket.model import dumps_scenario, loads_scenario

BENCHMARK_BUDGETS = (25.0, 50.0, 100.0, 200.0, 400.0)
FIRST = dense_scenario(6, n_tasks=60, n_vehicles=120, side=300.0)
MAPS = (FIRST, dense_scenario(10, n_tasks=40, n_vehicles=80, side=200.0),
        loads_scenario(dumps_scenario(FIRST)))
MECHANISMS = {"tbsap": tbsap, "greedy": greedy_heuristic, "allocate": tbsap_allocate}


def bits(out):
    """An outcome with every float as its hex; an allocation as it is."""
    if isinstance(out, list):
        return out
    payments = {v: p.hex() for v, p in out.payments.items()}
    return out.winners, payments, out.total_bid.hex(), out.profit.hex()


def start_view(start):
    return start.gain[:], start.covered[:], start.heap[:], start.spent


def state_view(state):
    return [g.hex() for g in state.gain], state.covered, state.spent.hex()


class AuctionMemoMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        auction._last_geometry = ((), None, None)
        self.instance = MAPS[0]
        self.starts = {}  # id -> (start state, its view when first seen)
        self.records = {}  # id -> (record, copies of its gain lists)

    @rule(index=st.sampled_from(range(len(MAPS))))
    def switch_map(self, index):
        self.instance = MAPS[index].with_budget(self.instance.budget)

    @rule(vehicle=st.integers(0, 10**6), picked=st.booleans(), bid=st.one_of(
        st.floats(0.05, 30.0), st.integers(0, 10**6).map(lambda i: -float(i))))
    def change_bid(self, vehicle, picked, bid):
        # ``picked`` takes a pick of the current record, whose bid counts at
        # every budget that buys it; a negative draw copies another
        # vehicle's bid, to make ties
        vehicles = self.instance.vehicles
        record = auction._memo(self.instance).record
        ids = record.picks if picked and record and record.picks else range(len(vehicles))
        if bid <= 0:
            bid = vehicles[int(-bid) % len(vehicles)].bid
        self.instance = self.instance.with_bid(ids[vehicle % len(ids)], bid)

    @rule()
    def restore_bids(self):
        for geometry in MAPS:
            if geometry.tasks is self.instance.tasks:
                self.instance = geometry.with_budget(self.instance.budget)

    @rule(mechanism=st.sampled_from(sorted(MECHANISMS)), budget=st.one_of(
        st.just(0.0), st.sampled_from(BENCHMARK_BUDGETS),
        st.tuples(st.integers(0, 10**6), st.sampled_from((-1, 0, 1)))))
    def call(self, mechanism, budget):
        if isinstance(budget, tuple):  # the memo reads the bids as the call will
            pick, side = budget
            record = auction._memo(self.instance).record
            if record is None or not record.reach:
                return
            budget = record.reach[pick % len(record.reach)]
            if side:
                budget = math.nextafter(budget, side * math.inf)
        self.checked(mechanism, budget)

    def checked(self, mechanism, budget):
        """The call, warm, then again on an emptied cache; returns the warm
        outcome."""
        instance = self.instance.with_budget(budget)
        memo = auction._last_geometry[2]
        record = memo and memo.record
        warm = MECHANISMS[mechanism](instance)
        # a statistic only: how often a call walks again
        event("walked" if auction._last_geometry[2].record is not record else "read")
        cached, auction._last_geometry = auction._last_geometry, ((), None, None)
        # the cache holds this map's own objects, not equal ones
        assert cached[0][0] is instance.tasks
        assert all(map(operator.is_, cached[0][1:], (v.task_subset for v in instance.vehicles)))
        fresh = MECHANISMS[mechanism](instance)
        auction._last_geometry = cached
        assert bits(warm) == bits(fresh)
        return warm

    @rule(mechanism=st.sampled_from(("tbsap", "greedy")),
          budget=st.sampled_from(BENCHMARK_BUDGETS), vehicle=st.integers(0, 10**6),
          factor=st.sampled_from((0.5, 2.0, 8.0)))
    def call_around_a_bid_change(self, mechanism, budget, vehicle, factor):
        # about a quarter of these changes keep the number of winners but
        # change who they are, so a coverage kept by its count alone would
        # price the second call's winners with the first call's value
        first = self.checked(mechanism, budget)
        vehicles = self.instance.vehicles
        changed = vehicle % len(vehicles)
        self.instance = self.instance.with_bid(changed, vehicles[changed].bid * factor)
        second = self.checked(mechanism, budget)
        swapped = len(first.winners) == len(second.winners) and first.winners != second.winners
        event("same count, other winners" if swapped else "winners kept or count changed")

    @invariant()
    def kept_states_are_never_mutated(self):
        # each start state and record seen is held here, so no id is reused;
        # a record first seen must fork, after each n picks, what n select
        # calls leave
        memo = auction._last_geometry[2]
        if memo is not None and memo.start is not None:
            self.starts.setdefault(id(memo.start), (memo.start, start_view(memo.start)))
            record = memo.record
            if record is not None and id(record) not in self.records:
                self.records[id(record)] = record, [g[:] for g in record.gains]
                selected = memo.start.fork()
                for n in range(len(record.picks) + 1):
                    if n:
                        selected.select(record.picks[n - 1])
                    assert state_view(record.replay(memo.start, n)) == state_view(selected)
        for start, view in self.starts.values():
            assert start_view(start) == view
        for record, gains in self.records.values():
            assert record.gains == gains


AuctionMemoMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                                deadline=None)
test_auction_memo_machine = AuctionMemoMachine.TestCase
