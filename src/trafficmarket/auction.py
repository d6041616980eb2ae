"""Budgeted reverse auction mechanisms.

The buyer holds budget B and wants task coverage; each vehicle i offers its
task subset T_i at bid b_i. For a winner set W the coverage value A(W) is the
appraisement sum over the union of subsets, the reduced profit is
Pbar(W) = A(W) - sum(b_i), and a vehicle's unit marginal gain against a
partial selection X is Phat(v|X) = (A(v|X) - b_v) / b_v.

Two mechanisms share the greedy core but differ in the stop rule, and the
difference is deliberate:

* ``greedy_heuristic`` filters: it keeps a candidate pool restricted to bids
  that still fit the remaining budget and continues until the pool is empty
  or the best unit gain turns negative. Winners are paid their bids. High
  profit, not truthful.
* ``tbsap`` breaks: it always considers every unselected vehicle and stops
  outright when the best candidate has negative unit gain or does not fit
  the budget (both test ``spend + bid > B``, so neither spends above B).
  Winners are paid their critical bid, the supremum of bids at which they
  would still win with everyone else fixed: truthful bidding dominates.

Both run one lazy greedy loop (Minoux's accelerated greedy): a max-heap of
unit gains keyed ``(-unit_gain, id)``. Marginal coverage only falls, so a
stored key bounds the fresh one and the top is the argmax once its key is
fresh; the id keeps the lowest-id tie-break. Gains are still updated exactly
as vehicles are selected, so every float has the bits a full rescan gives.

A critical bid comes from the greedy run over everyone but the winner. That
run equals the main run up to the winner's pick: argmax never chose the
winner before, and the lowest-id tie-break makes that strict. So the main
run keeps the gains before each pick, reads every prefix position from
those, and runs only the suffix from each winner's pick on a copy of the
state. The payments equal those of one full re-run per winner, bit for
bit; ``tbsap_payment`` makes that re-run and is the reference.

The budget never changes the pick order (argmax reads only gains and
bids); it decides where each rule stops and enters each payment position
as ``min(replacement bid, B - spend)``. So each bid vector keeps one record
of the break greedy's walk (``_Record``): the picks up to its first misfit,
the spend after each, every vehicle's gain after each number of picks
and, once ``tbsap`` asks, each pick's rows ``replacement bid, spend`` and
its payment at the walk's budget (``_critical_scans``). One rule decides
walks (``_record``): the first on a bid vector runs at the call's budget,
every later one with no cap, and one is needed when a call's budget is
above the cap or ``tbsap`` needs rows the record lacks.
The cap is the walk's budget if it met a misfit or recorded rows, as each
suffix stops on the first state, before it pops, from which neither a later
position nor the leftover coverage can raise the payment at any budget up
to it.

``tbsap_allocate`` at B takes the picks whose spend is at most B, and so
does ``greedy_heuristic``, whose filter drops nothing before that misfit.
Unless they are all of a walk that met no misfit, it forks the state the
walk had after its n picks from a copy of the gains the walk kept, the
tasks first covered before pick n, and the spend after pick n - 1, all as
``select`` left them, and copies nothing else. It goes on over a heap of
fresh keys for just the other bids with spend + bid <= B, a prefix of the
ids by bid, the one heap the call builds. That is exact: a
misfit misfits for good, as spend only grows and rounding is monotone,
and if the whole heap's top is negative so is every bid that fits. So the
argmax over the bids that fit, by the same key, is the unfiltered loop's
pick, bit for bit. ``tbsap`` at the cap reads the
walk's payments; at a lower budget it folds each winner's rows as two
contiguous columns with a few array reductions that keep their bits
(``_Record.fold``).

Task values, sorted subsets, member lists and initial gains depend only on
the geometry (``_setup``). The last geometry's set-up is reused while the
``tasks`` tuple and every ``task_subset`` are the very same objects, and a
memo beside it keeps the record of the last bids seen (``_Memo``). So a
``tbsap`` call that only folds and an allocation within the cap build no
state; a greedy call within it forks the start state once at most. No
mechanism checks its instance: an ``AuctionInstance`` is checked once,
when it is built, and the auctions add only that every bid is positive.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from trafficmarket.model import (
    AuctionInstance,
    AuctionOutcome,
    as_id,
    left_sum,
    write_rows,
)

__all__ = [
    "PaymentStep",
    "PaymentTrace",
    "NotWinnerError",
    "SizeLimitError",
    "greedy_heuristic",
    "tbsap_allocate",
    "tbsap_payment",
    "tbsap",
    "brute_force_optimum",
    "write_outcome_csv",
]

#: brute_force_optimum enumerates all subsets; beyond this it refuses to run.
BRUTE_FORCE_MAX_VEHICLES = 20


class NotWinnerError(ValueError):
    """Raised when a payment is requested for a vehicle that did not win."""


class SizeLimitError(ValueError):
    """Raised when the exhaustive oracle is asked for an oversized instance."""


@dataclass(frozen=True)
class PaymentStep:
    """One candidate position in the critical-bid scan over V minus i.

    ``replacement_bid`` is the bid at which the priced vehicle would tie the
    candidate's unit gain at this position; ``budget_slack`` is what the
    budget still admits here. The position supports winning bids up to the
    smaller of the two.
    """

    candidate_id: int
    replacement_bid: float
    budget_slack: float
    contribution: float


@dataclass(frozen=True)
class PaymentTrace:
    vehicle_id: int
    candidates: tuple[PaymentStep, ...]
    tail_value: float | None  # marginal coverage left for the priced vehicle
    tail_slack: float | None
    payment: float


#: (key, set-up, memo) of the last geometry; one entry.
_last_geometry: tuple = ((), None, None)


class _Memo:
    """What the cached geometry keeps: the last winners tuple and its
    coverage (``_coverage``), and for the last bid vector seen on it,
    compared by value, the bids, the greedy's start state (initial gains
    and heapified keys, which the budget never touches), the record of the
    break greedy's walk (``_record``) once one is made, and the
    ``vehicles`` tuple those bids were last read from."""

    __slots__ = ("bids", "start", "record", "vehicles", "coverage")

    def __init__(self):
        self.bids = self.start = self.record = self.vehicles = None
        self.coverage = ((), 0.0)


def _setup(instance: AuctionInstance) -> tuple[tuple, _Memo]:
    """``(values, sorted subsets, members, initial gains)`` of an instance,
    none of which depend on bids or the budget, and the memo kept beside
    them. Only ``_memo`` calls it. The instance was checked when it was
    built, which matters here: the one gather behind all initial gains reads
    ids as ``np.intp``, so 2.5 -> 2 and ``True`` -> 1, and the cache
    matches tuples and frozensets by identity.
    Reused while the same ``tasks`` tuple and, position by position, the
    same ``task_subset`` frozensets (``is``) come back; the entry holds them
    alive, so no id is reused and any other geometry misses.
    """
    global _last_geometry
    key = (instance.tasks, *(v.task_subset for v in instance.vehicles))
    last_key, setup, memo = _last_geometry
    if len(last_key) == len(key) and all(map(operator.is_, last_key, key)):
        return setup, memo
    values = instance.task_values()
    ordered = [sorted(s) for s in key[1:]]
    members: list[list[int]] = [[] for _ in instance.tasks]
    for v, subset in enumerate(ordered):
        for t in subset:
            members[t].append(v)
    # initial gain = values[subset].sum(), numpy's pairwise sum from 0.0:
    # one reduceat segment per row, led by a 0.0 slot (index m, no task's)
    m = len(values)
    led = chain.from_iterable(zip(repeat((m,)), ordered))  # (m,), row 0, (m,), row 1, ...
    index = np.fromiter(chain.from_iterable(led), np.intp)
    gains = np.add.reduceat(np.append(values, 0.0)[index], np.flatnonzero(index == m)).tolist()
    setup = (values.tolist(), ordered, members, gains)
    memo = _Memo()
    _last_geometry = (key, setup, memo)
    return setup, memo


class _CoverageState:
    """Greedy state: marginal coverage per vehicle, the lazy heap of
    ``(-unit_gain, id)`` keys (see the module docstring), and spend so far."""

    __slots__ = ("values", "subsets", "members", "bids", "gain", "covered", "heap", "spent")

    def __init__(self, setup: tuple, bids: list[float]):
        """The start state, before any pick. It shares the set-up's gain
        list, so it is only ever forked, never selected into."""
        self.values, self.subsets, self.members, self.gain = setup
        self.bids = bids
        self.covered = [False] * len(self.values)
        self.heap = [(-((g - b) / b), v) for v, (g, b) in enumerate(zip(self.gain, bids))]
        heapq.heapify(self.heap)
        self.spent = 0.0

    def fork(self, gain=None, covered=None, spent=0.0) -> _CoverageState:
        """A copy of this state; or, given ``gain`` and ``covered``, a state
        on those very lists, with ``spent`` and an empty heap to fill."""
        twin = _CoverageState.__new__(_CoverageState)
        twin.values, twin.subsets, twin.members = self.values, self.subsets, self.members
        twin.bids, twin.heap = self.bids, []
        if gain is None:
            gain, covered, spent, twin.heap = self.gain[:], self.covered[:], self.spent, self.heap[:]
        twin.gain, twin.covered, twin.spent = gain, covered, spent
        return twin

    def pop_best(self) -> tuple[float, int] | None:
        """Remove and return (unit gain, id) of the argmax, or None if empty."""
        heap, gain, bids = self.heap, self.gain, self.bids
        while heap:
            key, k = heap[0]
            unit = (gain[k] - bids[k]) / bids[k]
            if -unit == key:
                heapq.heappop(heap)
                return unit, k
            heapq.heapreplace(heap, (-unit, k))
        return None

    def select(self, vehicle_id: int) -> None:
        covered, gain = self.covered, self.gain
        for t in self.subsets[vehicle_id]:
            if not covered[t]:
                covered[t] = True
                value = self.values[t]
                for v in self.members[t]:
                    gain[v] -= value
        self.spent += self.bids[vehicle_id]


def _memo(instance: AuctionInstance) -> _Memo:
    """The cached geometry's memo for this instance's bids, made afresh
    when the bids differ from the last ones seen on it.

    The instance was checked when it was built, so only the auctions' own
    rule is checked here: the bids of a new ``(tasks, vehicles)`` pair are
    read, and each must be positive. The memo then holds its ``vehicles``
    tuple, and an instance whose ``tasks`` and ``vehicles`` are those very
    objects has the same bids as last time (a checked instance holds only
    tuples of frozen records), so they are not read again. A pair whose
    bids reset the memo takes its place, so the tuple before it misses and
    is read again.
    """
    key, _, memo = _last_geometry
    if memo is not None and memo.vehicles is instance.vehicles and key[0] is instance.tasks:
        return memo
    bids = [float(v.bid) for v in instance.vehicles]
    for v, bid in enumerate(bids):
        if bid <= 0:
            raise ValueError(f"vehicle {v}: bids must be positive in auctions")
    setup, memo = _setup(instance)
    if memo.bids != bids:
        memo.bids, memo.start = bids, _CoverageState(setup, bids)
        memo.record = None
    memo.vehicles = instance.vehicles
    return memo


def _coverage(memo: _Memo, instance: AuctionInstance, winners: tuple) -> float:
    """``coverage_value`` read from the set-up's value list: the same set,
    built by the same merges in the same order, folded in its iteration order.
    Equal winners reuse the last value: it reads only the memo's geometry."""
    if memo.coverage[0] != winners:
        vehicles = instance.vehicles
        covered = set().union(*[vehicles[v].task_subset for v in winners])
        memo.coverage = winners, left_sum(map(memo.start.values.__getitem__, covered))
    return memo.coverage[1]


def _picks(state: _CoverageState, budget: float, drop_misfits: bool = False):
    """Greedy by unit gain; yields ``(vehicle, fits)`` before taking each pick.

    Every rule stops at the first argmax with a negative unit gain. The
    break rule (``tbsap``) also stops at the first argmax whose bid does not
    fit (spend + bid > B), and yields it with ``fits`` False first. With
    ``drop_misfits`` (``greedy_heuristic``) such a bid is dropped for good,
    since spend only grows and rounding is monotone, and the loop goes on.
    The state is selected into after each yield, so the consumer sees it as
    it was just before the pick.
    """
    while (best := state.pop_best()) is not None:
        unit, k = best
        if unit < 0:
            return
        if state.spent + state.bids[k] > budget:
            if drop_misfits:
                continue
            yield k, False
            return
        yield k, True
        state.select(k)


class _Record:
    """The break greedy's walk on one bid vector at budget ``cap``, on a
    fork of the start state: the picks up to its first misfit, the spend
    after each (``reach``), whether it met that misfit, and ``gains[n]``,
    every vehicle's marginal coverage after n picks, for n from 0 to the
    number of picks. Each is the list ``select`` left: a copy taken before
    a pick, and the walk's own list after the last. When priced it also
    holds one flat list of rows, ``replacement bid, spend`` pairs that
    ``_critical_scans`` appends pick by pick, ``offsets`` to each pick's
    first row, and each pick's payment at ``cap`` (``paid``). The first
    fold at another budget turns the rows into ``columns``, two contiguous
    arrays. The greedy's first replay adds, per task, the index of the
    first pick that covers it (``first``, the number of picks if none
    does), and the ids by bid. A walk that ends on its own holds at every
    budget, so its cap becomes inf, unless it is priced. Winners at B are
    the picks whose spend after is at most B, found by bisection.
    """

    __slots__ = ("cap", "picks", "reach", "misfit", "gains", "first", "by_bid",
                 "rows", "offsets", "paid", "columns")

    def __init__(self, start: _CoverageState, cap: float, price=False):
        state = start.fork()
        bids = state.bids
        self.picks, self.reach, self.gains, fits = [], [], [], True
        self.rows, self.offsets, self.paid = ([], [0], []) if price else (None, None, None)
        self.by_bid = self.first = self.columns = None
        cut = price and bids and state.values  # see _critical_scans
        if cut:
            low = min(bids) * math.ulp(min(state.values))
            cut = low > sys.float_info.min and max(bids) * max(state.gain) < sys.float_info.max
        for k, fits in _picks(state, cap):
            if not fits:
                break
            self.gains.append(state.gain[:])
            if price:
                self.paid.append(_critical_scans(state, k, self, cap, cut))
                self.offsets.append(len(self.rows) // 2)
            self.picks.append(k)
            self.reach.append(state.spent + bids[k])
        self.gains.append(state.gain)
        self.misfit = not fits
        self.cap = cap if price or self.misfit else math.inf

    def replay(self, start: _CoverageState, n: int) -> _CoverageState:
        """A fork of ``start`` as the walk left it after its first n picks,
        built from a copy of ``gains[n]``, the tasks first covered before
        pick n and the spend after pick n - 1 alone: it copies no other
        list, and its heap is empty, for the greedy's filtered one."""
        if self.first is None:
            self.first = [len(self.picks)] * len(start.values)
            for i in reversed(range(len(self.picks))):
                for t in start.subsets[self.picks[i]]:
                    self.first[t] = i
        covered = [i < n for i in self.first]
        return start.fork(self.gains[n][:], covered, self.reach[n - 1] if n else 0.0)

    def fold(self, budget: float) -> dict[int, float]:
        """Payments at ``budget``: at the cap, the walk's own; below it,
        ``min(raw, budget - spend)`` folded by ``max`` per pick with a few
        array reductions over the columns, made from the rows on first use.

        A pick's payment at B folds its rows through the first that does
        not fit, but the rows after it cannot count, so this folds every
        row. The misfit's candidate is picked next in that run, so the next
        row's spend is the misfit's spend plus its bid, above the budget,
        and every later row has a negative slack and entry. A winner's first
        row has spend 0.0, so its slack is the budget, and a replacement bid
        of at least 0 (the winner's gain is at least its bid there): its
        entry is at least 0. Every pick has that first row: a suffix the cut
        ends has a row before it, and one it does not end has a row for its
        first pick or for the leftover coverage. ``min`` and ``max`` are
        selections, and ``np.maximum`` keeps the last of equal operands
        where the walk keeps the first: they differ only for +0.0 and -0.0,
        so a zero maximum takes its pick's first zero entry.
        """
        if budget == self.cap:
            return dict(zip(self.picks, self.paid))
        n = bisect.bisect_right(self.reach, budget)
        if not n:
            return {}
        if self.columns is None:  # each half of the rows contiguous, then the offsets
            self.columns = (*np.array(self.rows).reshape(-1, 2).T.copy(), np.array(self.offsets))
            self.rows = None
        offsets = self.columns[2][: n + 1]
        raw, spend = (column[: offsets[-1]] for column in self.columns[:2])
        entry = budget - spend
        np.copyto(entry, raw, where=entry >= raw)  # min(raw, slack), as the walk picks
        best = np.maximum.reduceat(entry, offsets[:-1])
        for j in np.flatnonzero(best == 0):  # the first of +-0.0, as the walk keeps
            rows = entry[offsets[j] : offsets[j + 1]]
            best[j] = rows[np.argmax(rows == 0)]
        return dict(zip(self.picks[:n], best.tolist()))


def _record(memo: _Memo, budget: float, price: bool = False) -> _Record:
    """The memo's record, walked again when ``budget`` is above its cap or
    ``price`` asks for rows it lacks: the first walk on a bid vector runs at
    ``budget``, every later one with no cap."""
    record = memo.record
    if record is None or budget > record.cap or price and record.paid is None:
        cap = budget if record is None else math.inf
        memo.record = record = None  # freed before its successor is built
        memo.record = record = _Record(memo.start, cap, price)
    return record


def greedy_heuristic(instance: AuctionInstance) -> AuctionOutcome:
    """Filter-and-continue greedy; winners are paid their bids.

    Each iteration restricts candidates to bids that fit, spend + bid <= B,
    picks the best unit gain among them, and stops only when the pool is
    empty or the best remaining unit gain is negative. Its picks before the
    first drop are the memo's record (see the module docstring).
    """
    memo, budget = _memo(instance), instance.budget
    record = _record(memo, budget)
    bids, n = memo.bids, bisect.bisect_right(record.reach, budget)
    winners, total_bid = record.picks[:n], record.reach[n - 1] if n else 0.0
    if n < len(record.picks) or record.misfit:  # a misfit may stop the walk at B
        by_bid = record.by_bid = record.by_bid or sorted(range(len(bids)), key=bids.__getitem__)
        state, taken = record.replay(memo.start, n), set(winners)
        spent, gain = state.spent, state.gain
        fit = bisect.bisect_right(by_bid, budget, key=lambda v: spent + bids[v])
        state.heap = [(-((gain[v] - bids[v]) / bids[v]), v) for v in by_bid[:fit] if v not in taken]
        heapq.heapify(state.heap)
        winners += [k for k, _ in _picks(state, budget, drop_misfits=True)]
        total_bid = state.spent
    winners = tuple(winners)
    profit = _coverage(memo, instance, winners) - total_bid
    payments = {v: bids[v] for v in winners}
    return AuctionOutcome(winners=winners, payments=payments, profit=profit, total_bid=total_bid)


def tbsap_allocate(instance: AuctionInstance) -> list[int]:
    """Winner selection stage: greedy by unit gain, break on first stop.

    No module of the package calls it, but ``perfbench/workloads.py``
    imports it to time the allocation alone, so it stays public.
    """
    record = _record(_memo(instance), instance.budget)
    return record.picks[: bisect.bisect_right(record.reach, instance.budget)]


def _critical_scans(state: _CoverageState, k: int, record: _Record, cap: float,
                    cut: bool) -> float:
    """Appends the rows of pick ``k`` of the break greedy at budget ``cap``
    to the record's ``rows`` and returns k's payment at ``cap``, from
    ``state`` as it is just before the pick and, for each earlier pick, the
    record's gains before it and its spend; ``_Record`` walks the picks.

    A row is ``replacement bid, spend before it``: one position at which
    the priced vehicle k could have been picked in the run over everyone but
    k, supporting bids up to ``min(replacement bid, B - spend)`` at budget
    B. The replacement bid ties the candidate's unit gain there; a bid
    above the slack breaks the loop on budget before k is in. Prefix rows
    come from snapshots of the main run's gains, and only the suffix is
    run, on a fork (see the module docstring). When the heap runs out or
    turns negative with no break, k could also append at the end with its
    leftover coverage, so a last row ``coverage, spend`` carries that. The
    payment at ``cap`` is the running max of ``min(raw, cap - spend)`` over
    the rows, first of equals kept: only the last row can misfit at
    ``cap``, as the suffix stops there.

    With ``cut`` the suffix is tested on every state, the first included,
    before any heap work on it, and it stops on the first state j whose
    bound ``min(gains[k], cap - spend)``, widened by m = 1 + 1e-12, is
    strictly below that running max, first set by row r: no pop, no row and
    no leftover row. The kept rows are a prefix of the full ones, and every
    dropped row l, a later position or the leftover coverage, has an entry
    at most r's at every budget B up to ``cap``, so a fold at B, which
    keeps the first of equals, reads the same bits from the kept rows. The
    slack of l at B is at most r's, as l's spend is at least j's, which is
    not below r's, and rounding is monotone. If the slack bound fired, l's
    slack is also at most ``cap - spend_j`` (at least 0, so widening only
    raises it), below the max and so below r's replacement bid, which is at
    least the max. If the coverage bound fired, gains[k] at j is below the
    max. A later position's replacement bid is below ``fl(gains[k] * m)``
    (below), and the leftover row's raw value is gains[k] on a later state,
    at most the one at j, as gains never rise. So either is below the max
    and r's replacement bid. Either way l's entry at B is at most r's.

    The max is nonnegative: k's first row has slack ``cap`` and a
    replacement bid at least 0, as k's gain is at least its bid there. A
    later replacement bid ``fl(fl(bids[c] * g) / gains[c])`` has g <=
    gains[k] here (gains never rise) and gains[c] >= bids[c] (c has unit
    gain >= 0). If g <= 0 it is <= 0, never above the max. If g > 0 and the
    product ``bids[c] * g`` is in the normal range, its rounding adds a
    relative 2**-53 at most, the division by gains[c] only lowers it, and
    so it is at most ``fl(g * (1 + 2**-53))``, below ``fl(gains[k] * m)``.

    A product outside the normal range rounds by more, so a walk runs its
    scans uncut whenever one can occur, which it checks once. Every gain is
    a sum or difference of task values, so it is a multiple of q, the ulp of
    the least value: a float at least that value is a multiple of its ulp,
    which q divides, and a multiple of q below it is exact. So a positive
    g is at least q, and every product with g > 0 lies in
    ``[min(bids) * q, max(bids) * max(initial gains)]``. Both ends are
    checked after rounding, which is monotone: strictly above the least
    normal float and strictly below the largest.
    """
    bids, rows = state.bids, record.rows
    best = -math.inf  # the running max of min(raw, cap - spend), first of equals kept
    for c, snap, spent in zip(record.picks, record.gains, chain((0.0,), record.reach)):
        # a prefix row: the gains before pick c and the spend then; it fits at cap
        raw = bids[c] * snap[k] / snap[c]
        rows += raw, spent
        best = max(best, min(raw, cap - spent))
    suffix = state.fork()
    gains = suffix.gain
    while True:
        # the widened min(gain, slack) against best on the state before a
        # pop, then one step of the running max, without calls: this loop
        # is the hot one
        spent, gain = suffix.spent, gains[k]
        slack = cap - spent
        bound = slack if slack < gain else gain
        if cut and bound * (1 + 1e-12) < best:
            return best
        if (top := suffix.pop_best()) is None or top[0] < 0:  # no break: k appends at the end
            rows += gain, spent
            return bound if bound > best else best
        c = top[1]
        raw = bids[c] * gain / gains[c]
        rows += raw, spent
        entry = slack if slack < raw else raw
        best = entry if entry > best else best
        if spent + bids[c] > cap:  # the misfit's row is the last
            return best
        suffix.select(c)


def tbsap_payment(vehicle_id: int, instance: AuctionInstance) -> PaymentTrace:
    """Critical bid for a winner: the threshold above which it loses.

    The reference for ``tbsap``'s payments, sharing with it only the greedy
    loop (``_picks``) and the memo's start state: one walk on a fork checks
    that the vehicle wins, and the break greedy over everyone else runs in
    full, with no cut, on a second fork whose heap leaves the vehicle out.
    Position by position it records the bid that would tie the candidate
    picked there, clamped by the budget slack at that point; when the scan
    ends for a reason other than a budget break, the vehicle could also be
    appended at the end, so its leftover marginal coverage (clamped the
    same way) joins the pool. The payment is the builtin ``max`` over these
    positions: the scan stops at the first misfit, so every one counts. It
    never depends on the winner's own bid. The id must be an id
    (``model.as_id``).
    """
    if as_id(vehicle_id) is None:
        raise ValueError(f"vehicle id {vehicle_id!r} is not an int")
    memo, budget = _memo(instance), instance.budget
    if vehicle_id not in (k for k, fits in _picks(memo.start.fork(), budget) if fits):
        raise NotWinnerError(f"vehicle {vehicle_id} is not a winner")
    state, rows, fits = memo.start.fork(), [], True
    state.heap = [key for key in state.heap if key[1] != vehicle_id]
    heapq.heapify(state.heap)
    bids, gain = state.bids, state.gain
    for c, fits in _picks(state, budget):
        rows.append((c, bids[c] * gain[vehicle_id] / gain[c], state.spent))
    steps = tuple(PaymentStep(c, r, budget - s, min(r, budget - s)) for c, r, s in rows)
    tail = (gain[vehicle_id], budget - state.spent) if fits else (None, None)  # no budget break
    payment = max([step.contribution for step in steps] + ([min(tail)] if fits else []))
    return PaymentTrace(vehicle_id, steps, *tail, payment)


def tbsap(instance: AuctionInstance) -> AuctionOutcome:
    """Truthful budgeted auction: break-greedy allocation, critical payments."""
    memo, budget = _memo(instance), instance.budget
    record = _record(memo, budget, price=True)
    payments = record.fold(budget)
    winners = tuple(payments)  # pick order
    total_bid = record.reach[len(winners) - 1] if winners else 0.0
    profit = _coverage(memo, instance, winners) - left_sum(payments.values())
    return AuctionOutcome(winners=winners, payments=payments, profit=profit, total_bid=total_bid)


def brute_force_optimum(instance: AuctionInstance) -> AuctionOutcome:
    """Exhaustive maximizer of Pbar(W) subject to the budget.

    Reference oracle for small instances; refuses more than
    ``BRUTE_FORCE_MAX_VEHICLES`` vehicles. Payments equal bids. Ties keep
    the first maximum found with vehicles considered in id order,
    include-branch first, so tied optima resolve toward lower ids.
    """
    n = len(instance.vehicles)
    if n > BRUTE_FORCE_MAX_VEHICLES:
        raise SizeLimitError(
            f"brute force limited to {BRUTE_FORCE_MAX_VEHICLES} vehicles, got {n}"
        )
    values = {t.id: t.appraisement for t in instance.tasks}
    subsets = [sorted(v.task_subset) for v in instance.vehicles]
    bids = [v.bid for v in instance.vehicles]
    budget = instance.budget

    counts: dict[int, int] = {t.id: 0 for t in instance.tasks}
    best_profit = 0.0
    best_set: tuple[int, ...] = ()
    chosen: list[int] = []

    def recurse(idx: int, value: float, spent: float) -> None:
        nonlocal best_profit, best_set
        if idx == n:
            profit = value - spent
            if profit > best_profit:
                best_profit = profit
                best_set = tuple(chosen)
            return
        if spent + bids[idx] <= budget:
            added = 0.0
            for t in subsets[idx]:
                if counts[t] == 0:
                    added += values[t]
                counts[t] += 1
            chosen.append(idx)
            recurse(idx + 1, value + added, spent + bids[idx])
            chosen.pop()
            for t in subsets[idx]:
                counts[t] -= 1
        recurse(idx + 1, value, spent)

    recurse(0, 0.0, 0.0)
    payments = {v: float(bids[v]) for v in best_set}
    total_bid = left_sum(bids[v] for v in best_set)
    return AuctionOutcome(
        winners=best_set, payments=payments, profit=best_profit, total_bid=total_bid
    )


def write_outcome_csv(outcome: AuctionOutcome, instance: AuctionInstance, path) -> None:
    """One row per winner: vehicle_id, bid, payment, profit of the outcome."""
    write_rows(
        path,
        ("vehicle_id", "bid", "payment", "profit"),
        (
            (v, float(instance.vehicle(v).bid), outcome.payments[v], outcome.profit)
            for v in outcome.winners
        ),
    )
