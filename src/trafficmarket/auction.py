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
  the budget. Winners are paid their critical bid, the supremum of bids at
  which they would still win with everyone else fixed, which makes truthful
  bidding a dominant strategy.

Both run one lazy greedy loop (Minoux's accelerated greedy): a max-heap of
unit gains keyed ``(-unit_gain, id)``. Marginal coverage only falls, so a
stored key bounds the fresh one and the top is the argmax once its key is
fresh; the id keeps the lowest-id tie-break. Gains are still updated exactly
as vehicles are selected, so every float has the bits a full rescan gives.

A critical bid comes from the greedy run over everyone but the winner. That
run equals the main run up to the winner's pick: argmax never chose the
winner before, and the lowest-id tie-break makes that strict. So the scans
run the allocation once, keep the gains before each pick, read every prefix
position from those, and run only the suffix from each winner's pick on a
copy of the state. The payments equal those of one full re-run per winner,
bit for bit; ``tbsap_payment`` scans in full and is the reference.

The budget never changes the pick order (argmax reads only gains and
bids); it decides where the break rule stops and enters each position only
as ``min(replacement bid, B - spend)``. So ``tbsap`` keeps one trace per
geometry and bid vector: per pick, the spend before it and its rows
``(candidate, replacement bid, spend)``, built by the break greedy at a cap
(``_critical_scans``). Every payment folds its rows at the call's budget.
An entry never falls as B rises, so each suffix ends once no later position
can raise the payment at any budget from the least at which its pick wins
up to the cap: every entry is at most the priced vehicle's marginal
coverage (up to rounding, which a 1e-12 margin covers) and at most the
slack at the cap, and neither ever rises. A call with new bids builds the
trace capped at its own budget, which keeps a one-off call at a tight
budget from running suffixes that budget never reaches. A call at a budget
above the cap rebuilds it once with no cap; every other call only folds.

The call that builds a trace folds its row lists in Python (``_fold``).
Most traces are never folded again: each instance of a property test or of
a pool of small auctions is priced once, and turning a trace of a dozen
rows into arrays costs about ten Python folds. A budget sweep or a repeated
trading round folds one trace at call after call (98 of 100 ``tbsap`` calls
on the auction-dense benchmark, 20 of 21 on trade-round, none of 1,024 on
auction-small), so the next fold turns it into two flat columns, each
row's replacement bid and spend, with per-pick offsets, drops the row
lists, and it and every later fold are a few array reductions
(``_Trace.fold_columns``). Their bits are ``_fold``'s: the slack is the
same IEEE subtraction, ``min`` and ``max`` are selections, and the rows
after a pick's first misfit, where ``_fold`` stops, have negative entries
that cannot count. ``np.maximum`` keeps the last of equal operands and
``_fold`` the first, which differ in bits only for +0.0 and -0.0, so a zero
maximum takes its pick's first zero entry.

Task values, sorted subsets, member lists and initial gains depend only on
the geometry, so the last geometry's set-up is kept and reused while the
``tasks`` tuple and every ``task_subset`` are the very same objects. The
key holds them alive, so a new geometry can never match it: the cache
fails closed. Beside the set-up sits a memo for the last bid vector seen
on it, compared by value: the bids, the greedy's start state (initial
gains and the heapified keys, which the budget never touches), and
``tbsap``'s trace once one is built. Every entry point validates the
instance and checks the bids once per call, then forks the start state, so
a ``tbsap`` call that only folds builds no state at all.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from trafficmarket.model import (
    AuctionInstance,
    AuctionOutcome,
    validate_instance,
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


#: (key, set-up, [bids, start state, trace]) of the last geometry; one entry.
_last_geometry: tuple = ((), None, None)


def _setup(instance: AuctionInstance) -> tuple[tuple, list]:
    """``(values, sorted subsets, members, initial gains)`` of a validated
    instance, none of which depend on bids or the budget, and the memo kept
    beside them.

    Reused while the key holds: the same ``tasks`` tuple and, position by
    position, the same ``task_subset`` frozensets, compared with ``is``.
    The entry holds strong references to them, so no id is reused while it
    lives, and anything not provably the same geometry misses and is built
    afresh.
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
    # initial marginal coverage = full subset value, with the bits of
    # values[subset].sum(): numpy's pairwise order on a slice of one gather,
    # and a single addition, which commutes, for rows of one or two
    flat = values.take(np.fromiter(chain.from_iterable(ordered), np.intp))
    items, gains, end = flat.tolist(), [], 0
    for subset in ordered:
        start, end = end, end + len(subset)
        if end - start > 2:
            gains.append(float(np.add.reduce(flat[start:end])))
        else:
            gains.append(sum(items[start:end], 0.0))
    setup = (values.tolist(), ordered, members, gains)
    memo = [None, None, None]
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

    def fork(self) -> _CoverageState:
        twin = _CoverageState.__new__(_CoverageState)
        twin.values, twin.subsets, twin.members = self.values, self.subsets, self.members
        twin.bids, twin.spent = self.bids, self.spent
        twin.gain, twin.covered, twin.heap = self.gain[:], self.covered[:], self.heap[:]
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


def _memo(instance: AuctionInstance) -> list:
    """Validate the instance and check its bids, then return the cached
    geometry's memo ``[bids, start state, trace]`` for these bids, made
    afresh when the bids differ from the last ones seen on it."""
    validate_instance(instance)
    bids = [float(v.bid) for v in instance.vehicles]
    for v, bid in enumerate(bids):
        if bid <= 0:
            raise ValueError(f"vehicle {v}: bids must be positive in auctions")
    setup, memo = _setup(instance)
    if memo[0] != bids:
        memo[:] = bids, _CoverageState(setup, bids), None
    return memo


def _coverage(values: list[float], instance: AuctionInstance, winners) -> float:
    """``coverage_value`` read from the set-up's value list: the same set,
    updated in the same order, summed in its iteration order."""
    covered: set[int] = set()
    for v in winners:
        covered.update(instance.vehicles[v].task_subset)
    return float(sum(values[t] for t in covered))


def _picks(state: _CoverageState, budget: float, drop_misfits: bool = False):
    """Greedy by unit gain; yields ``(vehicle, fits)`` before taking each pick.

    Every rule stops at the first argmax with a negative unit gain. The
    break rule (``tbsap``) also stops at the first argmax whose bid does not
    fit, and yields it with ``fits`` False first. With ``drop_misfits``
    (``greedy_heuristic``) such a bid is dropped for good, since spend only
    grows, and the loop goes on. The state is selected into after each
    yield, so the consumer sees it as it was just before the pick.
    """
    while (best := state.pop_best()) is not None:
        unit, k = best
        if unit < 0:
            return
        if drop_misfits:
            if state.bids[k] > budget - state.spent:
                continue
        elif state.spent + state.bids[k] > budget:
            yield k, False
            return
        yield k, True
        state.select(k)


def greedy_heuristic(instance: AuctionInstance) -> AuctionOutcome:
    """Filter-and-continue greedy; winners are paid their bids.

    Each iteration restricts candidates to bids within the remaining budget,
    picks the best unit gain among them, and stops only when the pool is
    empty or the best remaining unit gain is negative.
    """
    _, start, _ = _memo(instance)
    state = start.fork()
    order = [k for k, _ in _picks(state, instance.budget, drop_misfits=True)]
    payments = {v: state.bids[v] for v in order}
    profit = _coverage(state.values, instance, order) - sum(payments.values())
    return AuctionOutcome(
        winners=tuple(order), payments=payments, profit=profit, total_bid=state.spent
    )


def tbsap_allocate(instance: AuctionInstance) -> list[int]:
    """Winner selection stage: greedy by unit gain, break on first stop."""
    _, start, _ = _memo(instance)
    return [k for k, fits in _picks(start.fork(), instance.budget) if fits]


def _critical_scans(state: _CoverageState, cap: float, cut: bool, only: int | None = None):
    """Yield ``(pick, spend before it, rows)`` for each pick of the break
    greedy at budget ``cap``, in pick order, selecting into ``state``, a
    fork of a start state.

    A row is ``(candidate, replacement bid, spend before it)``: one position
    at which the priced vehicle k could have been picked in the run over
    everyone but k, supporting bids up to ``min(replacement bid, B - spend)``
    at budget B. The replacement bid ties the candidate's unit gain there;
    a bid above the slack breaks the loop on budget before k is in. Prefix
    rows come from snapshots of the main run's gains, and only the suffix
    is run, on a fork (see the module docstring). When the suffix ends with
    no break, k could also append at the end with its leftover coverage, so
    a last row ``(k, coverage, spend)`` carries that. With ``only`` set just
    that pick has rows computed and is yielded.

    With ``cut`` each suffix ends at the first position whose bound
    ``min(gains[k], cap - spend)``, widened by m = 1 + 1e-12, is strictly
    below k's best entry at ``win``, the least budget at which k wins. That
    is exact at every budget from ``win`` to ``cap``. The best is
    nonnegative: k's first row has slack at least 0 at ``win`` and a
    replacement bid at least 0, as k's gain is at least its bid there. An
    entry never falls as the budget rises, and the rows through the first
    misfit only grow, so the best at ``win`` is a floor under the best at
    any larger budget. The suffix folds it without the misfit test: entries
    after the first misfit at ``win`` have spend above it and are negative.
    Every later entry is at most its slack, which is at most ``cap -
    spend`` here, and rounding is monotone, so the slack bound holds at any
    magnitude. It is also at most its replacement bid ``fl(fl(bids[c] * g)
    / gains[c])``, with g <= gains[k] here (gains never rise) and gains[c]
    >= bids[c] (c has unit gain >= 0). If g <= 0 that is <= 0, never above
    the best. If g > 0 and the product ``bids[c] * g`` is in the normal
    range, its rounding adds a relative 2**-53 at most, the division by
    gains[c] only lowers it, and so the replacement bid is at most ``fl(g *
    (1 + 2**-53))``, below ``fl(gains[k] * m)``.

    A product outside the normal range rounds by more, so the scans run
    uncut whenever one can occur, which this checks once. Every gain is a
    sum or difference of task values, so it is a multiple of q, the ulp of
    the least value: a float at least that value is a multiple of its ulp,
    which q divides, and a multiple of q below it is exact. So a positive
    g is at least q, and every product with g > 0 lies in
    ``[min(bids) * q, max(bids) * max(initial gains)]``. Both ends are
    checked after rounding, which is monotone: strictly above the least
    normal float and strictly below the largest.
    """
    bids = state.bids
    if cut and bids and state.values:
        low = min(bids) * math.ulp(min(state.values))
        cut = low > sys.float_info.min and max(bids) * max(state.gain) < sys.float_info.max
    prefix: list[tuple[int, list[float], float]] = []  # (pick, gains, spend) before it
    for k, fits in _picks(state, cap):
        if not fits:
            return
        if only is None or k == only:
            rows = [(c, bids[c] * snap[k] / snap[c], spent) for c, snap, spent in prefix]
            win = state.spent + bids[k]
            best = _fold(rows, bids, win)  # every prefix row fits at win
            suffix = state.fork()
            gains = suffix.gain
            fits = True
            for c, fits in _picks(suffix, cap):
                # the widened min(gain, cap - spent) against best, then one fold
                # step at win, without calls: this loop is the hot one
                spent, gain = suffix.spent, gains[k]
                if cut and (gain * (1 + 1e-12) < best or (cap - spent) * (1 + 1e-12) < best):
                    break
                raw = bids[c] * gain / gains[c]
                rows.append((c, raw, spent))
                entry = win - spent if win - spent < raw else raw
                best = entry if entry > best else best
            else:
                if fits:  # no budget break: k can append at the end
                    rows.append((k, gains[k], suffix.spent))
            yield k, state.spent, rows
        prefix.append((k, state.gain[:], state.spent))


def _fold(rows: list, bids: list[float], budget: float) -> float:
    """The payment at ``budget``: ``min(raw, budget - spend)`` folded by
    ``max`` over the rows through the first that does not fit. A leftover
    row is last, so a break skips it. The conditionals pick as min and max
    do, first of equals included, so the bits are theirs."""
    best = -math.inf
    for c, raw, spent in rows:
        slack = budget - spent
        entry = slack if slack < raw else raw
        best = entry if entry > best else best
        if spent + bids[c] > budget:
            break
    return best


class _Trace:
    """``tbsap``'s trace of one bid vector at a cap (see ``_critical_scans``):
    the picks in order, the spend after each, and each pick's rows, as row
    lists until it is folded a second time and as columns after that.

    A pick wins at budget B while its spend after is at most B; those
    spends never fall along the picks, so the winners are a prefix found by
    bisection.
    """

    __slots__ = ("cap", "picks", "reach", "rows", "columns", "offsets")

    def __init__(self, cap: float, scans, bids: list[float]):
        self.cap = cap
        self.picks, self.reach, self.rows = [], [], []
        for k, spent, rows in scans:
            self.picks.append(k)
            self.reach.append(spent + bids[k])
            self.rows.append(rows)
        self.columns = self.offsets = None

    def fold_rows(self, bids: list[float], budget: float) -> dict[int, float]:
        """Payments at ``budget``, folded in Python from the row lists."""
        n = bisect.bisect_right(self.reach, budget)
        return {k: _fold(rows, bids, budget) for k, rows in zip(self.picks[:n], self.rows)}

    def fold_columns(self, budget: float) -> dict[int, float]:
        """Payments at ``budget``, with the bits of ``fold_rows``, folded by
        array reductions over the columns, made from the rows on first use.

        ``_fold`` stops at a pick's first misfit, but the rows after it
        cannot count, so this folds every row. The misfit's candidate is
        picked next in that run, so the next row's spend is the misfit's
        spend plus its bid, above the budget, and every later row has a
        negative slack and entry. A winner's first row has spend 0.0, so
        its slack is the budget, and a replacement bid of at least 0 (the
        winner's gain is at least its bid there): its entry is at least 0.
        Every pick has that first row: a suffix the cut ends has a row
        before it, and one it does not end has a row for its first pick or
        for the leftover coverage.
        """
        n = bisect.bisect_right(self.reach, budget)
        if not n:
            return {}
        if self.columns is None:
            self._to_columns()
        offsets = self.offsets[: n + 1]
        raw, spend = self.columns[: offsets[-1]].T
        entry = budget - spend
        np.copyto(entry, raw, where=entry >= raw)  # min(raw, slack), as _fold picks
        best = np.maximum.reduceat(entry, offsets[:-1])
        for j in np.flatnonzero(best == 0):  # the first of +-0.0, as _fold keeps
            rows = entry[offsets[j] : offsets[j + 1]]
            best[j] = rows[np.argmax(rows == 0)]
        return dict(zip(self.picks[:n], best.tolist()))

    def _to_columns(self) -> None:
        """Turn the row lists into one array with a row per trace row, its
        replacement bid and its spend. Each pick's list is dropped once
        copied, last pick first, so the two forms never both hold all."""
        self.offsets = np.cumsum([0] + [len(rows) for rows in self.rows])
        self.columns = flat = np.empty((self.offsets[-1], 2))
        for start in self.offsets[-2::-1]:
            rows = self.rows.pop()
            triples = np.fromiter(chain.from_iterable(rows), float, 3 * len(rows))
            flat[start : start + len(rows)] = triples.reshape(-1, 3)[:, 1:]  # no candidate
        self.rows = None


def tbsap_payment(vehicle_id: int, instance: AuctionInstance) -> PaymentTrace:
    """Critical bid for a winner: the threshold above which it loses.

    Scans the selection order over the other vehicles in full, with no cut,
    and is the reference for ``tbsap``'s payments. Position by position it
    records the bid that would tie the candidate picked there, clamped by
    the budget slack at that point; when the scan ends for a reason other
    than a budget break, the vehicle could also be appended at the end, so
    its leftover marginal coverage (clamped the same way) joins the pool.
    The payment is the maximum over these feasible positions. It never
    depends on the winner's own bid.
    """
    budget = instance.budget
    bids, start, _ = _memo(instance)
    for k, _, rows in _critical_scans(start.fork(), budget, False, vehicle_id):
        payment = _fold(rows, bids, budget)
        tail = rows.pop() if rows and rows[-1][0] == k else None  # only the leftover row is k
        steps = tuple(PaymentStep(c, r, budget - s, min(r, budget - s)) for c, r, s in rows)
        tail_value, tail_slack = (tail[1], budget - tail[2]) if tail else (None, None)
        return PaymentTrace(vehicle_id, steps, tail_value, tail_slack, payment)
    raise NotWinnerError(f"vehicle {vehicle_id} is not a winner")


def tbsap(instance: AuctionInstance) -> AuctionOutcome:
    """Truthful budgeted auction: break-greedy allocation, critical payments."""
    memo = _memo(instance)
    bids, start, trace = memo
    budget = instance.budget
    if trace is not None and budget <= trace.cap:
        payments = trace.fold_columns(budget)
    else:  # new bids build at B, a higher B without cap
        cap = budget if trace is None else math.inf
        memo[2] = trace = None  # freed before its successor is built
        memo[2] = trace = _Trace(cap, _critical_scans(start.fork(), cap, True), bids)
        payments = trace.fold_rows(bids, budget)
    winners = list(payments)  # pick order
    total_bid = float(sum(instance.vehicle(v).bid for v in winners))
    profit = _coverage(start.values, instance, winners) - sum(payments.values())
    return AuctionOutcome(
        winners=tuple(winners), payments=payments, profit=profit, total_bid=total_bid
    )


def brute_force_optimum(instance: AuctionInstance) -> AuctionOutcome:
    """Exhaustive maximizer of Pbar(W) subject to the budget.

    Reference oracle for small instances; refuses more than
    ``BRUTE_FORCE_MAX_VEHICLES`` vehicles. Payments equal bids. Ties keep
    the first maximum found with vehicles considered in id order,
    include-branch first, so tied optima resolve toward lower ids.
    """
    validate_instance(instance)
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
    total_bid = float(sum(bids[v] for v in best_set))
    return AuctionOutcome(
        winners=best_set, payments=payments, profit=best_profit, total_bid=total_bid
    )


def write_outcome_csv(outcome: AuctionOutcome, instance: AuctionInstance, path) -> None:
    """One row per winner: vehicle_id, bid, payment, profit of the outcome."""
    import csv

    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vehicle_id", "bid", "payment", "profit"])
        for v in outcome.winners:
            bid = float(instance.vehicle(v).bid)
            writer.writerow([v, repr(bid), repr(outcome.payments[v]), repr(outcome.profit)])
