"""Independent reference implementations used only to check the package.

Everything here is written the slow, obvious way on purpose: set unions,
full rescans, binary search, ballot-by-ballot tallies, one scalar draw at a
time. Tests compare the
fast package code against these, so nothing in this file may import from
trafficmarket.auction or trafficmarket.consensus beyond the functions under
test's inputs and outputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain
from statistics import fmean
from typing import Iterable, Sequence

import numpy as np

from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    Task,
    Vehicle,
    coverage_value,
    left_sum,
)


def slow_generate_scenario(config: ScenarioConfig) -> AuctionInstance:
    """Scenario generation one scalar draw and one task at a time.

    Per task: x, y, then appraisement on (0, hi] as ``hi - uniform(0, hi)``.
    Per placement: x, y, detection distance, kappa, then a scan of every
    task with the strict rule ``(tx - x)**2 + (ty - y)**2 < d*d``. Python's
    ``**`` squares through libm ``pow``, which can be one ulp off the
    correctly rounded product, so this agrees with the package's products
    except for a task within an ulp of a detection circle.
    """
    rng = np.random.default_rng(config.rng_seed)
    side = config.city_side
    tasks = []
    for j in range(config.n_tasks):
        x = rng.uniform(0.0, side)
        y = rng.uniform(0.0, side)
        a = config.appraisement_max - rng.uniform(0.0, config.appraisement_max)
        tasks.append(Task(id=j, x=x, y=y, appraisement=a))

    lo, hi = config.detection_range
    vehicles = []
    for _ in range(config.n_vehicles):
        x = rng.uniform(0.0, side)
        y = rng.uniform(0.0, side)
        d = rng.uniform(lo, hi)
        kappa = config.kappa_max - rng.uniform(0.0, config.kappa_max)
        d2 = d * d
        subset = frozenset(
            t.id for t in tasks if (t.x - x) ** 2 + (t.y - y) ** 2 < d2
        )
        if not subset:
            continue
        cost = kappa * len(subset)
        vehicles.append(
            Vehicle(
                id=len(vehicles),
                x=x,
                y=y,
                detection_distance=d,
                true_cost=cost,
                task_subset=subset,
                bid=cost,
            )
        )
    return AuctionInstance(
        tasks=tuple(tasks),
        vehicles=tuple(vehicles),
        budget=config.budget,
        city_side=side,
    )


@dataclass(frozen=True)
class MarginalGain:
    vehicle_id: int
    gain: float  # Pbar(v|X) = A(v|X) - b_v
    unit_gain: float  # Phat(v|X) = gain / b_v


def reduced_profit(winners: Iterable[int], instance: AuctionInstance) -> float:
    """Pbar(W): coverage value minus the winners' bid total."""
    ids = list(winners)
    total_bid = left_sum(instance.vehicle(v).bid for v in ids)
    return coverage_value(ids, instance) - total_bid


def marginal_gain(
    vehicle_id: int, selected: Iterable[int], instance: AuctionInstance
) -> MarginalGain:
    """Direct evaluation of Pbar(v|X) and Phat(v|X), no incremental state."""
    vehicle = instance.vehicle(vehicle_id)
    if vehicle.bid <= 0:
        raise ValueError("unit gain undefined for nonpositive bid")
    covered: set[int] = set()
    for vid in selected:
        covered.update(instance.vehicle(vid).task_subset)
    values = {t.id: t.appraisement for t in instance.tasks}
    added = left_sum(values[t] for t in vehicle.task_subset - covered)
    gain = added - vehicle.bid
    return MarginalGain(vehicle_id, gain, gain / vehicle.bid)


def row_gains(values: np.ndarray, ordered: Sequence[Sequence[int]]) -> list[float]:
    """Each vehicle's initial gain, ``values[subset].sum()``, one row at a
    time: ``np.add.reduce`` on a slice of one gather, and ``sum`` from 0.0
    for rows of up to two entries."""
    flat = values.take(np.fromiter(chain.from_iterable(ordered), np.intp))
    items, gains, end = flat.tolist(), [], 0
    for subset in ordered:
        start, end = end, end + len(subset)
        if end - start > 2:
            gains.append(float(np.add.reduce(flat[start:end])))
        else:
            gains.append(sum(items[start:end], 0.0))
    return gains


def union_coverage(winner_ids, instance: AuctionInstance) -> float:
    covered = set()
    for vid in winner_ids:
        covered |= set(instance.vehicles[vid].task_subset)
    return left_sum(t.appraisement for t in instance.tasks if t.id in covered)


def rechecked_subset(vehicle, tasks) -> frozenset[int]:
    """Distance rule evaluated independently (hypot instead of squares)."""
    return frozenset(
        t.id
        for t in tasks
        if math.hypot(t.x - vehicle.x, t.y - vehicle.y) < vehicle.detection_distance
    )


def wins(instance: AuctionInstance, vehicle_id: int, bid: float, allocate) -> bool:
    return vehicle_id in allocate(instance.with_bid(vehicle_id, bid))


def critical_bid_bisection(
    instance: AuctionInstance, vehicle_id: int, allocate, iterations: int = 80
) -> float:
    """Win threshold by binary search; assumes win(bid) is monotone.

    A bid above the budget always loses (the allocation loop breaks), so
    budget + 1 is a safe losing upper bound. Returns the supremum of the
    winning interval up to bisection precision.
    """
    lo = instance.vehicle(vehicle_id).bid
    if not wins(instance, vehicle_id, lo, allocate):
        raise AssertionError("bisection oracle expects a current winner")
    hi = instance.budget + 1.0
    if wins(instance, vehicle_id, hi, allocate):
        return hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if wins(instance, vehicle_id, mid, allocate):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slow_greedy(instance: AuctionInstance, exclude=None, track=None, drop_misfits=False):
    """Greedy by unit gain, rescanning every vehicle on Python sets.

    Picks the highest unit gain (A(v|Y) - b_v) / b_v, lowest id on ties,
    and stops at the first negative one. The break rule (tbsap) also stops
    at the first pick whose bid does not fit; with ``drop_misfits``
    (greedy_heuristic) only bids within the remaining budget compete.
    ``exclude`` is never picked; ``track``'s marginal coverage is recorded
    at every position. Returns the picks, the candidate that broke the loop
    on budget (or None), and (A(track|Y), spent) at the end. Each pick or
    breaker is (candidate, bid, A(candidate|Y), A(track|Y), spent).
    """
    values = {t.id: t.appraisement for t in instance.tasks}
    bids = {v.id: v.bid for v in instance.vehicles}
    covered: set[int] = set()
    spent = 0.0

    def added(vid):
        return left_sum(values[t] for t in instance.vehicles[vid].task_subset - covered)

    def tracked():
        return added(track) if track is not None else None

    remaining = [v.id for v in instance.vehicles if v.id != exclude]
    picks = []
    while True:
        pool = [
            vid for vid in remaining
            if not drop_misfits or spent + bids[vid] <= instance.budget
        ]
        if not pool:
            break
        best = max(pool, key=lambda vid: ((added(vid) - bids[vid]) / bids[vid], -vid))
        gain = added(best)
        if (gain - bids[best]) / bids[best] < 0:
            break
        entry = (best, bids[best], gain, tracked(), spent)
        if spent + bids[best] > instance.budget:
            return picks, entry, (tracked(), spent)
        picks.append(entry)
        covered |= instance.vehicles[best].task_subset
        spent += bids[best]
        remaining.remove(best)
    return picks, None, (tracked(), spent)


def exclusion_payment(instance: AuctionInstance, vehicle_id: int):
    """Critical bid of a winner from one full greedy run without it.

    Every position of that run supports bids up to the smaller of the bid
    tying the candidate there and the budget slack there. A budget break
    ends the reachable positions at the breaker; any other ending adds the
    tail, where the vehicle appends with its leftover coverage. Returns
    (positions, tail_value, tail_slack, payment), one position per
    (candidate, replacement bid, slack).
    """
    picks, breaker, (tail_value, end_spent) = slow_greedy(
        instance, exclude=vehicle_id, track=vehicle_id
    )
    budget = instance.budget
    positions = [
        (cand, bid * mine / gain, budget - spent)
        for cand, bid, gain, mine, spent in picks + ([breaker] if breaker else [])
    ]
    pool = [min(raw, slack) for _, raw, slack in positions]
    tail_slack = None
    if breaker is None:
        tail_slack = budget - end_spent
        pool.append(min(tail_value, tail_slack))
    else:
        tail_value = None
    return positions, tail_value, tail_slack, max(pool)


def slow_cast_votes(nodes, theta: float) -> list[tuple[int, frozenset[int]]]:
    """Ballots as (voter id, explicit supported set), one full scan per voter.

    A well-behaved voter backs every other node at or above theta, an
    adversarial one every other node strictly below it; abstainers cast
    nothing.
    """
    ballots = []
    for voter in nodes:
        if not voter.behavior.votes:
            continue
        if voter.behavior.supports_low_reputation:
            supported = frozenset(
                n.id for n in nodes if n.id != voter.id and n.reputation < theta
            )
        else:
            supported = frozenset(
                n.id for n in nodes if n.id != voter.id and n.reputation >= theta
            )
        ballots.append((voter.id, supported))
    return ballots


def slow_tally(ballots, nodes, weighted: bool) -> dict[int, float]:
    """Voting result accumulated target by target, in ballot order.

    A supporter adds its reputation when ``weighted`` and exactly 1.0
    otherwise. Keys follow the order of ``nodes``.
    """
    reputations = {n.id: n.reputation for n in nodes}
    result = {n.id: 0.0 for n in nodes}
    for voter_id, supported in ballots:
        weight = reputations[voter_id] if weighted else 1.0
        for target in supported:
            result[target] += weight
    return result


def slow_pool_tally(pools, weights, home) -> list[float]:
    """Per id, a left fold from 0.0 of the weights of the ballots into its
    pool, one at a time in ballot order, skipping its own; 0.0 for an id in
    no pool. ``pools[p]`` lists pool ``p``'s voters in ballot order,
    ``weights[p]`` their weights, and ``home[i]`` id ``i``'s pool (-1 for
    none)."""
    result = []
    for node_id, pool in enumerate(home):
        total = 0.0
        if pool >= 0:
            for voter, weight in zip(pools[pool], weights[pool]):
                if voter != node_id:
                    total = total + weight
        result.append(total)
    return result


def slow_seat(result, committee_size, active_size, rng):
    """(members, active_order, standby) from a voting result: rank by
    (-result, id), shuffle the top ``active_size`` with ``rng``."""
    ranking = sorted(result, key=lambda a: (-result[a], a))
    active = ranking[:active_size]
    order = tuple(int(active[i]) for i in rng.permutation(len(active)))
    return (
        tuple(ranking[:committee_size]),
        order,
        tuple(ranking[active_size:committee_size]),
    )


def slow_run_epochs(nodes, params, committee_size, active_size, n_epochs, weighted, seed,
                    schedule=None):
    """Elect, run the leader rounds and update reputations node by node.

    ``schedule`` forces the committee of each epoch where it is not None,
    as ``run_epochs``' ``committee_schedule`` does.

    Mutates ``nodes`` like the package does. Returns history rows
    (epoch, round, node id, reputation, role, delta), chain blocks
    (epoch, round, producer, payload hash, confirmations) and per-epoch
    (voting result, members, active order, standby).
    """
    rng = np.random.default_rng(seed)
    by_id = {n.id: n for n in nodes}
    rows, chain, committees = [], [], []
    rnd = 0
    for epoch in range(n_epochs):
        ballots = slow_cast_votes(nodes, params.theta)
        voted = {voter for voter, _ in ballots}
        forced = schedule[epoch] if schedule is not None else None
        if forced is None:
            result = slow_tally(ballots, nodes, weighted)
            members, order, standby = slow_seat(result, committee_size, active_size, rng)
        else:
            rng.permutation(active_size)
            result = forced.voting_result
            members, order, standby = forced.members, forced.active_order, forced.standby
        committees.append((result, members, order, standby))
        for leader_id in order:
            leader = by_id[leader_id].behavior_at(rnd)
            gamma = {n.id: 0 for n in nodes}
            accepted = False
            if leader.produces_block:
                confirmations = 0
                for member_id in members:
                    if member_id == leader_id:
                        continue
                    correct = by_id[member_id].behavior_at(rnd).verifies_correctly
                    gamma[member_id] = 1 if correct else -1
                    valid = leader.produces_valid_block
                    if (valid and correct) or (not valid and not correct):
                        confirmations += 1
                accepted = confirmations > (2.0 / 3.0) * len(members)
                if accepted:
                    payload = hashlib.sha256(f"{epoch}:{rnd}".encode()).hexdigest()
                    chain.append((epoch, rnd, leader_id, payload, confirmations))
            for node in nodes:
                alpha = 1 if node.id in voted else -1
                beta = (1 if accepted else -1) if node.id == leader_id else 0
                delta = (
                    params.w_vote * alpha
                    + params.w_lead * beta
                    + params.w_verify * gamma[node.id]
                )
                rep = node.reputation + delta
                if rep > 1.0:
                    rep = 1.0
                elif rep < 0.0:
                    rep = 0.0
                node.reputation = rep
                if node.id == leader_id:
                    role = "leader"
                elif node.id in order:
                    role = "witness"
                elif node.id in standby:
                    role = "standby"
                else:
                    role = "none"
                rows.append((epoch, rnd, node.id, rep, role, delta))
            rnd += 1
    return rows, chain, committees


@dataclass(frozen=True)
class MetricRow:
    """One aggregated point of a sweep: the mean plus the per-trial values."""

    sweep_value: float
    metric: str
    mean: float
    values: tuple[float, ...]

    @classmethod
    def from_values(
        cls, sweep_value: float, metric: str, values: Sequence[float]
    ) -> "MetricRow":
        return cls(
            sweep_value=sweep_value,
            metric=metric,
            mean=fmean(values),
            values=tuple(values),
        )


def aggregate_metric(
    per_trial_rows: Sequence[Sequence[tuple]],
    sweep_index: int,
    label_index: int,
    value_index: int,
) -> list[MetricRow]:
    """Collect trial rows into MetricRows keyed by (sweep value, label).

    Rows from every trial are grouped on the sweep column and a label
    column (say the voting mode or mechanism name); the metric name is the
    label. Ordering follows first appearance, which is deterministic
    because trial row order is.
    """
    grouped: dict[tuple, list[float]] = {}
    for rows in per_trial_rows:
        for row in rows:
            key = (row[sweep_index], str(row[label_index]))
            grouped.setdefault(key, []).append(float(row[value_index]))
    return [
        MetricRow.from_values(sweep, label, values)
        for (sweep, label), values in grouped.items()
    ]
