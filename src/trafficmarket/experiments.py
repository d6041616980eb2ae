"""Bundled simulation studies.

Four studies ship with the package:

- ``trajectory``: reputation paths of a well-behaved and a hostile node
  over five epochs under a pinned committee schedule.
- ``rnw-vs-rafn``: fraction of well-behaved committee seats as the share
  of hostile nodes grows, reputation-weighted vs equal-weight voting.
- ``profit-vs-budget``: authority profit for the filtering heuristic and
  the truthful mechanism across a budget sweep at two vehicle densities.
- ``bid-payment``: winning bids against their critical payments.

``EXPERIMENTS`` maps each name to its row function and CSV header, and
``run_experiment`` is the one entry point: it writes
``<out_dir>/<study>/<seed>.csv`` per seed. Overrides are the row
function's keyword parameters. Rows come in a fixed order and
``model.write_rows`` writes them, so identical seeds give byte-identical
files. Every seed passes ``model.validate_count`` before anything is
written, and a row holds the plain ``int``s and ``float``s that the rules
in ``model`` return, never a ``bool`` or a numpy scalar. Trial seeds never
feed one shared stream: anything random inside a trial derives its
generator from ``[seed, tag, ...]`` so results do not depend on the order
trials run in.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from trafficmarket.auction import greedy_heuristic, tbsap
from trafficmarket.consensus import (
    ABNORMAL_BEHAVIOR,
    NORMAL_BEHAVIOR,
    Committee,
    ConsensusHistory,
    FullNode,
    ReputationParams,
    VotingMode,
    _check_sizes,
    _elect,
    _read_nodes,
    run_epochs,
    sample_population,
)
from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    generate_scenario,
    validate_count,
    write_rows,
)

__all__ = [
    "BUDGET_GRID",
    "HOSTILE_FRACTION_GRID",
    "VEHICLE_COUNTS",
    "TRAJECTORY_NORMAL_WAYPOINTS",
    "TRAJECTORY_ABNORMAL_WAYPOINTS",
    "TrajectoryResult",
    "reputation_trajectory",
    "ideal_normal_fraction",
    "rnw_vs_rafn_rows",
    "profit_vs_budget_rows",
    "bid_payment_rows",
    "EXPERIMENTS",
    "allowed_params",
    "run_experiment",
]

BUDGET_GRID = tuple(float(b) for b in range(25, 401, 25))
HOSTILE_FRACTION_GRID = tuple(i / 20 for i in range(20))  # 0.00 .. 0.95
VEHICLE_COUNTS = (500, 1000)

# reputation checkpoints at each epoch boundary for the two tracked nodes
TRAJECTORY_NORMAL_WAYPOINTS = (0.55, 0.74, 0.93, 1.0, 1.0)
TRAJECTORY_ABNORMAL_WAYPOINTS = (0.45, 0.40, 0.21, 0.02, 0.0)


@dataclass(frozen=True)
class TrajectoryResult:
    rows: tuple[tuple[int, float, float], ...]  # round, normal rep, hostile rep
    history: ConsensusHistory


def _forced(members, active_order, standby) -> Committee:
    return Committee(
        members=tuple(members),
        active_order=tuple(active_order),
        standby=tuple(standby),
        voting_result={},
    )


def reputation_trajectory(seed: int = 0) -> TrajectoryResult:
    """Five pinned epochs, ten rounds each, tracking nodes 0 and 1.

    Node 0 behaves and climbs: a plain voter in epoch 0, then an active
    witness leading once per epoch until the ceiling. Node 1 abstains and
    sabotages: outside the committee for two epochs, then an active witness
    verifying wrongly and producing one invalid block per epoch until the
    floor. Background nodes 2..13 fill the remaining seats.
    """
    nodes = [FullNode(id=i, reputation=0.5) for i in range(14)]
    nodes[1].behavior = replace(ABNORMAL_BEHAVIOR, votes=False)  # also abstains
    background = list(range(2, 14))
    schedule = [
        _forced(background, background[:10], background[10:]),
        _forced([0] + background[:11], background[:9] + [0], background[9:11]),
    ]
    both = _forced([0, 1] + background[:10], background[:8] + [0, 1], background[8:10])
    schedule += [both, both, both]
    history = run_epochs(
        nodes,
        ReputationParams(),
        committee_size=12,
        active_size=10,
        n_epochs=5,
        seed=seed,
        committee_schedule=schedule,
    )
    normal = {r.round_index: r.reputation for r in history.rows_for(0)}
    hostile = {r.round_index: r.reputation for r in history.rows_for(1)}
    rows = tuple((rnd, normal[rnd], hostile[rnd]) for rnd in sorted(normal))
    return TrajectoryResult(rows=rows, history=history)


def ideal_normal_fraction(population: int, committee_size: int, rafn: float) -> float:
    """Best achievable share of well-behaved committee seats."""
    return min(1.0, population * (1.0 - rafn) / committee_size)


def rnw_vs_rafn_rows(
    seed: int,
    population: int = 100,
    committee_size: int = 70,
    active_size: int = 10,
    grid: Sequence[float] = HOSTILE_FRACTION_GRID,
) -> list[tuple]:
    """One election per grid point and voting mode; same population for both,
    drawn by ``sample_population``. Returns rows (rafn, mode, rnw, ideal).
    """
    rows = []
    for grid_index, rafn in enumerate(grid):
        rng = np.random.default_rng([seed, 10, grid_index])
        nodes = sample_population(population, rafn, rng)  # refuses a rafn float() would coerce
        # the sizes are checked before the ideal divides by one
        committee_size, active_size = _check_sizes(committee_size, active_size, population)
        run, params = _read_nodes(nodes), ReputationParams()
        ideal = ideal_normal_fraction(len(nodes), committee_size, float(rafn))
        for mode_index, mode in enumerate(
            (VotingMode.REPUTATION_WEIGHTED, VotingMode.EQUAL_WEIGHT)
        ):
            seat_rng = np.random.default_rng([seed, 11, grid_index, mode_index])
            committee = _elect(
                run, run.reputations, params, committee_size, active_size, mode, seat_rng
            )
            normal_seats = sum(
                1 for m in committee.members if nodes[m].behavior is NORMAL_BEHAVIOR
            )
            rows.append((float(rafn), mode.value, normal_seats / committee_size, ideal))
    return rows


def _paired_instances(
    seed: int, vehicle_counts: Sequence[int], n_tasks: int
) -> dict[int, AuctionInstance]:
    """One geometric scenario per density, sharing the seed so the smaller
    placement set is a prefix of the larger one. The budget does not enter
    the geometry; callers set it per auction through ``with_budget``."""
    instances = {}
    for count in vehicle_counts:
        if count in instances:  # a repeat would repeat rows
            raise ValueError(f"vehicle_counts grid repeats {count!r}")
        config = ScenarioConfig(n_tasks=n_tasks, n_vehicles=count, budget=1.0, rng_seed=seed)
        instances[count] = generate_scenario(config)
    return instances


def profit_vs_budget_rows(
    seed: int,
    budgets: Sequence[float] = BUDGET_GRID,
    vehicle_counts: Sequence[int] = VEHICLE_COUNTS,
    n_tasks: int = 200,
) -> list[tuple]:
    """Rows (n_vehicles, budget, mechanism, profit, n_winners).

    The heuristic's profit is coverage minus winning bids; the truthful
    mechanism's is coverage minus critical payments.
    """
    for i, budget in enumerate(budgets):  # a repeat would repeat rows
        if budget in budgets[:i]:
            raise ValueError(f"budgets grid repeats {budget!r}")
    instances = _paired_instances(seed, vehicle_counts, n_tasks)
    rows = []
    for count in vehicle_counts:
        for budget in budgets:
            instance = instances[count].with_budget(budget)
            greedy = greedy_heuristic(instance)
            truthful = tbsap(instance)
            rows.append(
                (count, instance.budget, "greedy", greedy.profit, len(greedy.winners))
            )
            rows.append(
                (count, instance.budget, "tbsap", truthful.profit, len(truthful.winners))
            )
    return rows


def bid_payment_rows(
    seed: int,
    budget: float = 100.0,
    vehicle_counts: Sequence[int] = VEHICLE_COUNTS,
    n_tasks: int = 200,
) -> list[tuple]:
    """Winner rows (n_vehicles, vehicle_id, bid, payment) under the truthful
    mechanism at a fixed budget."""
    instances = _paired_instances(seed, vehicle_counts, n_tasks)
    rows = []
    for count in vehicle_counts:
        instance = instances[count].with_budget(budget)
        outcome = tbsap(instance)
        for winner in outcome.winners:
            bid = instance.vehicle(winner).bid
            rows.append((count, winner, bid, outcome.payments[winner]))
    return rows


def _trajectory_rows(seed: int) -> tuple[tuple[int, float, float], ...]:
    return reputation_trajectory(seed).rows


EXPERIMENTS: dict[str, tuple[Callable[..., Sequence[tuple]], tuple[str, ...]]] = {
    "trajectory": (
        _trajectory_rows, ("round", "normal_reputation", "abnormal_reputation")
    ),
    "rnw-vs-rafn": (rnw_vs_rafn_rows, ("rafn", "mode", "rnw", "ideal")),
    "profit-vs-budget": (
        profit_vs_budget_rows,
        ("n_vehicles", "budget", "mechanism", "profit", "n_winners"),
    ),
    "bid-payment": (bid_payment_rows, ("n_vehicles", "vehicle_id", "bid", "payment")),
}


def allowed_params(name: str) -> tuple[str, ...]:
    """The overrides a study takes: its row function's parameters after the seed."""
    rows, _ = EXPERIMENTS[name]
    return tuple(inspect.signature(rows).parameters)[1:]


def run_experiment(
    name: str,
    seeds: Sequence[int],
    out_dir: Path | str = "results",
    params: dict | None = None,
) -> list[Path]:
    """Write ``<out_dir>/<name>/<seed>.csv`` for each seed; returns the paths.

    ``params`` overrides keyword parameters of the study's row function
    (population sizes, sweep grids, task counts); a grid must be nonempty.
    Every seed is checked before the first file is written.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    if not seeds:
        raise ValueError("need at least one seed: trials must be at least 1")
    params = params or {}
    for key, value in params.items():
        if key not in allowed_params(name):
            raise ValueError(f"{key!r} does not apply to {name}")
        if isinstance(value, (tuple, list)) and len(value) == 0:
            raise ValueError(f"sweep grid {key!r} must be nonempty")
    rows, header = EXPERIMENTS[name]
    paths = []
    for seed in [validate_count(s, "seed") for s in seeds]:
        # rows first, so a grid the row function rejects leaves no directory
        table = rows(seed, **params)
        paths.append(Path(out_dir) / name / f"{seed}.csv")
        paths[-1].parent.mkdir(parents=True, exist_ok=True)
        write_rows(paths[-1], header, table)
    return paths
