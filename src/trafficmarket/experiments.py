"""Bundled simulation studies and their CSV writers.

Four studies ship with the package:

- ``trajectory``: reputation paths of a well-behaved and a hostile node
  over five epochs under a pinned committee schedule.
- ``rnw-vs-rafn``: fraction of well-behaved committee seats as the share
  of hostile nodes grows, reputation-weighted vs equal-weight voting.
- ``profit-vs-budget``: authority profit for the filtering heuristic and
  the truthful mechanism across a budget sweep at two vehicle densities.
- ``bid-payment``: winning bids against their critical payments.

Every study takes a single integer seed and writes
``<out_dir>/<study>/<seed>.csv``; row order and float formatting are
deterministic, so identical seeds give byte-identical files. Trial seeds
never feed one shared stream: anything random inside a trial derives its
generator from ``[seed, tag, ...]`` so results do not depend on the order
trials run in.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from trafficmarket.auction import greedy_heuristic, tbsap
from trafficmarket.consensus import (
    ABNORMAL_BEHAVIOR,
    Committee,
    ConsensusHistory,
    FullNode,
    ReputationParams,
    VotingMode,
    cast_votes,
    elect_witnesses,
    run_epochs,
)
from trafficmarket.model import AuctionInstance, ScenarioConfig, generate_scenario

__all__ = [
    "BUDGET_GRID",
    "HOSTILE_FRACTION_GRID",
    "VEHICLE_COUNTS",
    "TRAJECTORY_NORMAL_WAYPOINTS",
    "TRAJECTORY_ABNORMAL_WAYPOINTS",
    "ExperimentSpec",
    "TrajectoryResult",
    "reputation_trajectory",
    "ideal_normal_fraction",
    "rnw_vs_rafn_rows",
    "profit_vs_budget_rows",
    "bid_payment_rows",
    "EXPERIMENTS",
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
    """One election per grid point and voting mode; same population for both.

    Well-behaved nodes start with reputation in [0.5, 1), hostile ones in
    [0, 0.5), hostile ids drawn without replacement so they interleave.
    Returns rows (rafn, mode, rnw, ideal).
    """
    rows = []
    for grid_index, rafn in enumerate(grid):
        rng = np.random.default_rng([seed, 10, grid_index])
        n_hostile = round(rafn * population)
        hostile_ids = set(
            int(i) for i in rng.choice(population, size=n_hostile, replace=False)
        )
        nodes = []
        for i in range(population):
            if i in hostile_ids:
                rep = rng.uniform(0.0, 0.5)
                nodes.append(FullNode(id=i, reputation=rep, behavior=ABNORMAL_BEHAVIOR))
            else:
                rep = rng.uniform(0.5, 1.0)
                nodes.append(FullNode(id=i, reputation=rep))
        params = ReputationParams()
        ballots = cast_votes(nodes, params)
        ideal = ideal_normal_fraction(population, committee_size, rafn)
        for mode_index, mode in enumerate(
            (VotingMode.REPUTATION_WEIGHTED, VotingMode.EQUAL_WEIGHT)
        ):
            committee = elect_witnesses(
                ballots,
                nodes,
                committee_size,
                active_size,
                mode,
                np.random.default_rng([seed, 11, grid_index, mode_index]),
            )
            normal_seats = sum(1 for m in committee.members if m not in hostile_ids)
            rows.append((rafn, mode.value, normal_seats / committee_size, ideal))
    return rows


def _paired_instances(
    seed: int, vehicle_counts: Sequence[int], n_tasks: int, budget: float
) -> dict[int, AuctionInstance]:
    """One geometric scenario per density, sharing the seed so the smaller
    placement set is a prefix of the larger one."""
    instances = {}
    for count in vehicle_counts:
        config = ScenarioConfig(
            n_tasks=n_tasks, n_vehicles=count, budget=budget, rng_seed=seed
        )
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
    instances = _paired_instances(seed, vehicle_counts, n_tasks, budgets[0])
    rows = []
    for count in vehicle_counts:
        for budget in budgets:
            instance = instances[count].with_budget(budget)
            greedy = greedy_heuristic(instance)
            truthful = tbsap(instance)
            rows.append(
                (count, budget, "greedy", greedy.profit, len(greedy.winners))
            )
            rows.append(
                (count, budget, "tbsap", truthful.profit, len(truthful.winners))
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
    instances = _paired_instances(seed, vehicle_counts, n_tasks, budget)
    rows = []
    for count in vehicle_counts:
        outcome = tbsap(instances[count])
        for winner in outcome.winners:
            bid = instances[count].vehicle(winner).bid
            rows.append((count, winner, bid, outcome.payments[winner]))
    return rows


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_rows(path: Path, header: Sequence[str], rows: Sequence[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def _run_trajectory(seed: int, out_dir: Path, params: dict) -> Path:
    result = reputation_trajectory(seed, **params)
    path = out_dir / "trajectory" / f"{seed}.csv"
    _write_rows(path, ["round", "normal_reputation", "abnormal_reputation"], result.rows)
    return path


def _run_rnw(seed: int, out_dir: Path, params: dict) -> Path:
    rows = rnw_vs_rafn_rows(seed, **params)
    path = out_dir / "rnw-vs-rafn" / f"{seed}.csv"
    _write_rows(path, ["rafn", "mode", "rnw", "ideal"], rows)
    return path


def _run_profit(seed: int, out_dir: Path, params: dict) -> Path:
    rows = profit_vs_budget_rows(seed, **params)
    path = out_dir / "profit-vs-budget" / f"{seed}.csv"
    _write_rows(path, ["n_vehicles", "budget", "mechanism", "profit", "n_winners"], rows)
    return path


def _run_scatter(seed: int, out_dir: Path, params: dict) -> Path:
    rows = bid_payment_rows(seed, **params)
    path = out_dir / "bid-payment" / f"{seed}.csv"
    _write_rows(path, ["n_vehicles", "vehicle_id", "bid", "payment"], rows)
    return path


EXPERIMENTS: dict[str, Callable[[int, Path, dict], Path]] = {
    "trajectory": _run_trajectory,
    "rnw-vs-rafn": _run_rnw,
    "profit-vs-budget": _run_profit,
    "bid-payment": _run_scatter,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A named study plus how many trials to run and where randomness starts.

    ``params`` carries per-study overrides (population sizes, sweep grids,
    task counts); trial k runs with seed ``seed + k``.
    """

    experiment: str
    trials: int = 1
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name, value in self.params.items():
            if isinstance(value, (tuple, list)) and len(value) == 0:
                raise ValueError(f"sweep grid {name!r} must be nonempty")

    def seeds(self) -> range:
        return range(self.seed, self.seed + self.trials)

    def run(self, out_dir: Path | str = "results", parallel: bool = False) -> list[Path]:
        return run_experiment(
            self.experiment, self.seeds(), out_dir, parallel, self.params
        )


def _run_one(args) -> Path:
    name, seed, out_dir, params = args
    return EXPERIMENTS[name](seed, Path(out_dir), params)


def run_experiment(
    name: str,
    seeds: Sequence[int],
    out_dir: Path | str = "results",
    parallel: bool = False,
    params: dict | None = None,
) -> list[Path]:
    """Write one CSV per seed for the named study; returns the paths."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    jobs = [(name, seed, str(out_dir), params or {}) for seed in seeds]
    if parallel and len(jobs) > 1:
        # imported here: loading the process pool costs every other run ~30 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            return list(pool.map(_run_one, jobs))
    return [_run_one(job) for job in jobs]
