"""Command-line front end.

Five subcommands: ``gen`` writes a scenario file, ``auction`` runs one
mechanism over a scenario and prints the outcome, ``consensus`` simulates
epochs and emits the reputation history, ``trade`` plays a full signed
trading round, and ``experiment`` runs the bundled studies. All output is
deterministic for a given seed: floats print via repr, dictionaries print
sorted, and nothing reads the clock.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from trafficmarket.auction import (
    SizeLimitError,
    brute_force_optimum,
    greedy_heuristic,
    tbsap,
    write_outcome_csv,
)
from trafficmarket.consensus import (
    ABNORMAL_BEHAVIOR,
    FullNode,
    ReputationParams,
    VotingMode,
    run_epochs,
    write_history_csv,
)
from trafficmarket.crypto import Ed25519X25519Scheme, HashStubScheme
from trafficmarket.experiments import EXPERIMENTS, ExperimentSpec
from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    coverage_value,
    generate_scenario,
    load_scenario,
    paper_example,
    save_scenario,
)
from trafficmarket.trading import build_world, run_trading_round, write_ledger_csv

MECHANISMS = {
    "greedy": greedy_heuristic,
    "tbsap": tbsap,
    "oracle": brute_force_optimum,
}

# flag name -> experiment parameter, vetted per experiment below
_EXPERIMENT_PARAMS = {
    "nodes": "population",
    "committee": "committee_size",
    "active": "active_size",
    "grid": "grid",
    "budgets": "budgets",
    "vehicle_counts": "vehicle_counts",
    "n_tasks": "n_tasks",
    "budget": "budget",
}
_ALLOWED_PARAMS = {
    "trajectory": set(),
    "rnw-vs-rafn": {"population", "committee_size", "active_size", "grid"},
    "profit-vs-budget": {"budgets", "vehicle_counts", "n_tasks"},
    "bid-payment": {"budget", "vehicle_counts", "n_tasks"},
}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _resolve_scenario(name: str) -> AuctionInstance:
    if name == "paper-example":
        return paper_example()
    return load_scenario(Path(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficmarket",
        description="Deterministic simulators for a vehicular data marketplace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-tasks", type=int, required=True)
    gen.add_argument("--n-vehicles", type=int, required=True)
    gen.add_argument("--budget", type=float, required=True)
    gen.add_argument("--city-side", type=float, default=1000.0)
    gen.add_argument("--out", required=True, help="scenario file to write")

    auction = sub.add_parser("auction", help="run one mechanism on a scenario")
    auction.add_argument(
        "--scenario", required=True,
        help="'paper-example' or a scenario file path",
    )
    auction.add_argument(
        "--mechanism", choices=sorted(MECHANISMS), default="tbsap"
    )
    auction.add_argument(
        "--budget", type=float, default=None, help="override the scenario budget"
    )
    auction.add_argument("--out", default=None, help="write winner rows as CSV")

    consensus = sub.add_parser("consensus", help="simulate consensus epochs")
    consensus.add_argument("--nodes", type=int, default=100)
    consensus.add_argument("--committee", type=int, default=70)
    consensus.add_argument("--active", type=int, default=10)
    consensus.add_argument("--epochs", type=int, default=5)
    consensus.add_argument("--abnormal-frac", type=float, default=0.0)
    consensus.add_argument(
        "--mode", choices=["reputation", "equal"], default="reputation"
    )
    consensus.add_argument("--seed", type=int, default=0)
    consensus.add_argument("--out", default=None, help="write history CSV")

    trade = sub.add_parser("trade", help="run a full signed trading round")
    trade.add_argument("--scenario", required=True)
    trade.add_argument(
        "--mechanism", choices=["greedy", "tbsap"], default="tbsap"
    )
    trade.add_argument("--scheme", choices=["real", "stub"], default="real")
    trade.add_argument("--seed", type=int, default=0)
    trade.add_argument("--out", default=None, help="write the trade ledger CSV")

    experiment = sub.add_parser("experiment", help="run a bundled study")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--trials", type=int, default=1)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--out-dir", default="results")
    experiment.add_argument("--parallel", action="store_true")
    experiment.add_argument("--nodes", type=int, default=None)
    experiment.add_argument("--committee", type=int, default=None)
    experiment.add_argument("--active", type=int, default=None)
    experiment.add_argument("--grid", type=_floats, default=None,
                            help="comma-separated sweep values")
    experiment.add_argument("--budgets", type=_floats, default=None,
                            help="comma-separated budget grid")
    experiment.add_argument("--vehicle-counts", type=_ints, default=None,
                            help="comma-separated densities")
    experiment.add_argument("--n-tasks", type=int, default=None)
    experiment.add_argument("--budget", type=float, default=None)
    return parser


def _cmd_gen(args) -> int:
    config = ScenarioConfig(
        n_tasks=args.n_tasks,
        n_vehicles=args.n_vehicles,
        budget=args.budget,
        rng_seed=args.seed,
        city_side=args.city_side,
    )
    instance = generate_scenario(config)
    save_scenario(instance, Path(args.out))
    print(
        f"wrote {args.out}: tasks={len(instance.tasks)}"
        f" vehicles={len(instance.vehicles)} budget={instance.budget!r}"
    )
    return 0


def _print_outcome(title: str, instance, outcome) -> None:
    print(f"scenario: {title}")
    print(f"winners: {' '.join(str(v) for v in outcome.winners)}")
    payments = " ".join(
        f"{v}={outcome.payments[v]!r}" for v in sorted(outcome.payments)
    )
    print(f"payments: {payments}")
    print(f"coverage: {coverage_value(outcome.winners, instance)!r}")
    print(f"total_bid: {outcome.total_bid!r}")
    print(f"profit: {outcome.profit!r}")


def _cmd_auction(args) -> int:
    instance = _resolve_scenario(args.scenario)
    if args.budget is not None:
        instance = instance.with_budget(args.budget)
    outcome = MECHANISMS[args.mechanism](instance)
    print(f"mechanism: {args.mechanism}")
    _print_outcome(args.scenario, instance, outcome)
    if args.out:
        write_outcome_csv(outcome, instance, Path(args.out))
        print(f"wrote {args.out}")
    return 0


def _build_population(n: int, abnormal_frac: float, seed: int) -> list[FullNode]:
    rng = np.random.default_rng([seed, 20])
    n_abnormal = round(abnormal_frac * n)
    hostile = set(int(i) for i in rng.choice(n, size=n_abnormal, replace=False))
    nodes = []
    for i in range(n):
        if i in hostile:
            nodes.append(
                FullNode(id=i, reputation=rng.uniform(0.0, 0.5),
                         behavior=ABNORMAL_BEHAVIOR)
            )
        else:
            nodes.append(FullNode(id=i, reputation=rng.uniform(0.5, 1.0)))
    return nodes


def _cmd_consensus(args) -> int:
    if not 0.0 <= args.abnormal_frac <= 1.0:
        raise ValueError("--abnormal-frac must lie in [0, 1]")
    nodes = _build_population(args.nodes, args.abnormal_frac, args.seed)
    mode = (
        VotingMode.REPUTATION_WEIGHTED
        if args.mode == "reputation"
        else VotingMode.EQUAL_WEIGHT
    )
    history = run_epochs(
        nodes,
        ReputationParams(),
        committee_size=args.committee,
        active_size=args.active,
        n_epochs=args.epochs,
        mode=mode,
        seed=args.seed,
    )
    rounds = len(history.rows) // len(nodes)  # one row per node per round
    print(
        f"nodes: {args.nodes} committee: {args.committee} active: {args.active}"
    )
    print(f"epochs: {args.epochs} rounds: {rounds} blocks: {len(history.chain)}")
    final = {n.id: n.reputation for n in nodes}
    mean = sum(final.values()) / len(final) if final else 0.0
    print(f"mean_final_reputation: {mean!r}")
    if args.out:
        write_history_csv(history, Path(args.out))
        print(f"wrote {args.out}")
    return 0


def _cmd_trade(args) -> int:
    instance = _resolve_scenario(args.scenario)
    scheme = Ed25519X25519Scheme() if args.scheme == "real" else HashStubScheme()
    world = build_world(instance, scheme, seed=args.seed)
    result = run_trading_round(
        world, instance, mechanism=MECHANISMS[args.mechanism]
    )
    print(f"scenario: {args.scenario}")
    print(f"mechanism: {args.mechanism}")
    for vid in sorted(result.sessions):
        session = result.sessions[vid]
        suffix = f"({session.failure})" if session.failure else ""
        print(f"session {vid}: {session.state.value}{suffix}")
    for vid in sorted(result.outcome.payments):
        if result.sessions[vid].paid_amount is not None:
            print(f"paid {vid}: {result.sessions[vid].paid_amount}")
    print(f"authority_balance: {world.authority.account.balance}")
    print(f"block: {result.block.hash if result.block else '-'}")
    if args.out:
        write_ledger_csv(world, Path(args.out))
        print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    params = {}
    for flag, param in _EXPERIMENT_PARAMS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if param not in _ALLOWED_PARAMS[args.name]:
            raise ValueError(
                f"--{flag.replace('_', '-')} does not apply to {args.name}"
            )
        params[param] = value
    spec = ExperimentSpec(
        experiment=args.name, trials=args.trials, seed=args.seed, params=params
    )
    for path in spec.run(out_dir=args.out_dir, parallel=args.parallel):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "auction": _cmd_auction,
    "consensus": _cmd_consensus,
    "trade": _cmd_trade,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
