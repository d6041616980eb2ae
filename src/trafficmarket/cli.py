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
    ReputationParams,
    VotingMode,
    run_epochs,
    sample_population,
    write_history_csv,
)
from trafficmarket.experiments import EXPERIMENTS, allowed_params, run_experiment
from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    coverage_value,
    generate_scenario,
    left_sum,
    load_scenario,
    paper_example,
    save_scenario,
)

MECHANISMS = {
    "greedy": greedy_heuristic,
    "tbsap": tbsap,
    "oracle": brute_force_optimum,
}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# experiment overrides: (flag, row-function parameter, type, help)
_OVERRIDES = (
    ("--nodes", "population", int, None),
    ("--committee", "committee_size", int, None),
    ("--active", "active_size", int, None),
    ("--grid", "grid", _floats, "comma-separated sweep values"),
    ("--budgets", "budgets", _floats, "comma-separated budget grid"),
    ("--vehicle-counts", "vehicle_counts", _ints, "comma-separated densities"),
    ("--n-tasks", "n_tasks", int, None),
    ("--budget", "budget", float, None),
)


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
        "--mode", choices=[mode.value for mode in VotingMode], default="reputation"
    )
    consensus.add_argument("--seed", type=int, default=0)
    consensus.add_argument("--out", default=None, help="write history CSV")

    trade = sub.add_parser("trade", help="run a full signed trading round")
    trade.add_argument("--scenario", required=True)
    trade.add_argument(
        "--mechanism", choices=sorted(MECHANISMS), default="tbsap"
    )
    trade.add_argument("--scheme", choices=["real", "stub"], default="real")
    trade.add_argument("--seed", type=int, default=0)
    trade.add_argument("--out", default=None, help="write the trade ledger CSV")

    experiment = sub.add_parser("experiment", help="run a bundled study")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--trials", type=int, default=1)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--out-dir", default="results")
    for flag, dest, kind, text in _OVERRIDES:
        experiment.add_argument(flag, dest=dest, type=kind, default=None, help=text)
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


def _cmd_consensus(args) -> int:
    rng = np.random.default_rng([args.seed, 20])
    nodes = sample_population(args.nodes, args.abnormal_frac, rng)
    history = run_epochs(
        nodes,
        ReputationParams(),
        committee_size=args.committee,
        active_size=args.active,
        n_epochs=args.epochs,
        mode=VotingMode(args.mode),
        seed=args.seed,
    )
    rounds = len(history.rounds)
    print(
        f"nodes: {args.nodes} committee: {args.committee} active: {args.active}"
    )
    print(f"epochs: {args.epochs} rounds: {rounds} blocks: {len(history.chain)}")
    final = {n.id: n.reputation for n in nodes}
    mean = left_sum(final.values()) / len(final) if final else 0.0
    print(f"mean_final_reputation: {mean!r}")
    if args.out:
        write_history_csv(history, Path(args.out))
        print(f"wrote {args.out}")
    return 0


def _cmd_trade(args) -> int:
    # only this subcommand needs cryptography, so only it imports it
    from trafficmarket.crypto import Ed25519X25519Scheme, HashStubScheme
    from trafficmarket.trading import build_world, run_trading_round, write_ledger_csv

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
    winners = result.outcome.winners
    if winners and result.block is None:  # the round settled nothing
        aborted = sum(result.sessions[v].failure is not None for v in winners)
        print(f"error: no block written: {aborted} of {len(winners)} winners aborted",
              file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args) -> int:
    params = {}
    for flag, dest, _, _ in _OVERRIDES:
        value = getattr(args, dest)
        if value is None:
            continue
        if dest not in allowed_params(args.name):
            raise ValueError(f"{flag} does not apply to {args.name}")
        params[dest] = value
    seeds = range(args.seed, args.seed + args.trials)
    for path in run_experiment(args.name, seeds, args.out_dir, params):
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
        # numpy would reject a negative seed later, without naming the flag
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
