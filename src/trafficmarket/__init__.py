"""Simulation toolkit for a vehicular traffic-data marketplace.

Budgeted reverse auctions between a traffic authority and sensing vehicles,
a reputation-weighted delegated-proof-of-stake consensus simulator, and a
signed information-trading protocol, plus the experiment harness that ties
them together. Everything is deterministic under explicit seeds.
"""

import importlib

from trafficmarket.auction import brute_force_optimum, greedy_heuristic, tbsap
from trafficmarket.consensus import (
    Behavior,
    FullNode,
    ReputationParams,
    VotingMode,
    run_epochs,
)
from trafficmarket.experiments import EXPERIMENTS, run_experiment
from trafficmarket.model import (
    AuctionInstance,
    AuctionOutcome,
    ScenarioConfig,
    Task,
    Vehicle,
    coverage_value,
    generate_scenario,
    load_scenario,
    paper_example,
    save_scenario,
)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(["Ed25519X25519Scheme", "HashStubScheme", "SignatureScheme"], "crypto")
_LAZY.update(dict.fromkeys(["SessionState", "build_world", "run_trading_round"], "trading"))


def __getattr__(name: str):
    """Import a trading or crypto name on first use (PEP 562), so that only
    they load ``cryptography``."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"trafficmarket.{_LAZY[name]}"), name)

__all__ = [
    "AuctionInstance",
    "AuctionOutcome",
    "Behavior",
    "EXPERIMENTS",
    "Ed25519X25519Scheme",
    "FullNode",
    "HashStubScheme",
    "ReputationParams",
    "ScenarioConfig",
    "SessionState",
    "SignatureScheme",
    "Task",
    "Vehicle",
    "VotingMode",
    "brute_force_optimum",
    "build_world",
    "coverage_value",
    "generate_scenario",
    "greedy_heuristic",
    "load_scenario",
    "paper_example",
    "run_epochs",
    "run_experiment",
    "run_trading_round",
    "save_scenario",
    "tbsap",
    "__version__",
]
