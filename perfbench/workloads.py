"""The benchmark workloads.

A workload makes every input from its seed in ``setup`` and hands the
package only the generated objects. ``run`` performs one op, the unit that
per-op metrics count, and is the only timed call. ``check`` turns the op's
output into a digest plus the units the run reports (attempted, failed,
work). ``probe`` runs only in the traced run: it adds per-layer counts and
the extra public calls (``tbsap_allocate``, ``tbsap_payment``, the consensus
decomposition) that time a layer the op itself calls opaquely.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from trafficmarket.auction import greedy_heuristic, tbsap, tbsap_allocate, tbsap_payment
from trafficmarket.consensus import (
    ABNORMAL_BEHAVIOR,
    NORMAL_BEHAVIOR,
    ConsensusState,
    FullNode,
    ReputationParams,
    VotingMode,
    cast_votes,
    elect_witnesses,
    run_epochs,
    run_round,
)
from trafficmarket.crypto import Ed25519X25519Scheme
from trafficmarket.model import (
    AuctionInstance,
    AuctionOutcome,
    ScenarioConfig,
    Task,
    Vehicle,
    generate_scenario,
)
from trafficmarket.trading import GENESIS_HASH, SessionState, build_world, run_trading_round

from tracing import NULL_TRACER, CountingScheme

Mechanism = Callable[[AuctionInstance], AuctionOutcome]

#: hex digits kept of each op's sha256 output digest
DIGEST_HEX = 8


def digest(*parts) -> str:
    """Digest of the repr of the parts; floats enter through their repr."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:DIGEST_HEX]


class Checked(NamedTuple):
    digest: str
    attempted: int
    failed: int
    work: int


def outcome_holds(instance: AuctionInstance, outcome: AuctionOutcome) -> bool:
    """Invariants every truthful outcome keeps, checked on every seed."""
    winners = outcome.winners
    return (
        len(set(winners)) == len(winners)
        and set(outcome.payments) == set(winners)
        and outcome.total_bid <= instance.budget
        and all(outcome.payments[w] >= instance.vehicle(w).bid for w in winners)
    )


class Workload:
    name = ""
    #: whether the op outputs depend on the seed, so pins are kept per seed
    seeded_outputs = True
    #: percentile reported as op_s.tail: the highest with at least 10 ops
    #: beyond it in a run of the benchmark's length (see README.md)
    tail_pct = 50
    work_unit = ""

    def __init__(self, seed: int, tracer=NULL_TRACER, mechanism: Mechanism = tbsap):
        self.seed = seed
        self.tr = tracer
        self.mechanism = mechanism
        self._positions: dict = {}  # payment positions per op key, see probe

    def setup(self) -> None:
        raise NotImplementedError

    def pass_keys(self):
        """Op keys of one pass: a fixed batch a run always completes whole."""
        raise NotImplementedError

    def prepare(self, key):
        """Untimed per-op input preparation."""
        return None

    def run(self, key, arg):
        raise NotImplementedError

    def check(self, key, arg, out) -> Checked:
        raise NotImplementedError

    def probe(self, key, out, checked: Checked, counts: Counter) -> None:
        raise NotImplementedError

    def scenario_counts(self, counts: Counter) -> None:
        """Set-up facts for the model.* metrics; none by default."""

    def _probe_auction(self, key, instance: AuctionInstance, outcome: AuctionOutcome,
                       counts: Counter) -> None:
        """Time the allocation alone and count critical-payment positions.

        ``tbsap_payment`` re-runs the allocation once per winner, so the
        positions of each distinct input are counted once and reused; the
        payments it traces must equal the ones the op returned.
        """
        with self.tr.span("auction.tbsap_allocate"):
            tbsap_allocate(instance)
        if key not in self._positions:
            positions = 0
            with self.tr.span("auction.tbsap_payment"):
                for winner in outcome.winners:
                    trace = tbsap_payment(winner, instance)
                    if trace.payment != outcome.payments[winner]:
                        raise ValueError(
                            f"tbsap_payment prices vehicle {winner} at "
                            f"{trace.payment!r}, tbsap at {outcome.payments[winner]!r}"
                        )
                    positions += len(trace.candidates) + (trace.tail_value is not None)
            self._positions[key] = positions
        counts["auction.winners"] += len(outcome.winners)
        counts["auction.payment_positions"] += self._positions[key]


# auction-dense: the inner loop of the profit-vs-budget and bid-payment
# studies on one dense map, where about 160 winners each re-run the
# allocation to find their critical payment.
DENSE_TASKS = 200
DENSE_PLACEMENTS = 4000
DENSE_BUDGETS = (25.0, 50.0, 100.0, 200.0, 400.0)


class AuctionDense(Workload):
    name = "auction-dense"
    work_unit = "priced winners"

    def setup(self) -> None:
        config = ScenarioConfig(
            n_tasks=DENSE_TASKS,
            n_vehicles=DENSE_PLACEMENTS,
            budget=DENSE_BUDGETS[-1],
            rng_seed=self.seed,
        )
        with self.tr.span("model.generate_scenario"):
            self.scenario = generate_scenario(config)
        self.instances = [self.scenario.with_budget(b) for b in DENSE_BUDGETS]

    def scenario_counts(self, counts: Counter) -> None:
        counts["model.vehicles"] = len(self.scenario.vehicles)
        counts["model.placements"] = DENSE_PLACEMENTS

    def pass_keys(self):
        return range(len(self.instances))

    def run(self, key, arg):
        instance = self.instances[key]
        with self.tr.span("auction.greedy_heuristic"):
            greedy = greedy_heuristic(instance)
        with self.tr.span("auction.tbsap"):
            truthful = self.mechanism(instance)
        return greedy, truthful

    def check(self, key, arg, out) -> Checked:
        greedy, truthful = out
        holds = outcome_holds(self.instances[key], truthful)
        return Checked(
            digest(greedy.winners, truthful.winners,
                   [truthful.payments[w] for w in truthful.winners]),
            1,
            0 if holds else 1,
            len(truthful.winners),
        )

    def probe(self, key, out, checked, counts) -> None:
        self._probe_auction(key, self.instances[key], out[1], counts)


# auction-small: many small instances with adversarial overlap, drawn the way
# the truthful-mechanism property gate draws them; about 3 winners each, so
# per-call fixed costs dominate.
SMALL_POOL = 512
SMALL_MAX_VEHICLES = 50
SMALL_MAX_TASKS = 100


def synthetic_instance(rng: np.random.Generator) -> AuctionInstance:
    """Random task subsets, values on (0, 10], bids on (0, 10], and a budget
    between 1 and 1 + 3 x the bid total; positions are placeholders."""
    m = int(rng.integers(1, SMALL_MAX_TASKS + 1))
    n = int(rng.integers(1, SMALL_MAX_VEHICLES + 1))
    values = 10.0 - rng.uniform(0.0, 10.0, size=m)
    subsets = [
        rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist()
        for _ in range(n)
    ]
    bids = 10.0 - rng.uniform(0.0, 10.0, size=n)
    budget = float(1.0 + rng.uniform(0.0, 1.0) * 3.0 * float(np.sum(bids)))
    tasks = tuple(
        Task(id=j, x=float(j), y=0.0, appraisement=float(a)) for j, a in enumerate(values)
    )
    vehicles = tuple(
        Vehicle(
            id=i,
            x=0.0,
            y=float(i),
            detection_distance=0.0,
            true_cost=float(b),
            task_subset=frozenset(s),
            bid=float(b),
        )
        for i, (s, b) in enumerate(zip(subsets, bids))
    )
    return AuctionInstance(tasks=tasks, vehicles=vehicles, budget=budget)


class AuctionSmall(Workload):
    name = "auction-small"
    #: the highest percentile with at least 10 distinct pool instances beyond it
    tail_pct = 98
    work_unit = "priced winners"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.pool = [synthetic_instance(rng) for _ in range(SMALL_POOL)]

    def pass_keys(self):
        return range(len(self.pool))

    def run(self, key, arg):
        with self.tr.span("auction.tbsap"):
            return self.mechanism(self.pool[key])

    def check(self, key, arg, out) -> Checked:
        holds = outcome_holds(self.pool[key], out)
        return Checked(
            # None takes the place auction-dense gives its greedy winners
            digest(None, out.winners, [out.payments[w] for w in out.winners]),
            1,
            0 if holds else 1,
            len(out.winners),
        )

    def probe(self, key, out, checked, counts) -> None:
        self._probe_auction(key, self.pool[key], out, counts)


# consensus-epochs: the CLI consensus job at N=1000, where ballots cost O(N^2).
POPULATION = 1000
HOSTILE_FRACTION = 0.2
COMMITTEE = 700
ACTIVE = 10
EPOCHS = 5
PARAMS = ReputationParams()
MODE = VotingMode.REPUTATION_WEIGHTED


def history_digest(rows, chain) -> str:
    """Digest of history rows (epoch, round, node, reputation, role, delta)
    and of the chain's block records."""
    return digest(
        rows,
        [(b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
         for b in chain],
    )


class ConsensusEpochs(Workload):
    name = "consensus-epochs"
    work_unit = "node-round updates"

    def setup(self) -> None:
        # Same draws as the CLI's population: hostile ids first, then one
        # reputation per node in id order.
        rng = np.random.default_rng([self.seed, 20])
        hostile = {
            int(i)
            for i in rng.choice(
                POPULATION, size=round(HOSTILE_FRACTION * POPULATION), replace=False
            )
        }
        self.population = [
            (i, rng.uniform(0.0, 0.5), ABNORMAL_BEHAVIOR)
            if i in hostile
            else (i, rng.uniform(0.5, 1.0), NORMAL_BEHAVIOR)
            for i in range(POPULATION)
        ]

    def fresh_nodes(self) -> list[FullNode]:
        return [FullNode(id=i, reputation=r, behavior=b) for i, r, b in self.population]

    def pass_keys(self):
        return (0,)

    def prepare(self, key):
        return self.fresh_nodes()

    def run(self, key, nodes):
        with self.tr.span("consensus.run_epochs"):
            return run_epochs(
                nodes, PARAMS, COMMITTEE, ACTIVE, EPOCHS, mode=MODE, seed=self.seed
            )

    def check(self, key, nodes, history) -> Checked:
        rows = [
            (r.epoch, r.round_index, r.node_id, r.reputation, r.role, r.delta)
            for r in history.rows
        ]
        holds = all(0.0 <= n.reputation <= 1.0 for n in nodes)
        return Checked(history_digest(rows, history.chain), 1, 0 if holds else 1, len(rows))

    def probe(self, key, out, checked, counts) -> None:
        """Drive run_epochs' steps one by one, in its order, under spans.

        The decomposition must reproduce the op's history digest exactly;
        otherwise the layer times below do not describe the op.
        """
        tr = self.tr
        nodes = self.fresh_nodes()
        rng = np.random.default_rng(self.seed)
        state = ConsensusState()
        rows = []
        with tr.span("consensus.decomposed"):
            for epoch in range(EPOCHS):
                with tr.span("consensus.cast_votes"):
                    ballots = cast_votes(nodes, PARAMS)
                counts["consensus.ballots"] += len(ballots)
                counts["consensus.ballot_entries"] += sum(len(b.supported) for b in ballots)
                voted = frozenset(b.voter_id for b in ballots)
                with tr.span("consensus.elect_witnesses"):
                    committee = elect_witnesses(ballots, nodes, COMMITTEE, ACTIVE, MODE, rng)
                with tr.span("consensus.start_epoch"):
                    state.start_epoch(committee, voted)
                for _ in range(len(committee.active_order)):
                    if state.next_leader() is None:
                        break
                    with tr.span("consensus.run_round"):
                        records = run_round(state, nodes, PARAMS)
                    counts["consensus.rounds"] += 1
                    counts["consensus.blocks_rejected"] += sum(r.beta == -1 for r in records)
                    round_index = state.global_round - 1
                    rows.extend(
                        (epoch, round_index, r.node_id, r.reputation, r.role, r.delta)
                        for r in records
                    )
                counts["consensus.leaders_skipped"] += len(state.skipped)
        counts["consensus.blocks_accepted"] += len(state.chain)
        counts["consensus.history_rows"] += len(rows)
        if history_digest(rows, state.chain) != checked.digest:
            raise ValueError("consensus decomposition does not reproduce run_epochs")
        counts["consensus.parity_ok"] += 1


# trade-round: one signed eight-step round per op on the 215-vehicle map,
# always the same map so the seed varies keys and ciphertexts only.
TRADE_SCENARIO = ScenarioConfig(n_tasks=200, n_vehicles=1000, budget=400.0, rng_seed=1)
#: Rounds run on one world before it is built afresh. Every round index has
#: a pinned digest, so no op goes unpinned however fast rounds become. The
#: authority is funded with the quoted payment total for this many rounds:
#: funding with the budget alone (the build_world default) leaves quoted
#: payments (491) above B=400, and every winner aborts before steps 4-8;
#: see README.md.
WORLD_ROUNDS = 64
LOST = "lost auction"


ABORT_STAGES = ("broadcast", "request", "order", "data", "confirm")
ABORT_REASONS = ("lost_auction", "balance") + ABORT_STAGES + ("other",)


def abort_reason(failure: str) -> str:
    """Metric-name slug for a session failure string."""
    if failure == LOST:
        return "lost_auction"
    if failure == "authority balance insufficient":
        return "balance"
    if failure == "data rejected":
        return "data"
    stage = failure.split(":", 1)[0]
    return stage if stage in ABORT_STAGES else "other"


class TradeRound(Workload):
    name = "trade-round"
    #: the seed sets keys and ciphertexts only, which no digest covers
    seeded_outputs = False
    work_unit = "confirmed sessions"

    def setup(self) -> None:
        with self.tr.span("model.generate_scenario"):
            self.instance = generate_scenario(TRADE_SCENARIO)
        # Quoted with tbsap itself, not self.mechanism, so that a wrong
        # mechanism breaks the payment invariant in every round.
        quote = tbsap(self.instance)
        self.quoted = {v: Fraction(p) for v, p in quote.payments.items()}
        self.funding = sum(self.quoted.values(), Fraction(0)) * WORLD_ROUNDS
        traced = self.tr is not NULL_TRACER
        self.scheme = CountingScheme() if traced else Ed25519X25519Scheme()
        with self.tr.span("trading.build_world"):
            self._new_world()

    def _new_world(self) -> None:
        self.world = build_world(
            self.instance, self.scheme, seed=self.seed, authority_balance=self.funding
        )
        if isinstance(self.scheme, CountingScheme):
            self.scheme.take()  # key minting is set-up, not an op
        self.rounds = 0

    def scenario_counts(self, counts: Counter) -> None:
        counts["model.vehicles"] = len(self.instance.vehicles)
        counts["model.placements"] = TRADE_SCENARIO.n_vehicles

    def pass_keys(self):
        if self.rounds == WORLD_ROUNDS:
            self._new_world()  # untimed, and the same world as at set-up
        return (self.rounds,)

    def _auction(self, instance: AuctionInstance) -> AuctionOutcome:
        with self.tr.span("trading.auction"), self.tr.span("auction.tbsap"):
            return self.mechanism(instance)

    def prepare(self, key):
        ledger = self.world.ledger
        return self.world.authority.account.balance, (
            ledger[-1].hash if ledger else GENESIS_HASH
        )

    def run(self, key, arg):
        self.rounds += 1
        with self.tr.span("trading.run_trading_round"):
            return run_trading_round(self.world, self.instance, mechanism=self._auction)

    def check(self, key, arg, result) -> Checked:
        balance_before, previous_hash = arg
        failed = {
            s.vehicle_id
            for s in result.sessions.values()
            if s.state is SessionState.ABORTED and s.failure != LOST
        }
        attempted = len(failed | set(result.outcome.winners))
        paid = sum((Fraction(r.amount) for r in result.records), Fraction(0))
        holds = (
            result.block is not None
            and result.block.previous_hash == previous_hash
            and all(r.amount == str(self.quoted[r.vehicle_id]) for r in result.records)
            and self.world.authority.account.balance == balance_before - paid
            and self.world.total_balance() == self.funding
        )
        return Checked(
            digest(
                [r.canonical() for r in result.records],
                result.block.hash if result.block else None,
            ),
            attempted,
            len(failed) if holds else attempted,
            len(result.records),
        )

    def probe(self, key, result, checked, counts) -> None:
        calls, seconds, distinct = self.scheme.take()
        for kind in ("sign", "verify_cert", "verify_msg", "encrypt", "decrypt"):
            counts[f"crypto.{kind}.calls"] += calls[kind]
            counts[f"crypto.{kind}.s"] += seconds[kind]
        counts["trading.distinct_certs"] += distinct
        states = Counter(s.state for s in result.sessions.values())
        counts["trading.sessions_confirmed"] += states[SessionState.CONFIRMED]
        counts["trading.winner_sessions"] += len(result.outcome.winners)
        for session in result.sessions.values():
            if session.failure is not None:
                counts[f"trading.sessions_aborted.{abort_reason(session.failure)}"] += 1
        counts["trading.block_records"] += len(result.records)
        self._probe_auction(0, self.instance, result.outcome, counts)


WORKLOADS = {
    cls.name: cls for cls in (AuctionDense, AuctionSmall, ConsensusEpochs, TradeRound)
}
