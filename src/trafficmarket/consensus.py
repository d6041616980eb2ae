"""Reputation-weighted delegated-proof-of-stake consensus simulator.

Full nodes vote each epoch; the top-|M| voting results form the committee,
whose top-|D| members become active witnesses taking leader turns in a
seeded random order, the rest standing by. A produced block goes on chain
when strictly more than two thirds of the committee confirm it. Every round
every node's reputation moves by

    delta = w_vote * alpha + w_lead * beta + w_verify * gamma

with alpha = +-1 for voting/abstaining this epoch, beta = +-1 for a leader
whose block was accepted/rejected (0 for everyone else), gamma = +-1 for a
committee verifier judging the block correctly/incorrectly (0 otherwise),
and the result clamped to [0, 1].

The hot path works on arrays. Ballots share one of two candidate pools per
epoch, so casting them is O(N). The tally adds each ballot's weighted pool
mask to one float64 vector, in ballot order, which reproduces the
per-target sums of a ballot-by-ballot count exactly (see
``elect_witnesses``). The reputations, w_vote * alpha, roles and committee
verdicts (+-1 per seat) are vectors built once per epoch; a round re-reads
only scripted seats. The bits match a per-round rebuild: the same products,
delta summed left to right, and float64 holds a Python float exactly.
``ConsensusHistory`` keeps per-round columns and builds ``HistoryRow``s only
when ``rows`` is read: CPython's collector never untracks a tuple subclass,
so rows built during a run would be rescanned by every collection.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from trafficmarket.model import write_rows

__all__ = [
    "VotingMode",
    "Behavior",
    "NORMAL_BEHAVIOR",
    "ABNORMAL_BEHAVIOR",
    "FullNode",
    "sample_population",
    "ReputationParams",
    "VotingBallot",
    "Committee",
    "BlockRecord",
    "BehaviorRecord",
    "ConsensusState",
    "ConsensusHistory",
    "ROLES",
    "cast_votes",
    "elect_witnesses",
    "run_round",
    "run_epochs",
    "write_history_csv",
]


class VotingMode(enum.Enum):
    REPUTATION_WEIGHTED = "reputation"
    EQUAL_WEIGHT = "equal"


@dataclass(frozen=True)
class Behavior:
    """What a node does when voting, leading, and verifying.

    The default is a well-behaved node. The adversarial preset votes for
    low-reputation peers, produces invalid blocks, and verifies wrongly;
    scripts can override single fields round by round.
    """

    votes: bool = True
    supports_low_reputation: bool = False
    produces_block: bool = True
    produces_valid_block: bool = True
    verifies_correctly: bool = True


NORMAL_BEHAVIOR = Behavior()
ABNORMAL_BEHAVIOR = Behavior(
    supports_low_reputation=True,
    produces_valid_block=False,
    verifies_correctly=False,
)


@dataclass
class FullNode:
    id: int
    reputation: float = 0.5
    behavior: Behavior = NORMAL_BEHAVIOR
    #: optional per-round overrides keyed by global round index
    script: dict[int, Behavior] | None = None

    def behavior_at(self, global_round: int) -> Behavior:
        if self.script and global_round in self.script:
            return self.script[global_round]
        return self.behavior


def sample_population(
    n: int, hostile_frac: float, rng: np.random.Generator
) -> list[FullNode]:
    """``n`` nodes with ids 0..n-1, ``round(hostile_frac * n)`` of them hostile.

    The hostile ids are drawn first, without replacement, so they
    interleave with the others; then each node in id order draws its
    reputation, in [0, 0.5) if hostile and in [0.5, 1) if well-behaved.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"population size {n!r} is not a nonnegative integer")
    if not 0.0 <= hostile_frac <= 1.0:
        raise ValueError(f"hostile fraction {hostile_frac!r} is not in [0, 1]")
    hostile = set(rng.choice(n, size=round(hostile_frac * n), replace=False).tolist())
    return [
        FullNode(id=i, reputation=rng.uniform(0.0, 0.5), behavior=ABNORMAL_BEHAVIOR)
        if i in hostile
        else FullNode(id=i, reputation=rng.uniform(0.5, 1.0))
        for i in range(n)
    ]


@dataclass(frozen=True)
class ReputationParams:
    w_vote: float = 0.005
    w_lead: float = 0.05
    w_verify: float = 0.01
    theta: float = 0.5

    def __post_init__(self) -> None:
        for name in ("w_vote", "w_lead", "w_verify"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"weight {name} must be finite, got {getattr(self, name)!r}")
        if not (self.w_lead > self.w_verify > self.w_vote > 0):
            raise ValueError("weights must satisfy w_lead > w_verify > w_vote > 0")
        if not (0 < self.theta < 1):
            raise ValueError("theta must lie strictly between 0 and 1")


@dataclass(frozen=True)
class VotingBallot:
    """One voter's approval ballot over a candidate pool it shares.

    Every ballot of an epoch points at one of two pools built once: the ids
    at or above theta, or the ids strictly below it. ``supported`` is the
    pool without the voter itself.
    """

    voter_id: int
    pool: frozenset[int]

    @property
    def supported(self) -> frozenset[int]:
        return self.pool - {self.voter_id}


@dataclass(frozen=True)
class Committee:
    """One epoch's witness assignment, ranked by voting result."""

    members: tuple[int, ...]  # M, rank order
    active_order: tuple[int, ...]  # D, shuffled leader order
    standby: tuple[int, ...]  # E = M minus D, rank order
    voting_result: dict[int, float]


@dataclass(frozen=True)
class BlockRecord:
    """An accepted block; rejected attempts only show up as beta = -1."""

    epoch: int
    round_index: int
    producer_id: int
    payload_hash: str
    confirmations: int


class BehaviorRecord(NamedTuple):
    node_id: int
    alpha: int
    beta: int
    gamma: int
    delta: float
    reputation: float  # after applying delta
    role: str  # leader | witness | standby | none


@dataclass
class ConsensusState:
    epoch: int = -1
    global_round: int = 0
    committee: Committee | None = None
    leader_cursor: int = 0
    skipped: set[int] = field(default_factory=set)
    voted: frozenset[int] = frozenset()
    chain: list[BlockRecord] = field(default_factory=list)
    #: committee role of each seated id this epoch, leaders counted as witnesses
    roles: dict[int, str] = field(default_factory=dict)

    def start_epoch(self, committee: Committee, voted: frozenset[int]) -> None:
        self.epoch += 1
        self.committee = committee
        self.leader_cursor = 0
        self.skipped = set()
        self.voted = voted
        self.roles = dict.fromkeys(committee.standby, "standby")
        self.roles.update(dict.fromkeys(committee.active_order, "witness"))

    def next_leader(self) -> int | None:
        """Next unskipped node in leader order, None when exhausted."""
        assert self.committee is not None
        order = self.committee.active_order
        while self.leader_cursor < len(order):
            candidate = order[self.leader_cursor]
            if candidate not in self.skipped:
                return candidate
            self.leader_cursor += 1
        return None


def cast_votes(nodes: Sequence[FullNode], params: ReputationParams) -> list[VotingBallot]:
    """Epoch election ballots. Nothing here depends on the voting mode:
    weighting happens at tally time. Nodes with ``votes=False`` abstain.

    A well-behaved voter supports every other node at or above theta; the
    adversarial rule supports everyone strictly below it. The two pools are
    built once and shared, so the ballots cost O(N) together.
    """
    high = frozenset(n.id for n in nodes if n.reputation >= params.theta)
    low = frozenset(n.id for n in nodes if n.reputation < params.theta)
    return [
        VotingBallot(
            voter_id=voter.id,
            pool=low if voter.behavior.supports_low_reputation else high,
        )
        for voter in nodes
        if voter.behavior.votes
    ]


def _check_nodes(nodes: Sequence[FullNode]) -> None:
    if sorted(n.id for n in nodes) != list(range(len(nodes))):
        raise ValueError("node ids must be dense 0..n-1")
    for n in nodes:
        if not 0.0 <= n.reputation <= 1.0:
            raise ValueError(f"node {n.id} reputation {n.reputation!r} is not in [0, 1]")


def elect_witnesses(
    ballots: Sequence[VotingBallot],
    nodes: Sequence[FullNode],
    committee_size: int,
    active_size: int,
    mode: VotingMode,
    rng: np.random.Generator,
) -> Committee:
    """Tally ballots, rank nodes, and seat the committee.

    A supporter contributes its reputation under the reputation-weighted
    mode and exactly 1 under equal weighting. Ranking ties break on the
    lower id. The |D| leaders are shuffled into a random order by ``rng``.

    The tally is one float64 vector indexed by id (so ids must be dense
    0..n-1), accumulated ballot by ballot: each ballot adds its weight
    times its pool's 0/1 mask, with the voter's own entry zeroed. Every
    target therefore receives exactly the additions a per-target sum in
    ballot order makes; the extra ``+ 0.0`` terms are exact because every
    tally is non-negative. The closed form "total weight minus the
    target's own" would round differently and could reorder tied ranks.
    """
    if not (0 < active_size <= committee_size <= len(nodes)):
        raise ValueError("need 0 < active_size <= committee_size <= population")
    _check_nodes(nodes)
    n = len(nodes)
    reputations = [0.0] * n
    for node in nodes:
        reputations[node.id] = node.reputation
    weighted = mode is VotingMode.REPUTATION_WEIGHTED
    masks: dict[frozenset[int], np.ndarray] = {}
    tally = np.zeros(n)
    term = np.empty(n)
    for ballot in ballots:
        voter = ballot.voter_id
        if not 0 <= voter < n:
            raise ValueError(f"ballot from unknown voter {voter!r}")
        mask = masks.get(ballot.pool)
        if mask is None:
            mask = masks[ballot.pool] = _pool_mask(ballot.pool, n)
        np.multiply(mask, reputations[voter] if weighted else 1.0, out=term)
        term[voter] = 0.0
        tally += term
    ranking = np.lexsort((np.arange(n), -tally)).tolist()
    members = tuple(ranking[:committee_size])
    active = ranking[:active_size]
    order = tuple(active[i] for i in rng.permutation(len(active)))
    standby = tuple(ranking[active_size:committee_size])
    totals = tally.tolist()
    result = {node.id: totals[node.id] for node in nodes}
    return Committee(
        members=members, active_order=order, standby=standby, voting_result=result
    )


def _pool_mask(pool: frozenset[int], n: int) -> np.ndarray:
    ids = np.fromiter(pool, dtype=np.int64, count=len(pool))
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError("ballot supports an id outside 0..n-1")
    mask = np.zeros(n)
    mask[ids] = 1.0
    return mask


#: role names; history columns and epoch views hold int8 indexes into this
ROLES = ("none", "standby", "witness", "leader")


class _Epoch(NamedTuple):
    """What stays fixed between the rounds of an epoch, in node order."""

    position: dict[int, int]  # id -> index in node order
    alpha: np.ndarray  # +1 voted, -1 abstained
    vote_term: np.ndarray  # w_vote * alpha
    roles: np.ndarray  # indexes into ROLES, leaders counted as witnesses
    seats: np.ndarray  # committee seats per node; forced committees may repeat ids
    verdict: np.ndarray  # +-1 per seated node by its behavior, 0 elsewhere
    scripted: list  # (index, node) per seated node with a script


def _epoch_view(state: ConsensusState, nodes: Sequence[FullNode], w_vote: float) -> _Epoch:
    if state.committee is None:
        raise RuntimeError("no committee elected")
    position = {n.id: i for i, n in enumerate(nodes)}
    alpha = np.array([1 if n.id in state.voted else -1 for n in nodes])
    roles = np.array([ROLES.index(state.roles.get(n.id, "none")) for n in nodes], np.int8)
    seated = [position[member_id] for member_id in state.committee.members]
    seats = np.bincount(np.array(seated, dtype=np.int64), minlength=len(nodes))
    verdict = np.where([n.behavior.verifies_correctly for n in nodes], 1, -1) * (seats > 0)
    scripted = [(i, nodes[i]) for i in set(seated) if nodes[i].script]
    return _Epoch(position, alpha, w_vote * alpha, roles, seats, verdict, scripted)


def _round(
    state: ConsensusState,
    nodes: Sequence[FullNode],
    params: ReputationParams,
    view: _Epoch,
    reputations: np.ndarray,
) -> tuple:
    """The body of ``run_round`` on an ``_epoch_view`` and the epoch's
    reputation vector. Returns the round's columns in node order: beta,
    gamma, delta, the new reputation vector and the role indexes."""
    leader_id = state.next_leader()
    if leader_id is None:
        raise RuntimeError("leader order exhausted for this epoch")
    state.leader_cursor += 1
    rnd = state.global_round
    leader = view.position[leader_id]
    leader_behavior = nodes[leader].behavior_at(rnd)

    gamma = np.zeros(len(nodes), dtype=np.int64)
    accepted = False
    if not leader_behavior.produces_block:
        state.skipped.add(leader_id)
    else:
        gamma = view.verdict.copy()
        for i, node in view.scripted:
            gamma[i] = 1 if node.behavior_at(rnd).verifies_correctly else -1
        gamma[leader] = 0  # the leader does not verify its own block
        # a seat confirms when its verdict matches the block's validity
        agree = 1 if leader_behavior.produces_valid_block else -1
        confirmations = int(view.seats @ (gamma == agree))
        accepted = confirmations > (2.0 / 3.0) * len(state.committee.members)
        if accepted:
            payload = f"{state.epoch}:{rnd}".encode()
            state.chain.append(
                BlockRecord(
                    epoch=state.epoch,
                    round_index=rnd,
                    producer_id=leader_id,
                    payload_hash=hashlib.sha256(payload).hexdigest(),
                    confirmations=confirmations,
                )
            )

    beta = np.zeros(len(nodes), dtype=np.int64)
    beta[leader] = 1 if accepted else -1
    delta = view.vote_term + params.w_lead * beta + params.w_verify * gamma
    roles = view.roles.copy()
    roles[leader] = ROLES.index("leader")
    state.global_round += 1
    return beta, gamma, delta, np.clip(reputations + delta, 0.0, 1.0), roles


def run_round(
    state: ConsensusState,
    nodes: Sequence[FullNode],
    params: ReputationParams,
) -> list[BehaviorRecord]:
    """One consensus round: leader attempt, verification, reputation sweep.

    The scheduled leader either produces nothing (it is skipped for the
    rest of the epoch and the round records no block) or produces a block
    that every other committee member verifies. Reputations of all nodes
    update afterwards, abstainers included, in one vector sweep.
    """
    view = _epoch_view(state, nodes, params.w_vote)
    reputations = np.array([n.reputation for n in nodes], dtype=float)
    beta, gamma, delta, reputations, roles = _round(state, nodes, params, view, reputations)
    for node, rep in zip(nodes, reputations.tolist()):
        node.reputation = rep
    columns = (view.alpha, beta, gamma, delta, reputations)
    roles = map(ROLES.__getitem__, roles.tolist())
    ids = [n.id for n in nodes]
    return list(map(BehaviorRecord, ids, *(c.tolist() for c in columns), roles))


class HistoryRow(NamedTuple):
    epoch: int
    round_index: int
    node_id: int
    reputation: float
    role: str
    delta: float


@dataclass
class ConsensusHistory:
    """``rounds`` holds ``(epoch, round_index, reputations, roles, deltas)``
    per round, each column in the node order of ``ids``, roles as indexes
    into ``ROLES``. ``rows`` builds the ``HistoryRow``s on every read."""

    ids: list[int]
    rounds: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]
    chain: list[BlockRecord]
    committees: list[Committee]

    @property
    def rows(self) -> list[HistoryRow]:
        return list(map(HistoryRow._make, self._tuples()))

    def rows_for(self, node_id: int) -> list[HistoryRow]:
        if node_id not in self.ids:
            return []
        i = self.ids.index(node_id)
        return [
            HistoryRow(epoch, rnd, node_id, float(reps[i]), ROLES[roles[i]], float(deltas[i]))
            for epoch, rnd, reps, roles, deltas in self.rounds
        ]

    def _tuples(self):
        for epoch, rnd, reps, roles, deltas in self.rounds:
            roles = map(ROLES.__getitem__, roles.tolist())
            yield from zip(
                repeat(epoch), repeat(rnd), self.ids, reps.tolist(), roles, deltas.tolist()
            )


def run_epochs(
    nodes: Sequence[FullNode],
    params: ReputationParams,
    committee_size: int,
    active_size: int,
    n_epochs: int,
    mode: VotingMode = VotingMode.REPUTATION_WEIGHTED,
    seed: int = 0,
    committee_schedule: Sequence[Committee | None] | None = None,
) -> ConsensusHistory:
    """Full simulation: elect, run |D| rounds, update, re-elect.

    ``committee_schedule`` forces seating for the epochs where it is not
    None (ballots still flow, so voting reputation effects stay genuine);
    experiments use it to pin narratives that depend on who gets elected
    when. An epoch ends early only if every remaining leader was skipped.
    """
    if n_epochs < 0:
        raise ValueError("n_epochs must be non-negative")
    if not (0 < active_size <= committee_size <= len(nodes)):
        raise ValueError("need 0 < active_size <= committee_size <= population")
    _check_nodes(nodes)
    rng = np.random.default_rng(seed)
    state = ConsensusState()
    history = ConsensusHistory(
        ids=[n.id for n in nodes], rounds=[], chain=state.chain, committees=[]
    )
    for epoch in range(n_epochs):
        ballots = cast_votes(nodes, params)
        voted = frozenset(b.voter_id for b in ballots)
        forced = committee_schedule[epoch] if committee_schedule is not None else None
        if forced is not None:
            committee = forced
            rng.permutation(active_size)  # keep the stream aligned
        else:
            committee = elect_witnesses(
                ballots, nodes, committee_size, active_size, mode, rng
            )
        state.start_epoch(committee, voted)
        history.committees.append(committee)
        view = _epoch_view(state, nodes, params.w_vote)
        reputations = np.array([n.reputation for n in nodes], dtype=float)
        for _ in range(len(committee.active_order)):
            if state.next_leader() is None:
                break  # fully skipped epoch ends early
            round_index = state.global_round
            *_, delta, reputations, roles = _round(state, nodes, params, view, reputations)
            history.rounds.append((epoch, round_index, reputations, roles, delta))
        for node, rep in zip(nodes, reputations.tolist()):
            node.reputation = rep
    return history


def write_history_csv(history: ConsensusHistory, path) -> None:
    header = ("epoch", "round", "node_id", "reputation", "role", "delta")
    write_rows(path, header, history._tuples())
