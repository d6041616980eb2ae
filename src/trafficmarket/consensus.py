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

The hot path works on arrays, from one pass over the nodes that reads their
ids, reputations, behavior flags and scripts and checks ids and reputations.
One election, ``_elect``, builds no ballots: its ballots are arrays of voter
ids and pools (high or low) in node order, read once per run, and each call
draws the pools from ``reputations < theta``. ``run_epochs`` elects with it
every epoch, and the ``rnw-vs-rafn`` study elects the same way. The
committee it seats keeps its voting result as a read-only mapping over a
copy of the tally, built into a dict on first read: no election reads it.
``elect_witnesses`` turns a ballot list into the same arrays, and both call
one tally, ``_tally``, on pools that share no id and at most one ballot per
voter. A node's voting result is the weights of the ballots into its pool,
its own skipped, added in ballot order: the sum a ballot-by-ballot count
makes, whose other terms add 0.0 and change no bit. A pool's members share
its running sum; one that casts a ballot into it is a chain that takes every
weight but its own, ``_BLOCK`` ballots per ``np.add.reduce(axis=0)`` of a
float64 block: row 0 holds the chains, each other row a ballot's weight. A
chain that begins inside a block starts from the running sum at the block's
first ballot and takes the block's weights in order, -0.0 (x + -0.0 is x) in
its own ballot's cell: ``np.cumsum`` is the same left fold, so the bits
match a chain started just before its ballot. A block holds a spare column,
as numpy sums a one-column block pairwise, then only the chains begun by its
last ballot. The closed form (total weight less own weight) rounds
differently and can reorder ties.

The reputations, w_vote * alpha and each node's verdict (+-1 by its
behavior) are vectors built once per run; the roles, the seats, the deltas
w_vote * alpha + w_verify * verdict and the seats that would confirm a
valid or an invalid block once per epoch. A round rewrites only the leader
and the scripted seats; only ``run_round`` builds beta and gamma columns.
The bits match a per-round rebuild: the terms it drops add +0.0 to w_vote *
alpha, which is never zero. ``ConsensusHistory`` keeps per-round columns
and builds ``HistoryRow``s only when ``rows`` is read: CPython's collector
never untracks a tuple subclass, so rows built during a run would be
rescanned by every collection.
"""

from __future__ import annotations

import enum
import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from trafficmarket.model import validate_ids, write_rows

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


def _is_int(x) -> bool:
    """An exact integer for a size or a count: an ``int`` or a
    ``numpy.integer``, but not a ``bool``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def sample_population(
    n: int, hostile_frac: float, rng: np.random.Generator
) -> list[FullNode]:
    """``n`` nodes with ids 0..n-1, ``round(hostile_frac * n)`` of them hostile.

    The hostile ids are drawn first, without replacement, so they
    interleave with the others; then each node in id order draws its
    reputation, in [0, 0.5) if hostile and in [0.5, 1) if well-behaved.
    """
    if not _is_int(n) or n < 0:
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
    pool without the voter itself. ``elect_witnesses`` takes at most one
    ballot per voter, into pools that share no id.
    """

    voter_id: int
    pool: frozenset[int]

    @property
    def supported(self) -> frozenset[int]:
        return self.pool - {self.voter_id}


@dataclass(frozen=True)
class Committee:
    """One epoch's witness assignment, ranked by voting result.

    An elected committee's ``voting_result`` maps each node id, in node
    order, to its tally. It is read-only and builds its dict on first read,
    as no election reads it; a forced committee may pass any mapping.
    """

    members: tuple[int, ...]  # M, rank order
    active_order: tuple[int, ...]  # D, shuffled leader order
    standby: tuple[int, ...]  # E = M minus D, rank order
    voting_result: Mapping[int, float]


class _VotingResult(Mapping):
    """Node id -> tally, keys in the node order of ``ids`` and values as
    Python floats with the tally's bits: a dict built on first read and
    kept. It holds its own copies of the ids and the tally, so no later
    write by the caller changes it."""

    __slots__ = ("_ids", "_tally", "_dict")

    def __init__(self, ids: Sequence[int], tally: np.ndarray) -> None:
        self._ids, self._tally, self._dict = tuple(ids), tally.copy(), None

    def _read(self) -> dict[int, float]:
        if self._dict is None:
            self._dict = dict(zip(self._ids, map(self._tally.tolist().__getitem__, self._ids)))
        return self._dict

    def __getitem__(self, node_id: int) -> float:
        return self._read()[node_id]

    def __iter__(self):
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def __repr__(self) -> str:
        return repr(self._read())


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

    def start_epoch(self, committee: Committee, voted: frozenset[int]) -> None:
        self.epoch += 1
        self.committee = committee
        self.leader_cursor = 0
        self.skipped = set()
        self.voted = voted

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


def _check_sizes(committee_size: int, active_size: int, population: int) -> None:
    """Sizes are ints or ``numpy.integer``s, not ``bool``s, with
    0 < active_size <= committee_size <= population."""
    for name, size in (("committee_size", committee_size), ("active_size", active_size)):
        if not _is_int(size):
            raise ValueError(f"{name} {size!r} is not an integer")
    if not (0 < active_size <= committee_size <= population):
        raise ValueError("need 0 < active_size <= committee_size <= population")


def _check_mode(mode) -> None:
    if not isinstance(mode, VotingMode):
        raise ValueError(f"voting mode {mode!r} is not a VotingMode member")


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
    Ids must be dense 0..n-1. The ballots must be ``cast_votes``' kind: at
    most one per voter, into pools that share no id. They become (voter,
    pool) arrays for ``_tally``, the routine ``run_epochs`` elects with.
    """
    _check_mode(mode)
    _check_sizes(committee_size, active_size, len(nodes))
    run = _read_nodes(nodes)
    n = len(nodes)
    rows: dict[frozenset[int], int] = {}
    voters, pool_of = [], []
    for ballot in ballots:
        if not 0 <= ballot.voter_id < n:
            raise ValueError(f"ballot from unknown voter {ballot.voter_id!r}")
        voters.append(ballot.voter_id)
        pool_of.append(rows.setdefault(ballot.pool, len(rows)))
    if len(set(voters)) < len(voters):
        raise ValueError("a voter casts more than one ballot")
    home = np.full(n, -1, dtype=np.intp)  # id -> its pool's row, -1 for none
    for pool, row in rows.items():
        members = np.fromiter(pool, dtype=np.int64, count=len(pool))
        if members.size and not (0 <= members.min() and members.max() < n):
            raise ValueError("ballot supports an id outside 0..n-1")
        if (home[members] >= 0).any():
            raise ValueError("two ballot pools share an id")
        home[members] = row
    voters = np.array(voters, dtype=np.int64)
    if mode is VotingMode.REPUTATION_WEIGHTED:
        weights = run.reputations[run.index[voters]]
    else:
        weights = np.ones(len(voters))
    tally = _tally(voters, np.array(pool_of, dtype=np.intp), home, weights)
    return _seat(tally, run.ids, committee_size, active_size, rng)


_BLOCK = 64  # ballots folded into the chains per axis-0 reduction


def _tally(
    voters: np.ndarray, pool_of: np.ndarray, home: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Voting result per id, as the module docstring sets out: ballot ``b``
    of voter ``voters[b]`` adds ``weights[b]`` to every id ``i`` with
    ``home[i] == pool_of[b]`` but the voter. A voter casts at most one
    ballot, and ``home`` puts each id in at most one pool (-1 for none).
    Chain ``j`` is column ``j + 1`` of a block; column 0 is spare."""
    tally = np.zeros(len(home))
    for pool in range(pool_of.max(initial=-1) + 1):
        cast = pool_of == pool  # the ballots this pool's members see
        w, v = weights[cast], voters[cast]
        running = np.cumsum(np.concatenate(([0.0], w)))
        members = home == pool
        tally[members] = running[-1]
        starts = np.flatnonzero(members[v])  # a chain per ballot cast by a member
        if not starts.size:
            continue
        m0s = np.arange(starts[0] + 1, len(w), _BLOCK)  # each block's first ballot
        m1s = np.minimum(m0s + _BLOCK, len(w))
        widths = 1 + np.searchsorted(starts, m1s)  # a spare column, then the chains begun
        k = (starts[1:] - starts[0] - 1) // _BLOCK  # the block each later chain begins in
        chains = np.concatenate(([-0.0], running[starts[:1]], running[m0s[k]]))
        own = (1 + starts[1:] - m0s[k]) * widths[k] + np.arange(2, len(chains))  # flat cell
        cut = np.searchsorted(k, np.arange(len(m0s) + 1)).tolist()  # own's slice per block
        buffer = np.empty((min(_BLOCK, len(w)) + 1) * len(chains))
        for i, (m0, m1, width) in enumerate(zip(m0s.tolist(), m1s.tolist(), widths.tolist())):
            block = buffer[: (m1 - m0 + 1) * width].reshape(m1 - m0 + 1, width)
            block[0] = chains[:width]
            block[1:] = w[m0:m1, None]  # row 1 + m - m0: ballot m's weight
            buffer[own[cut[i] : cut[i + 1]]] = -0.0  # a chain skips its own ballot
            np.add.reduce(block, axis=0, out=chains[:width])
        tally[v[starts]] = chains[1:]
    return tally


def _seat(
    tally: np.ndarray,
    ids: Sequence[int],
    committee_size: int,
    active_size: int,
    rng: np.random.Generator,
) -> Committee:
    """Rank by (-tally, id), seat the top ``committee_size`` and shuffle the
    top ``active_size`` into leader order; the voting result follows the
    node order ``ids`` and is built on first read. The stable sort ranks
    ties, +-0.0 alike, by id."""
    ranking = np.argsort(-tally, kind="stable")[:committee_size].tolist()
    active = ranking[:active_size]
    order = tuple(active[i] for i in rng.permutation(len(active)))
    return Committee(
        members=tuple(ranking),
        active_order=order,
        standby=tuple(ranking[active_size:]),
        voting_result=_VotingResult(ids, tally),
    )


#: role names; history columns and epoch views hold int8 indexes into this
ROLES = ("none", "standby", "witness", "leader")


class _Run(NamedTuple):
    """What a run reads from its nodes, in node order."""

    ids: list[int]
    index: np.ndarray  # id -> index in node order
    reputations: np.ndarray
    votes: np.ndarray  # bool
    voters: np.ndarray  # ids of the voting nodes
    pool_of: np.ndarray  # per voter: 0 supports the high pool, 1 the low
    correct: np.ndarray  # +1 verifies correctly by behavior, -1 otherwise
    has_script: np.ndarray  # bool


def _read_nodes(nodes: Sequence[FullNode]) -> _Run:
    """Read each node's id, reputation, behavior flags and script, one
    column per pass. Ids must be ints (``validate_ids``), dense 0..n-1, and
    reputations lie in [0, 1]; the error names the first bad node."""
    ids, reps = validate_ids("node", nodes), [x.reputation for x in nodes]
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise ValueError("node ids must be dense 0..n-1")
    reputations = np.array(reps)
    fine = (reputations >= 0.0) & (reputations <= 1.0)  # False at NaN
    if not fine.all():
        i = int(fine.argmin())
        raise ValueError(f"node {ids[i]} reputation {reps[i]!r} is not in [0, 1]")
    index = np.empty(n, dtype=np.intp)
    index[np.fromiter(ids, np.intp, n)] = np.arange(n)
    behaviors = [x.behavior for x in nodes]
    votes = np.fromiter([b.votes for b in behaviors], bool, n)
    low = np.fromiter([b.supports_low_reputation for b in behaviors], bool, n)
    correct = np.fromiter([b.verifies_correctly for b in behaviors], bool, n)
    has_script = np.fromiter([bool(x.script) for x in nodes], bool, n)
    return _Run(ids, index, reputations.astype(float), votes, np.array(ids)[votes],
                low[votes].astype(np.intp), np.where(correct, 1, -1), has_script)


def _elect(run: _Run, reputations: np.ndarray, params: ReputationParams, committee_size: int,
           active_size: int, mode: VotingMode, rng: np.random.Generator) -> Committee:
    """The election ``run_epochs`` holds each epoch, on a run's arrays: one
    ballot per voting node in node order, into the pool its behavior
    supports, with pools from ``reputations < theta`` (0 high, 1 low by
    id), then ``_tally`` and ``_seat``. These are ``cast_votes``' ballots."""
    weighted = mode is VotingMode.REPUTATION_WEIGHTED
    weights = reputations[run.votes] if weighted else np.ones(len(run.voters))
    tally = _tally(run.voters, run.pool_of, (reputations < params.theta)[run.index], weights)
    return _seat(tally, run.ids, committee_size, active_size, rng)


class _Epoch(NamedTuple):
    """What stays fixed between the rounds of an epoch, in node order."""

    run: _Run
    vote_term: np.ndarray  # w_vote * alpha
    roles: np.ndarray  # indexes into ROLES, leaders counted as witnesses
    seats: list[int]  # committee seats per node; forced committees may repeat ids
    verdict: np.ndarray  # +-1 per seated node by its behavior, 0 elsewhere
    delta: np.ndarray  # vote_term + w_verify * verdict
    confirming: dict[int, int]  # verdict -> seats that hold it
    scripted: list  # (index, node) per seated node with a script


def _epoch_view(
    committee: Committee, nodes: Sequence[FullNode], run: _Run, vote_term, w_verify: float
) -> _Epoch:
    def at(ids):
        return run.index[np.fromiter(ids, np.intp, len(ids))]

    roles = np.zeros(len(nodes), dtype=np.int8)
    roles[at(committee.standby)] = ROLES.index("standby")
    roles[at(committee.active_order)] = ROLES.index("witness")
    seats = np.bincount(at(committee.members), minlength=len(nodes))
    verdict = run.correct * (seats > 0)
    scripted = np.flatnonzero(run.has_script & (seats > 0)).tolist()
    return _Epoch(
        run,
        vote_term,
        roles,
        seats.tolist(),
        verdict,
        vote_term + w_verify * verdict,
        {v: int(seats @ (verdict == v)) for v in (1, -1)},
        [(i, nodes[i]) for i in scripted],
    )


def _round(
    state: ConsensusState,
    nodes: Sequence[FullNode],
    params: ReputationParams,
    view: _Epoch,
    reputations: np.ndarray,
) -> tuple:
    """The body of ``run_round`` on an ``_epoch_view`` and the epoch's
    reputation vector. Returns the leader's index, whether its block was
    accepted, the leader's and scripted verdicts (None without a block),
    and the delta, new reputation and role columns in node order."""
    leader_id = state.next_leader()
    if leader_id is None:
        raise RuntimeError("leader order exhausted for this epoch")
    state.leader_cursor += 1
    rnd = state.global_round
    leader = int(view.run.index[leader_id])
    leader_behavior = nodes[leader].behavior_at(rnd)

    accepted, verdicts = False, None
    if not leader_behavior.produces_block:
        state.skipped.add(leader_id)
        delta = view.vote_term.copy()
    else:
        delta = view.delta.copy()
        verdicts = {i: 1 if n.behavior_at(rnd).verifies_correctly else -1 for i, n in view.scripted}
        verdicts[leader] = 0  # the leader does not verify its own block
        # a seat confirms when its verdict matches the block's validity
        agree = 1 if leader_behavior.produces_valid_block else -1
        confirmations = view.confirming[agree]
        for i, verdict in verdicts.items():
            confirmations += view.seats[i] * ((verdict == agree) - int(view.verdict[i] == agree))
            delta[i] = view.vote_term[i] + params.w_verify * verdict
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

    delta[leader] = view.vote_term[leader] + params.w_lead * (1 if accepted else -1)
    roles = view.roles.copy()
    roles[leader] = ROLES.index("leader")
    state.global_round += 1
    reputations = reputations + delta
    np.maximum(reputations, 0.0, out=reputations)
    np.minimum(reputations, 1.0, out=reputations)
    return leader, accepted, verdicts, delta, reputations, roles


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
    if state.committee is None:
        raise RuntimeError("no committee elected")
    run = _read_nodes(nodes)
    alpha = np.array([1 if i in state.voted else -1 for i in run.ids])
    view = _epoch_view(state.committee, nodes, run, params.w_vote * alpha, params.w_verify)
    outcome = _round(state, nodes, params, view, run.reputations)
    leader, accepted, verdicts, delta, reps, roles = outcome
    for node, rep in zip(nodes, reps.tolist()):
        node.reputation = rep
    beta = np.zeros(len(nodes), dtype=np.int64)
    beta[leader] = 1 if accepted else -1
    gamma = np.zeros(len(nodes), dtype=np.int64) if verdicts is None else view.verdict.copy()
    for i, verdict in (verdicts or {}).items():
        gamma[i] = verdict
    columns = (alpha, beta, gamma, delta, reps)
    roles = map(ROLES.__getitem__, roles.tolist())
    return list(map(BehaviorRecord, run.ids, *(c.tolist() for c in columns), roles))


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
        if type(node_id) is not int:  # as validate_ids: True would read node 1
            raise ValueError(f"node id {node_id!r} is not an int")
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
    when. It must cover every epoch, seat only ids of the population and
    draw its leaders from its members; repeated member ids are allowed.
    An epoch ends early only if every remaining leader was skipped.

    Each epoch not forced elects with ``_elect``: ``cast_votes``' ballots as
    arrays, one per voting node in node order, into pool 0 (high) or 1
    (low), with the pools drawn from that epoch's reputations.

    The sizes and ``n_epochs`` must be ``int``s or ``numpy.integer``s; a
    ``bool``, a float or anything else is refused with a ``ValueError``.
    """
    if not _is_int(n_epochs):
        raise ValueError(f"n_epochs {n_epochs!r} is not an integer")
    if n_epochs < 0:
        raise ValueError("n_epochs must be non-negative")
    _check_mode(mode)
    _check_sizes(committee_size, active_size, len(nodes))
    run = _read_nodes(nodes)
    if committee_schedule is not None:
        _check_schedule(committee_schedule, n_epochs, len(nodes))
    rng = np.random.default_rng(seed)
    state = ConsensusState()
    history = ConsensusHistory(ids=run.ids, rounds=[], chain=state.chain, committees=[])
    reputations, voted = run.reputations, frozenset(run.voters.tolist())
    vote_term = params.w_vote * np.where(run.votes, 1, -1)
    for epoch in range(n_epochs):
        forced = committee_schedule[epoch] if committee_schedule is not None else None
        if forced is not None:
            committee = forced
            rng.permutation(active_size)  # keep the stream aligned
        else:
            committee = _elect(run, reputations, params, committee_size, active_size, mode, rng)
        state.start_epoch(committee, voted)
        history.committees.append(committee)
        view = _epoch_view(committee, nodes, run, vote_term, params.w_verify)
        for _ in range(len(committee.active_order)):
            if state.next_leader() is None:
                break  # fully skipped epoch ends early
            round_index = state.global_round
            *_, delta, reputations, roles = _round(state, nodes, params, view, reputations)
            history.rounds.append((epoch, round_index, reputations, roles, delta))
    for node, rep in zip(nodes, reputations.tolist()):
        node.reputation = rep
    return history


def _check_schedule(
    schedule: Sequence[Committee | None], n_epochs: int, n: int
) -> None:
    """Refuse, before any epoch runs, a schedule that is too short, seats an
    unknown id or one that is not exactly an ``int``, or names a leader
    outside its members."""
    if len(schedule) < n_epochs:
        raise ValueError(
            f"committee_schedule has {len(schedule)} entries for {n_epochs} epochs"
        )
    population = range(n)  # ids are dense
    for epoch in range(n_epochs):
        committee = schedule[epoch]
        if committee is None:
            continue
        for i in (*committee.members, *committee.active_order, *committee.standby):
            if type(i) is not int or i not in population:  # as validate_ids
                raise ValueError(f"epoch {epoch} committee seats unknown id {i!r}")
        members = set(committee.members)
        for i in committee.active_order:
            if i not in members:
                raise ValueError(f"epoch {epoch} leader {i!r} is not a committee member")


def write_history_csv(history: ConsensusHistory, path) -> None:
    header = ("epoch", "round", "node_id", "reputation", "role", "delta")
    write_rows(path, header, history._tuples())
