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

Scalar inputs follow the rules in ``model``: committee and active sizes,
epoch counts, population sizes and seeds are counts (``as_count``), and
the weights, theta and the hostile fraction are reals (``as_real``), each
refused with its own message.

The hot path works on arrays, from one pass over the nodes that reads their
ids, reputations, behavior flags and scripts and checks ids and reputations.
That pass also groups the voting nodes by the pool (high or low) their
behavior supports: one array each of the voters' ids in node order, with
their positions kept beside them. One election, ``_elect``, builds no
ballots: it gathers both pools' weights from the epoch's reputations in one
step and draws the members from ``reputations < theta``. ``run_epochs``
elects with it every epoch, and the ``rnw-vs-rafn`` study elects the same
way. The committee it seats keeps its voting result as a read-only mapping
over a copy of the tally, built into a dict on first read: no election
reads it. ``elect_witnesses`` turns a ballot list into one-shot pools, and
both call one tally, ``_tally``, on pools that share no id and at most one
ballot per voter. A node's voting result is the weights of the ballots into
its pool, its own skipped, added in ballot order: the sum a
ballot-by-ballot count makes, whose other terms add 0.0 and change no bit.

A pool's members share its running sum; one that casts a ballot into it is
a chain that takes every weight but its own. Where every weight of the
pool is an integer and the total is below 2**53, each partial sum is an
exact integer (weights are never negative), so the chain is the total less
its own weight, bit for bit, +0.0 included: the pool costs O(ballots).
Equal weights always take this closed form, and so does a reputation pool
whose weights are all 1.0 or 0.0, as clamped reputations make them. Any
other pool folds its chains only where rounding can tell them apart from
the running sum. A chain trails the running sum by less than twice the
largest weight, so once the sum is that far into its binade, a ballot
whose weight is no tie on that binade's grid and whose sum stays inside it
is quiet: every chain rounds by the same step as the sum (the proof is in
``_tally``). Each maximal stretch of quiet ballots becomes one row, the
exact difference of the running sums at its ends (Sterbenz's lemma); every
other ballot is a row of its own weight. The chains fold that compressed
column, ``_BLOCK`` rows per ``np.add.reduce(axis=0)``: a few dozen rows
for the benchmark's 800-ballot pool. A chain's own ballot puts -0.0 in its
row (x + -0.0 is x), or, inside a stretch, takes the stretch less its own
step. On weights that are not all integers the closed form rounds
differently and can reorder ties, and a ballot-by-ballot fold of every
chain is O(ballots**2).

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
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import NamedTuple, Sequence

import numpy as np

from trafficmarket.model import as_count, as_id, as_real, validate_count, validate_ids, write_rows

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
    The size is a count and the fraction a real (``model.as_count``,
    ``model.as_real``): a ``bool`` is refused as either.
    """
    count = validate_count(n, "population size")
    if (frac := as_real(hostile_frac)) is None or not 0.0 <= frac <= 1.0:
        raise ValueError(f"hostile fraction {hostile_frac!r} is not in [0, 1]")
    hostile = set(rng.choice(count, size=round(frac * count), replace=False).tolist())
    return [
        FullNode(id=i, reputation=rng.uniform(0.0, 0.5), behavior=ABNORMAL_BEHAVIOR)
        if i in hostile
        else FullNode(id=i, reputation=rng.uniform(0.5, 1.0))
        for i in range(count)
    ]


@dataclass(frozen=True)
class ReputationParams:
    """The weights and theta are reals (``model.as_real``), stored as plain
    floats."""

    w_vote: float = 0.005
    w_lead: float = 0.05
    w_verify: float = 0.01
    theta: float = 0.5

    def __post_init__(self) -> None:
        for name in ("w_vote", "w_lead", "w_verify", "theta"):  # theta: refused below
            if (value := as_real(getattr(self, name))) is None and name != "theta":
                raise ValueError(f"weight {name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if not (self.w_lead > self.w_verify > self.w_vote > 0):
            raise ValueError("weights must satisfy w_lead > w_verify > w_vote > 0")
        if self.theta is None or not (0 < self.theta < 1):
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


def _check_sizes(committee_size: int, active_size: int, population: int) -> tuple[int, int]:
    """Sizes are counts (``model.as_count``) with 0 < active_size <=
    committee_size <= population; returns them as plain ints."""
    for name, size in (("committee_size", committee_size), ("active_size", active_size)):
        if as_count(size) is None:
            raise ValueError(f"{name} {size!r} is not an integer")
    if not (0 < active_size <= committee_size <= population):
        raise ValueError("need 0 < active_size <= committee_size <= population")
    return as_count(committee_size), as_count(active_size)


def _check_mode(mode) -> None:
    """Refuse a mode that is not a ``VotingMode`` member, such as the string
    ``"reputation"``, before any node changes."""
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
    Ids must be dense 0..n-1. The ballots must be ``cast_votes``' kind, or
    are refused before the tally: at most one per voter, into pools that
    share no id. They become (voter, pool) arrays for ``_tally``, the
    routine ``run_epochs`` elects with.
    """
    _check_mode(mode)
    committee_size, active_size = _check_sizes(committee_size, active_size, len(nodes))
    run = _read_nodes(nodes)
    n = len(nodes)
    cast: dict[frozenset[int], list[int]] = {}  # pool -> its voters in ballot order
    for ballot in ballots:
        if not 0 <= ballot.voter_id < n:
            raise ValueError(f"ballot from unknown voter {ballot.voter_id!r}")
        cast.setdefault(ballot.pool, []).append(ballot.voter_id)
    if len(set().union(*cast.values())) < len(ballots):
        raise ValueError("a voter casts more than one ballot")
    home = np.full(n, -1, dtype=np.intp)  # id -> its pool's row, -1 for none
    for row, pool in enumerate(cast):
        members = np.fromiter(pool, dtype=np.int64, count=len(pool))
        if members.size and not (0 <= members.min() and members.max() < n):
            raise ValueError("ballot supports an id outside 0..n-1")
        if (home[members] >= 0).any():
            raise ValueError("two ballot pools share an id")
        home[members] = row
    pools = [np.array(voters, dtype=np.int64) for voters in cast.values()]
    if mode is VotingMode.REPUTATION_WEIGHTED:
        weights = [run.reputations[run.index[pool]] for pool in pools]
    else:
        weights = [np.ones(len(pool)) for pool in pools]
    return _seat(_tally(pools, weights, home), run.ids, committee_size, active_size, rng)


_BLOCK = 64  # rows folded into the chains per axis-0 reduction


def _column(running: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pool's compressed weight column, from its running sums and
    weights: the rows, the first ballot of each row followed by the ballot
    count, and which ballots are quiet (see ``_tally``). A maximal stretch
    of quiet ballots is one row, the exact difference of the running sums
    at its ends; every other ballot is a row of its own weight."""
    r = running[:-1]
    e = np.frexp(r)[1]  # 2**(e - 1) <= r < 2**e: the binade, where u = 2**(e - 53)
    floor = np.ldexp(0.5, e)
    halves = np.ldexp(np.minimum(w, r), 54 - e)  # w in units of u / 2, where it can be quiet
    tie = halves - 2.0 * np.trunc(0.5 * halves) == 1.0  # an odd multiple of u / 2
    quiet = (r >= 2.0**-960) & (running[1:] < 2.0 * floor) & (r - floor >= 2.0 * w.max()) & ~tie
    quiet &= len(w) < 2**25
    bounds = np.flatnonzero(np.concatenate(([True], ~(quiet[1:] & quiet[:-1]), [True])))
    lo, hi = bounds[:-1], bounds[1:]
    return np.where(quiet[lo], running[hi] - running[lo], w[lo]), bounds, quiet


def _tally(pools: Sequence[np.ndarray], weights: Sequence[np.ndarray],
           home: np.ndarray) -> np.ndarray:
    """Voting result per id, as the module docstring sets out: ballot ``b``
    into ``pools[p]`` (voter ids in ballot order) adds ``weights[p][b]`` to
    every id ``i`` with ``home[i] == p`` but its voter. A voter casts at
    most one ballot, and ``home`` puts each id in at most one pool (-1 for
    none).

    Weights are never negative, so running sums never fall. When a pool's
    weights are all integers and its total is below 2**53, no partial sum
    rounded: a sum that rounds lands at 2**53 or above, and no later sum
    comes back below. Each chain is then the exact total less its own
    weight, an exact difference, and +0.0 where it is zero, as a fold from
    +0.0 is (+0.0 + -0.0 is +0.0). A total of exactly 2**53 may itself be
    rounded (2**53 - 1 + 2 rounds to it), so such a pool folds.

    Any other pool folds its chains over a compressed column (``_column``).
    Let r[0] = +0.0 and r[m + 1] = fl(r[m] + w[m]) be the running sum, W
    the largest weight and B the ballot count; a chain's partial sum x
    trails r by its offset d = r - x, and u = 2**(k - 52) is the spacing
    of the floats in r[m]'s binade [2**k, 2**(k + 1)). Ballot m is quiet
    when (a) r[m] >= 2**-960, (b) r[m + 1] < 2**(k + 1), (c) r[m] - 2**k
    >= 2W and (d) w[m] is no odd multiple of u / 2; the rest are special.

    Offset bound. fl is monotone and no weight is negative, so x <= r and
    d >= 0. A chain follows r bit for bit up to its own ballot s, where d
    becomes fl(r[s] + w[s]) - r[s] <= W + 2**-53 (r[s] + W). After it each
    step moves d by at most the two rounding errors, 2**-53 (r[m] + W)
    each (a sum among the subnormals is exact). With r[m] <= m W (1 +
    2**-53)**m <= m W (1 + 2**-27) for B < 2**25, summing over the steps
    gives d <= W (1 + 2**-52 (1 + 2**-27) B (B + 1) / 2) <= W (1 + B (B +
    1) 2**-52) < 2W, as B (B + 1) < 2**50. A pool of 2**25 ballots or more
    marks every ballot special, which is the plain fold.

    A quiet ballot moves no offset. By (c) every chain's x = r[m] - d lies
    in [2**k, r[m]], so in r's binade and on its grid; by (b) and
    monotony fl(x + w[m]) lies in it too. On one grid rounding commutes
    with a shift by a grid step, so fl(x + w[m]) - x = fl(r[m] + w[m]) -
    r[m] unless x + w[m] is a tie, which (d) rules out. (a) keeps r[m] a
    normal float, whose spacing is u (a subnormal's is 2**-1074), and u
    normal too. The tie test scales w[m] to units of u / 2 by 2**(54 - e),
    with ``np.frexp``'s e = k + 1, and checks for an odd integer; a weight
    above r[m] cannot be quiet (c), so it is capped at r[m] there and the
    scaled value stays below 2**54.

    So folding the column from +0.0 gives exactly r at every row boundary:
    by (b) a stretch [b, a) stays in one binade, so its row r[a] - r[b] is
    exact by Sterbenz's lemma (r[b] <= r[a] < 2 r[b]), and adding it back
    is exact. A chain that enters a stretch at offset d leaves it at r[a] -
    d, the float its ballot-by-ballot fold reaches, so that sum is exact
    too. A chain whose own ballot s is special takes -0.0 in that row (x +
    -0.0 is x); one whose own ballot is quiet takes the row less its own
    step, (r[a] - r[b]) - (r[s + 1] - r[s]), exact as the step is
    (Sterbenz) and both are multiples of u below 2**k, and leaves at r[a]
    less that step, as its own fold does. Rows before the first chain's own
    row fold nowhere. Chains begin where r is theirs: the first at its own
    row, each later one at the first row of its block, as at most
    ``_BLOCK`` rows fold per ``np.add.reduce(axis=0)`` into a block holding
    a spare column (numpy sums a one-column block pairwise), then the
    chains begun before its end."""
    tally = np.zeros(len(home))
    for p, (voters, w) in enumerate(zip(pools, weights)):
        running = np.cumsum(np.concatenate(([0.0], w)))
        members = home == p
        tally[members] = running[-1]
        starts = np.flatnonzero(members[voters])  # a chain per ballot cast by a member
        if not starts.size:
            continue
        if running[-1] < 2.0**53 and (w == np.trunc(w)).all():
            tally[voters[starts]] = running[-1] - w[starts]
            continue
        rows, bounds, quiet = _column(running, w)
        at = np.searchsorted(bounds, starts, "right") - 1  # each chain's own row
        own = np.where(quiet[starts], rows[at] - (running[starts + 1] - running[starts]), -0.0)
        q0s = np.arange(at[0], len(rows), _BLOCK)  # each block's first row
        q1s = np.minimum(q0s + _BLOCK, len(rows))
        widths = 1 + np.searchsorted(at, q1s)  # a spare column, then the chains begun
        k = (at - at[0]) // _BLOCK  # the block each chain begins in
        cells = (1 + at - q0s[k]) * widths[k] + np.arange(1, len(at) + 1)  # own cell, flat
        cut = np.searchsorted(k, np.arange(len(q0s) + 1)).tolist()  # cells' slice per block
        chains = np.concatenate(([0.0], running[bounds[q0s[k]]]))  # r where each chain begins
        buffer = np.empty((min(_BLOCK, len(rows) - at[0]) + 1) * len(chains))
        for i, (q0, q1, width) in enumerate(zip(q0s.tolist(), q1s.tolist(), widths.tolist())):
            flat = buffer[: (q1 - q0 + 1) * width]
            block = flat.reshape(q1 - q0 + 1, width)  # row 1 + q - q0: row q of the column
            block[0] = chains[:width]
            block[1:] = rows[q0:q1, None]
            flat[cells[cut[i] : cut[i + 1]]] = own[cut[i] : cut[i + 1]]
            np.add.reduce(block, axis=0, out=chains[:width])
        tally[voters[starts]] = chains[1:]
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
    """What a run reads from its nodes, in node order, and its two pools:
    the voter ids of the ballots into the high pool (0) and into the low
    pool (1), each in node order. ``ballots`` holds the voters' indexes,
    pool 0's first."""

    ids: list[int]
    index: np.ndarray  # id -> index in node order
    reputations: np.ndarray
    votes: np.ndarray  # bool
    ballots: np.ndarray
    pools: tuple[np.ndarray, np.ndarray]  # voter ids
    correct: np.ndarray  # +1 verifies correctly by behavior, -1 otherwise
    has_script: np.ndarray  # bool


def _read_nodes(nodes: Sequence[FullNode]) -> _Run:
    """Read each node's id, reputation, behavior flags and script, one
    column per pass. Ids must be ints (``validate_ids``) and dense 0..n-1,
    checked on the id array that then indexes the nodes, and reputations
    lie in [0, 1]; the error names the first bad node. Voting reads each
    node's ``behavior``, never its script, so the vote flags are read once
    per run."""
    ids, reps = validate_ids("node", nodes), [x.reputation for x in nodes]
    n = len(ids)
    try:
        order = np.fromiter(ids, np.intp, n)
    except OverflowError:  # an id beyond intp is not in 0..n-1
        order = None
    if order is None or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("node ids must be dense 0..n-1")
    reputations = np.array(reps)
    fine = (reputations >= 0.0) & (reputations <= 1.0)  # False at NaN
    if not fine.all():
        i = int(fine.argmin())
        raise ValueError(f"node {ids[i]} reputation {reps[i]!r} is not in [0, 1]")
    index = np.empty(n, dtype=np.intp)
    index[order] = np.arange(n)
    behaviors = [x.behavior for x in nodes]
    votes = np.fromiter([b.votes for b in behaviors], bool, n)
    low = np.fromiter([b.supports_low_reputation for b in behaviors], bool, n)
    correct = np.fromiter([b.verifies_correctly for b in behaviors], bool, n)
    has_script = np.fromiter([bool(x.script) for x in nodes], bool, n)
    cast = [np.flatnonzero(votes & ~low), np.flatnonzero(votes & low)]
    return _Run(ids, index, reputations.astype(float), votes, np.concatenate(cast),
                (order[cast[0]], order[cast[1]]), np.where(correct, 1, -1),
                has_script)


def _elect(run: _Run, reputations: np.ndarray, params: ReputationParams, committee_size: int,
           active_size: int, mode: VotingMode, rng: np.random.Generator) -> Committee:
    """The election ``run_epochs`` holds each epoch, on a run's arrays: one
    ballot per voting node in node order, into the pool its behavior
    supports, with pools from ``reputations < theta`` (0 high, 1 low by
    id), then ``_tally`` and ``_seat``. These are ``cast_votes``' ballots.
    The weights of both pools are gathered in one step; the pools' voters
    are the run's own arrays, read once from the nodes."""
    if mode is VotingMode.REPUTATION_WEIGHTED:
        weights = reputations[run.ballots]
    else:
        weights = np.ones(len(run.ballots))
    split = len(run.pools[0])
    home = (reputations < params.theta)[run.index]
    tally = _tally(run.pools, (weights[:split], weights[split:]), home)
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
    and the delta, new reputation and role columns in node order. The
    leader and each scripted seat leave the epoch's confirmation count
    under their epoch verdict and rejoin it under this round's, weighted by
    their seats, as a forced committee may seat an id twice."""
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
    into ``ROLES``. ``rows`` builds the ``HistoryRow``s on every read;
    ``rows_for`` and ``write_history_csv`` read the columns and build none."""

    ids: list[int]
    rounds: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]
    chain: list[BlockRecord]
    committees: list[Committee]

    @property
    def rows(self) -> list[HistoryRow]:
        return list(map(HistoryRow._make, self._tuples()))

    def rows_for(self, node_id: int) -> list[HistoryRow]:
        if as_id(node_id) is None:  # True would read node 1
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
    An epoch ends early only if every remaining leader was skipped. The
    reputations live in one vector during the run and go back to the
    nodes when it ends.

    Each epoch not forced elects with ``_elect``: ``cast_votes``' ballots as
    arrays, one per voting node in node order, into pool 0 (high) or 1
    (low), with the pools drawn from that epoch's reputations.

    The sizes, ``n_epochs`` and ``seed`` are counts (``model.as_count``,
    the seed through ``model.validate_count``); a ``bool``, a float or
    anything else is refused with a ``ValueError`` that names the field.
    """
    if as_count(n_epochs) is None:
        raise ValueError(f"n_epochs {n_epochs!r} is not an integer")
    if n_epochs < 0:
        raise ValueError("n_epochs must be non-negative")
    _check_mode(mode)
    committee_size, active_size = _check_sizes(committee_size, active_size, len(nodes))
    run = _read_nodes(nodes)
    if committee_schedule is not None:
        _check_schedule(committee_schedule, n_epochs, len(nodes))
    rng = np.random.default_rng(validate_count(seed, "seed"))
    state = ConsensusState()
    history = ConsensusHistory(ids=run.ids, rounds=[], chain=state.chain, committees=[])
    reputations, voted = run.reputations, frozenset(compress(run.ids, run.votes.tolist()))
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
            if as_id(i) is None or i not in population:
                raise ValueError(f"epoch {epoch} committee seats unknown id {i!r}")
        members = set(committee.members)
        for i in committee.active_order:
            if i not in members:
                raise ValueError(f"epoch {epoch} leader {i!r} is not a committee member")


def write_history_csv(history: ConsensusHistory, path) -> None:
    header = ("epoch", "round", "node_id", "reputation", "role", "delta")
    write_rows(path, header, history._tuples())
