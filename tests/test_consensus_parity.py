"""The array consensus path against the ballot-by-ballot oracle.

Reputations drawn from {0, theta, 1} plus a few repeated values make
tallies tie exactly, so any change in the order weights are added (a
closed-form tally, a pairwise sum) shows up as a reordered ranking. The
golden digests pin whole histories recorded with explicit per-ballot
frozensets and a dict tally.
"""

import hashlib
import io
import math
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trafficmarket.consensus as consensus
from trafficmarket.cli import main
from trafficmarket.consensus import (
    ABNORMAL_BEHAVIOR,
    Behavior,
    BehaviorRecord,
    Committee,
    ConsensusHistory,
    ConsensusState,
    FullNode,
    HistoryRow,
    ReputationParams,
    VotingBallot,
    VotingMode,
    cast_votes,
    elect_witnesses,
    run_epochs,
    run_round,
    sample_population,
    write_history_csv,
)
from trafficmarket.experiments import HOSTILE_FRACTION_GRID
from trafficmarket.model import left_sum, write_rows

from conftest import kept_tallies
from oracles import slow_cast_votes, slow_pool_tally, slow_run_epochs, slow_seat, slow_tally

PARAMS = ReputationParams()
MODES = (VotingMode.REPUTATION_WEIGHTED, VotingMode.EQUAL_WEIGHT)

behaviors = st.builds(
    Behavior,
    votes=st.booleans(),
    supports_low_reputation=st.booleans(),
    produces_block=st.booleans(),
    produces_valid_block=st.booleans(),
    verifies_correctly=st.booleans(),
)


@st.composite
def populations(draw, max_size=14):
    """Nodes with tie-prone reputations, abstainers, leaders that make no
    block and verifiers that judge wrongly, each by a behavior it keeps for
    the whole run, listed out of id order."""
    n = draw(st.integers(2, max_size))
    palette = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    values = st.sampled_from([0.0, PARAMS.theta, 1.0, *palette])
    nodes = [
        FullNode(
            id=i,
            reputation=draw(values),
            behavior=draw(st.one_of(
                st.just(Behavior()), st.just(ABNORMAL_BEHAVIOR), behaviors
            )),
        )
        for i in range(n)
    ]
    return draw(st.permutations(nodes))


def clone(nodes):
    return [FullNode(n.id, n.reputation, n.behavior) for n in nodes]


def same_tallies(tallies, results):
    """Each tally an election computed, a float per node id, against the
    oracle's voting result of that election, by float.hex in the oracle's
    node order."""
    assert len(tallies) == len(results)
    for tally, result in zip(tallies, results):
        tally = tally.tolist()
        assert len(tally) == len(result)
        assert [(k, tally[k].hex()) for k in result] == [(k, v.hex()) for k, v in result.items()]


def oracle_results(committees):
    """The voting results of the epochs ``slow_run_epochs`` elected."""
    return [result for result, *_ in committees if result is not None]


@settings(max_examples=150)
@given(nodes=populations(), sizes=st.tuples(st.integers(1, 14), st.integers(1, 14)),
       seed=st.integers(0, 2**32 - 1))
def test_election_matches_oracle(nodes, sizes, seed):
    committee_size = min(max(sizes), len(nodes))
    active_size = min(min(sizes), committee_size)
    ballots = cast_votes(nodes, PARAMS)
    slow = slow_cast_votes(nodes, PARAMS.theta)
    assert [(b.voter_id, b.supported) for b in ballots] == slow
    for mode in MODES:
        with kept_tallies() as tallies:
            committee = elect_witnesses(
                ballots, nodes, committee_size, active_size, mode,
                np.random.default_rng(seed),
            )
        result = slow_tally(slow, nodes, mode is VotingMode.REPUTATION_WEIGHTED)
        same_tallies(tallies, [result])
        assert (committee.members, committee.active_order, committee.standby) == (
            slow_seat(result, committee_size, active_size, np.random.default_rng(seed))
        )


@settings(max_examples=100)
@given(nodes=populations(max_size=10), active=st.integers(1, 4),
       epochs=st.integers(1, 3), weighted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_epochs_match_oracle(nodes, active, epochs, weighted, seed):
    committee_size = max(1, len(nodes) - 1)
    active = min(active, committee_size)
    mode = MODES[0] if weighted else MODES[1]
    fast_nodes, slow_nodes = clone(nodes), clone(nodes)
    with kept_tallies() as tallies:
        history = run_epochs(fast_nodes, PARAMS, committee_size, active, epochs,
                             mode=mode, seed=seed)
    rows, chain, committees = slow_run_epochs(
        slow_nodes, PARAMS, committee_size, active, epochs, weighted, seed
    )
    same_tallies(tallies, oracle_results(committees))
    assert [
        (r.epoch, r.round_index, r.node_id, r.reputation, r.role, r.delta)
        for r in history.rows
    ] == rows
    assert [
        (b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
        for b in history.chain
    ] == chain
    assert seating(history.committees) == [seats for _, *seats in committees]
    assert [n.reputation for n in fast_nodes] == [n.reputation for n in slow_nodes]


def check_election(ballots, nodes, committee_size, active_size, seed):
    """``elect_witnesses`` against the ballot-by-ballot tally, by float.hex,
    in both modes."""
    pairs = [(b.voter_id, b.supported) for b in ballots]
    for mode in MODES:
        with kept_tallies() as tallies:
            committee = elect_witnesses(
                ballots, nodes, committee_size, active_size, mode, np.random.default_rng(seed)
            )
        result = slow_tally(pairs, nodes, mode is VotingMode.REPUTATION_WEIGHTED)
        same_tallies(tallies, [result])
        assert (committee.members, committee.active_order, committee.standby) == (
            slow_seat(result, committee_size, active_size, np.random.default_rng(seed))
        )


def test_hand_built_ballots_match_oracle():
    """Disjoint pools, one of them empty, ids in no pool, voters inside and
    outside the pool they vote into, and ballots and nodes out of id order."""
    reps = [0.31, 0.5, 0.97, 0.5, 0.1, 0.73, 0.66]
    nodes = [FullNode(id=i, reputation=reps[i]) for i in (3, 0, 5, 1, 6, 4, 2)]
    low, high, nobody = frozenset({0, 1, 2}), frozenset({3, 4}), frozenset()
    ballots = [
        VotingBallot(4, low),  # from outside the pool
        VotingBallot(1, low),
        VotingBallot(5, nobody),
        VotingBallot(3, high),
        VotingBallot(0, low),
        VotingBallot(6, high),
        VotingBallot(2, high),
    ]
    check_election(ballots, nodes, 4, 2, seed=3)
    with kept_tallies() as tallies:
        elect_witnesses(ballots, nodes, 4, 2, VotingMode.EQUAL_WEIGHT, np.random.default_rng(3))
    # 0 and 1 skip their own ballots into low, 3 its own into high; 5 and 6 sit in no pool
    assert tallies[0].tolist() == [2.0, 2.0, 3.0, 2.0, 3.0, 0.0, 0.0]
    check_election([], nodes, 3, 1, seed=0)
    check_election([VotingBallot(2, nobody)], nodes, 3, 1, seed=0)


@st.composite
def ballot_lists(draw):
    """Nodes out of id order; each id in at most one of a few pools, some
    possibly empty; at most one ballot per voter, in any order, into any
    pool."""
    nodes = draw(populations(max_size=12))
    n = len(nodes)
    home = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    pools = [frozenset(i for i in range(n) if home[i] == p) for p in range(4)]
    voters = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    ballots = [VotingBallot(v, draw(st.sampled_from(pools))) for v in voters]
    return nodes, ballots


@settings(max_examples=150)
@given(drawn=ballot_lists(), sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       seed=st.integers(0, 2**32 - 1))
def test_any_ballot_list_matches_oracle(drawn, sizes, seed):
    nodes, ballots = drawn
    committee_size = min(max(sizes), len(nodes))
    check_election(ballots, nodes, committee_size, min(min(sizes), committee_size), seed)


@pytest.mark.parametrize("own_pool", [True, False])
@pytest.mark.parametrize("n_ballots, seed", [(150, 0), (275, 1), (400, 2)])
def test_long_ballot_lists_match_oracle(n_ballots, seed, own_pool):
    """Ballot lists that span several tally blocks of 64 ballots. The first
    130 ballots go to pool 0-299, whose fold starts its blocks at 1, 65 and
    129, since voter 25 casts ballot 0. Ballots 63, 64, 65, 127, 128 and 129
    come from members, whose chains begin at the block edges, or from ids in
    no pool. Later ballots go to any pool, the empty one included."""
    rng = np.random.default_rng(seed)
    nodes = [FullNode(id=int(i), reputation=float(rng.uniform())) for i in rng.permutation(500)]
    pools = [frozenset(range(300)), frozenset(range(300, 450)), frozenset()]
    edges = (63, 64, 65, 127, 128, 129)
    at_edges = range(200, 206) if own_pool else range(450, 456)
    others = iter(
        i for i in rng.permutation(500).tolist() if i != 25 and i not in at_edges
    )
    ballots = [VotingBallot(25, pools[0])]
    for m in range(1, n_ballots):
        if m in edges:
            ballots.append(VotingBallot(at_edges[edges.index(m)], pools[0]))
        else:
            ballots.append(VotingBallot(next(others), pools[rng.integers(3) if m > 129 else 0]))
    check_election(ballots, nodes, 30, 7, seed)


def test_one_and_two_chain_groups_match_oracle():
    """A pool with one begun chain and one with two, each followed by twelve
    ballots from its own outsiders. Summed pairwise, as numpy sums a block of
    one column, each pool's weights round to a different total than the
    ballot-by-ballot count."""
    solo_out = [0.35, 0.44, 0.97, 0.57, 0.27, 0.25, 0.89, 0.23, 0.13, 0.3, 0.59, 0.56]
    pair_out = [0.64, 0.67, 0.7, 0.23, 0.49, 0.31, 0.46, 0.19, 0.96, 0.29, 0.7, 0.37]
    reps = [0.5, 0.81, 0.42, *solo_out, *pair_out]
    for column in ([0.0, *solo_out], [0.0, reps[2], *pair_out]):
        pairwise = np.add.reduce(np.array(column)[:, None], axis=0)[0]
        assert pairwise != left_sum(column)
    nodes = [FullNode(id=i, reputation=r) for i, r in enumerate(reps)][::-1]
    solo, pair = frozenset({0}), frozenset({1, 2})
    ballots = [
        VotingBallot(0, solo),
        *(VotingBallot(i, solo) for i in range(3, 15)),
        VotingBallot(1, pair),
        VotingBallot(2, pair),
        *(VotingBallot(i, pair) for i in range(15, 27)),
    ]
    check_election(ballots, nodes, 5, 2, seed=1)


def test_seat_ties_and_zero_tallies_match_oracle():
    """Equal weights give exact ties; ids in no pool, the voter into an empty
    pool among them, keep +0.0. The stable sort ranks ties, and +0.0 against
    -0.0, by id, as the oracle's (-result, id) key does."""
    nodes = [FullNode(id=i, reputation=0.6) for i in (4, 1, 6, 0, 3, 5, 2)]
    pool, nobody = frozenset({0, 1, 2}), frozenset()
    ballots = [VotingBallot(5, pool), VotingBallot(0, pool),
               VotingBallot(6, nobody), VotingBallot(3, pool)]
    with kept_tallies() as tallies:
        committee = elect_witnesses(ballots, nodes, 6, 3, VotingMode.EQUAL_WEIGHT,
                                    np.random.default_rng(2))
    result = slow_tally([(b.voter_id, b.supported) for b in ballots], nodes, False)
    same_tallies(tallies, [result])
    assert [tallies[0][i].hex() for i in (3, 4, 5, 6)] == ["0x0.0p+0"] * 4
    assert (committee.members, committee.standby) == ((1, 2, 0, 3, 4, 5), (3, 4, 5))
    assert (committee.members, committee.active_order, committee.standby) == (
        slow_seat(result, 6, 3, np.random.default_rng(2))
    )
    signed = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0])
    seated, _ = consensus._seat(signed, 5, 2, np.random.default_rng(0))
    assert seated.members == (2, 5, 0, 1, 3)
    oracle = slow_seat(dict(enumerate(signed.tolist())), 5, 2, np.random.default_rng(0))
    assert (seated.members, seated.active_order, seated.standby) == oracle


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_numpy_axis0_reduce_folds_row_by_row(width):
    """``_tally`` relies on ``np.add.reduce(block, axis=0)`` adding the rows
    of a C-contiguous block one after another, as a ballot-by-ballot count
    does. A block of one column is summed pairwise instead, which is why the
    tally keeps a spare column. A numpy release that changes the order fails
    here, not first in a golden digest."""
    rng = np.random.default_rng(width)
    for height in range(2, 301):
        block = rng.standard_normal((height, width)) * 10.0 ** rng.integers(-6, 7, (height, width))
        fold = block[0].copy()
        for row in block[1:]:
            fold = fold + row
        reduced = np.add.reduce(block, axis=0)
        assert reduced.view(np.int64).tolist() == fold.view(np.int64).tolist(), height


def _runs(values):
    """Runs of 1-30 copies of each drawn value."""
    return st.lists(st.tuples(st.sampled_from(values), st.integers(1, 30)), min_size=1,
                    max_size=6).map(lambda runs: [v for v, n in runs for _ in range(n)])


def _mantissas(exponents):
    """Floats in [2**(e - 1), 2**e) for a drawn e from ``exponents``."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), exponents)


@st.composite
def grid_ties(draw):
    """Ballots of one base weight, some of them (from a running sum of 1.0
    on) plus an odd multiple of half the float spacing at the running sum:
    an exact tie on its grid, which rounds by the parity of what it adds
    to, so a chain that skipped such a ballot can round the other way."""
    base = draw(st.sampled_from([0.75, 0.625, 0.5 + 2.0**-20]))
    weights, running = [], 0.0
    for tie in draw(st.lists(st.booleans(), min_size=1, max_size=150)):
        k = math.frexp(running)[1] - 1  # running is in [2**k, 2**(k + 1))
        odd = 2 * draw(st.integers(0, 3)) + 1
        weights.append(base + odd * 2.0 ** (k - 53) if tie and running >= 1.0 else base)
        running += weights[-1]
    return weights


#: Weight families for the tally's differential test, each a strategy for
#: one pool's weights in ballot order.
WEIGHT_FAMILIES = {
    "grid ties": grid_ties(),
    # exact powers of two land sums on a binade's edge; weights of many
    # magnitudes carry sums across many binades
    "powers of two": st.lists(st.one_of(
        st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 2.0),
        _mantissas(st.integers(-30, 7)),
    ), min_size=1, max_size=150),
    "runs": _runs([1.0, 0.0, -0.0, 0.7, 0.1]),
    # below 2**-960 and across it, subnormals included
    "tiny": st.lists(st.one_of(st.floats(0.0, 2.0**-960), _mantissas(st.integers(-1074, -955))),
                     min_size=1, max_size=150),
    "one voter": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=1),
    # sums that never reach 2**-960 leave every ballot a row of its own
    "more than a block of rows": st.lists(st.floats(0.0, 2.0**-970), min_size=65, max_size=150),
    "long stretches": st.lists(st.floats(0.5, 1.0), min_size=40, max_size=150),
}


@st.composite
def tally_inputs(draw):
    """One to three pools, each with weights from one family; every voter
    casts one ballot, mostly from inside the pool it votes into, and a few
    ids cast none. Returns (pools, weights, home) for ``_tally``."""
    columns = draw(st.lists(st.one_of(*WEIGHT_FAMILIES.values()), min_size=1, max_size=3))
    n = sum(map(len, columns)) + draw(st.integers(0, 4))
    order = iter(draw(st.permutations(range(n))))
    pools = [[next(order) for _ in column] for column in columns]
    home = [draw(st.integers(-1, len(columns) - 1)) for _ in range(n)]
    for p, voters in enumerate(pools):
        for voter in voters:
            if draw(st.integers(0, 9)):  # a member's ballot begins a chain
                home[voter] = p
    return pools, columns, home


@settings(max_examples=120, deadline=None)
@given(inputs=tally_inputs())
def test_tally_matches_a_left_fold(inputs):
    """``_tally`` against a left fold per id that skips the id's own ballot,
    by float.hex, on each of ``WEIGHT_FAMILIES``: grid ties, sums across
    powers of two, runs of 1.0, 0.0 and -0.0, weights below 2**-960,
    one-voter pools, pools of more than ``_BLOCK`` rows and long quiet
    stretches."""
    pools, columns, home = inputs
    tally = consensus._tally([np.array(v, dtype=np.int64) for v in pools],
                             [np.array(c) for c in columns], np.array(home, dtype=np.intp))
    assert [x.hex() for x in tally.tolist()] == [
        x.hex() for x in slow_pool_tally(pools, columns, home)
    ]


@settings(max_examples=30, deadline=None)
@given(nodes=populations(max_size=60), active=st.integers(1, 8),
       epochs=st.integers(1, 3), weighted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_larger_epochs_match_oracle(nodes, active, epochs, weighted, seed):
    """Populations of up to 60 nodes, listed out of id order, bit for bit."""
    committee_size = max(1, 2 * len(nodes) // 3)
    active = min(active, committee_size)
    mode = MODES[0] if weighted else MODES[1]
    fast_nodes, slow_nodes = clone(nodes), clone(nodes)
    with kept_tallies() as tallies:
        history = run_epochs(fast_nodes, PARAMS, committee_size, active, epochs,
                             mode=mode, seed=seed)
    rows, chain, committees = slow_run_epochs(
        slow_nodes, PARAMS, committee_size, active, epochs, weighted, seed
    )
    assert hexed(history.rows) == hexed(rows)
    assert [
        (b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
        for b in history.chain
    ] == chain
    assert seating(history.committees) == [seats for _, *seats in committees]
    same_tallies(tallies, oracle_results(committees))
    assert [n.reputation.hex() for n in fast_nodes] == [
        n.reputation.hex() for n in slow_nodes
    ]


def test_run_epochs_builds_no_ballots(tmp_path, monkeypatch):
    """The epoch loop and the CLI job elect from arrays: with the ballot
    type, ``cast_votes`` and ``elect_witnesses`` refusing, the history and
    the CSV are those of an unpatched run."""
    argv = ["consensus", "--nodes", "60", "--committee", "40", "--active", "6",
            "--abnormal-frac", "0.3", "--epochs", "3", "--seed", "8"]
    expected = digest_run(tie_heavy(6), 70, 8, 3, seed=6)
    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "before.csv")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a ballot object was built")

    for name in ("VotingBallot", "cast_votes", "elect_witnesses"):
        monkeypatch.setattr(consensus, name, refuse)
    assert digest_run(tie_heavy(6), 70, 8, 3, seed=6) == expected
    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "after.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


@pytest.mark.parametrize("population", [100, 1000])
def test_study_election_matches_the_ballot_path(population):
    """The rnw-vs-rafn study elects with ``_elect`` on the run's arrays; the
    ballot path must seat the same committee with the same bits, for the
    study's populations at every grid point. 1000 nodes give the pools more
    than one ``_BLOCK`` of ballots."""
    committee_size = population * 7 // 10
    for seed in range(5):
        for grid_index, rafn in enumerate(HOSTILE_FRACTION_GRID):
            rng = np.random.default_rng([seed, 10, grid_index])
            nodes = sample_population(population, rafn, rng)
            run, ballots = consensus._read_nodes(nodes), cast_votes(nodes, PARAMS)
            for mode_index, mode in enumerate(MODES):
                stream = [seed, 11, grid_index, mode_index]  # the study's, one generator each
                with kept_tallies() as tallies:
                    fast, _ = consensus._elect(run, run.reputations, PARAMS, committee_size, 10,
                                               mode, np.random.default_rng(stream))
                    slow = elect_witnesses(ballots, nodes, committee_size, 10, mode,
                                           np.random.default_rng(stream))
                assert (fast.members, fast.active_order, fast.standby) == (
                    slow.members, slow.active_order, slow.standby
                )
                assert [x.hex() for x in tallies[0].tolist()] == [
                    x.hex() for x in tallies[1].tolist()
                ]


def drive_rounds(nodes, committee_size, active_size, n_epochs, mode, seed, schedule):
    """run_epochs' steps one by one through the public ``run_round``, the
    way the benchmark probe drives them; returns (rows, records, chain,
    committees)."""
    rng = np.random.default_rng(seed)
    state = ConsensusState()
    rows, records, committees = [], [], []
    for epoch in range(n_epochs):
        ballots = cast_votes(nodes, PARAMS)
        committee = schedule[epoch]
        if committee is None:
            committee = elect_witnesses(
                ballots, nodes, committee_size, active_size, mode, rng
            )
        else:
            rng.permutation(active_size)
        committees.append(committee)
        state.start_epoch(committee, frozenset(b.voter_id for b in ballots))
        for _ in committee.active_order:
            round_index = state.global_round
            for r in run_round(state, nodes, PARAMS):
                rows.append((epoch, round_index, r.node_id, r.reputation, r.role, r.delta))
                records.append(r)
    return rows, records, state.chain, committees


def leader_orders(seats, active_size):
    """The first ``active_size`` seats, or as many leaders drawn from all of
    them, an id as often as it is drawn: a repeated id leads at each of its
    seats, whether or not it produced a block at an earlier one."""
    repeated = st.lists(st.sampled_from(seats), min_size=active_size, max_size=active_size)
    return st.just(tuple(seats[:active_size])) | repeated.map(tuple)


@st.composite
def schedules(draw, n, committee_size, active_size, n_epochs):
    """Per epoch, None (elect) or a committee forced from a permutation."""
    forced = []
    for _ in range(n_epochs):
        if draw(st.booleans()):
            forced.append(None)
            continue
        seats = draw(st.permutations(range(n)))[:committee_size]
        forced.append(Committee(
            members=tuple(seats),
            active_order=draw(leader_orders(seats, active_size)),
            standby=tuple(seats[active_size:]),
        ))
    return forced


@settings(max_examples=100)
@given(data=st.data(), nodes=populations(max_size=10), active=st.integers(1, 4),
       epochs=st.integers(1, 3), weighted=st.booleans(), reverse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_run_round_matches_run_epochs(data, nodes, active, epochs, weighted,
                                      reverse, seed):
    nodes = clone(nodes)
    skippers = data.draw(st.sets(st.integers(0, len(nodes) - 1), max_size=3))
    for node in nodes:
        if node.id in skippers:
            node.behavior = replace(node.behavior, produces_block=False)
    if reverse:
        nodes.sort(key=lambda n: n.id, reverse=True)
    committee_size = max(1, len(nodes) - 1)
    active = min(active, committee_size)
    mode = MODES[0] if weighted else MODES[1]
    schedule = data.draw(schedules(len(nodes), committee_size, active, epochs))
    epoch_nodes, round_nodes = clone(nodes), clone(nodes)
    history = run_epochs(epoch_nodes, PARAMS, committee_size, active, epochs,
                         mode=mode, seed=seed, committee_schedule=schedule)
    rows, records, chain, _ = drive_rounds(
        round_nodes, committee_size, active, epochs, mode, seed, schedule
    )
    assert [tuple(r) for r in history.rows] == rows
    assert history.chain == chain
    assert [n.reputation for n in epoch_nodes] == [n.reputation for n in round_nodes]
    for r in records:
        assert r.alpha in (1, -1) and r.beta in (1, 0, -1) and r.gamma in (1, 0, -1)
        assert r.delta == (
            PARAMS.w_vote * r.alpha + PARAMS.w_lead * r.beta + PARAMS.w_verify * r.gamma
        )


def hexed(rows):
    return [(e, r, i, rep.hex(), role, d.hex()) for e, r, i, rep, role, d in rows]


def seating(committees):
    return [[c.members, c.active_order, c.standby] for c in committees]


@settings(max_examples=100)
@given(data=st.data(), nodes=populations(max_size=10),
       active=st.integers(1, 4), epochs=st.integers(1, 3), weighted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_verdicts_and_skips_match_run_round(data, nodes, active, epochs, weighted, seed):
    """run_epochs keeps one committee verdict vector per epoch and takes
    only the leader's own seats out of its count; run_round rebuilds
    everything each round, and the oracle judges member by member. Drawn
    nodes verify the other way from their drawn behavior, for the whole
    run, and a leader that never makes a block leads round 0, the first of
    a forced epoch 0."""
    n = len(nodes)
    committee_size = max(1, n - 1)
    active = min(active, committee_size)
    for node in data.draw(st.lists(st.sampled_from(nodes), unique_by=id)):
        node.behavior = replace(node.behavior,
                                verifies_correctly=not node.behavior.verifies_correctly)
    skipper = data.draw(st.sampled_from(nodes))
    skipper.behavior = replace(skipper.behavior, produces_block=False)
    schedule = data.draw(schedules(n, committee_size, active, epochs))
    others = [i for i in data.draw(st.permutations(range(n))) if i != skipper.id]
    seats = [skipper.id] + others[: committee_size - 1]
    schedule[0] = Committee(
        members=tuple(seats),
        active_order=(skipper.id, *data.draw(leader_orders(seats, active))[1:]),
        standby=tuple(seats[active:]),
    )
    mode = MODES[0] if weighted else MODES[1]
    epoch_nodes, round_nodes, slow_nodes = clone(nodes), clone(nodes), clone(nodes)
    history = run_epochs(epoch_nodes, PARAMS, committee_size, active, epochs,
                         mode=mode, seed=seed, committee_schedule=schedule)
    rows, _, chain, committees = drive_rounds(
        round_nodes, committee_size, active, epochs, mode, seed, schedule
    )
    slow_rows, slow_chain, _ = slow_run_epochs(
        slow_nodes, PARAMS, committee_size, active, epochs, weighted, seed, schedule
    )
    assert all(b.round_index != 0 for b in history.chain)
    assert hexed(history.rows) == hexed(rows) == hexed(slow_rows)
    assert history.chain == chain
    assert [
        (b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
        for b in history.chain
    ] == slow_chain
    assert all(type(b.confirmations) is int for b in history.chain)
    assert seating(history.committees) == seating(committees)
    assert [n.reputation.hex() for n in epoch_nodes] == [
        n.reputation.hex() for n in round_nodes
    ] == [n.reputation.hex() for n in slow_nodes]


def test_a_leader_in_a_repeated_seat_leaves_the_count_at_each_seat():
    """Leader 0 holds two of eight seats and would confirm its own valid
    block. Both its seats leave the count: five confirmations from nodes 1
    to 5, not the 16/3 needed, so the block is rejected. Were it to leave
    only once, the count would read six and accept the block, as it does
    for leader 1, which holds one seat, in round 1."""
    behaviors = {6: Behavior(verifies_correctly=False), 7: Behavior(votes=False)}
    nodes = [FullNode(id=i, reputation=0.5, behavior=behaviors.get(i, Behavior()))
             for i in range(8)]
    schedule = [Committee(members=(0, 0, 1, 2, 3, 4, 5, 6), active_order=(0, 1),
                          standby=(2, 3, 4, 5, 6))]
    epoch_nodes, round_nodes, slow_nodes = clone(nodes), clone(nodes), clone(nodes)
    history = run_epochs(epoch_nodes, PARAMS, 8, 2, 1, committee_schedule=schedule)
    rows, records, chain, _ = drive_rounds(
        round_nodes, 8, 2, 1, MODES[0], 0, schedule
    )
    slow_rows, slow_chain, _ = slow_run_epochs(slow_nodes, PARAMS, 8, 2, 1, True, 0, schedule)
    assert history.chain == chain
    assert [(b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
            for b in history.chain] == slow_chain
    assert [(b.round_index, b.producer_id, b.confirmations) for b in chain] == [(1, 1, 6)]
    assert hexed(history.rows) == hexed(rows) == hexed(slow_rows)
    assert [(r.beta, r.gamma) for r in records[:8]] == [
        (-1, 0), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, -1), (0, 0)
    ]
    assert [n.reputation.hex() for n in epoch_nodes] == [
        n.reputation.hex() for n in slow_nodes
    ]


def test_a_leader_that_made_no_block_leads_again_at_its_next_seat():
    """Node 0 holds the first two of three seats in leader order and never
    produces a block. Each seat leads once, so node 0 loses w_lead twice and
    node 1's block closes the epoch: three rounds, node 0 at 0.425, as in
    the oracle. Skipping node 0 for the rest of the epoch once it made no
    block would play two rounds and leave it at 0.47."""
    nodes = [FullNode(id=i, reputation=0.5) for i in range(4)]
    nodes[0].behavior = Behavior(produces_block=False)
    schedule = [Committee(members=(0, 1, 2, 3), active_order=(0, 0, 1), standby=(2, 3))]
    epoch_nodes, round_nodes, slow_nodes = clone(nodes), clone(nodes), clone(nodes)
    history = run_epochs(epoch_nodes, PARAMS, 4, 3, 1, committee_schedule=schedule)
    rows, records, chain, _ = drive_rounds(round_nodes, 4, 3, 1, MODES[0], 0, schedule)
    slow_rows, slow_chain, _ = slow_run_epochs(slow_nodes, PARAMS, 4, 3, 1, True, 0, schedule)
    assert [rnd for _, rnd, *_ in history.rounds] == [0, 1, 2]
    assert hexed(history.rows) == hexed(rows) == hexed(slow_rows)
    assert history.chain == chain
    assert [(b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
            for b in history.chain] == slow_chain
    assert [(b.round_index, b.producer_id) for b in chain] == [(2, 1)]
    assert [r.beta for r in records if r.node_id == 0] == [-1, -1, 0]
    assert [n.reputation.hex() for n in epoch_nodes] == [
        n.reputation.hex() for n in round_nodes
    ] == [n.reputation.hex() for n in slow_nodes]
    assert epoch_nodes[0].reputation == pytest.approx(0.425)


def test_history_readers_never_build_rows(tmp_path, monkeypatch):
    history = run_epochs(tie_heavy(5), PARAMS, 40, 6, 2, seed=5)
    rows = history.rows
    assert len(rows) == 120 * len(history.rounds)
    header = ("epoch", "round", "node_id", "reputation", "role", "delta")
    write_rows(tmp_path / "rows.csv", header, rows)

    def refuse(self):
        raise AssertionError("ConsensusHistory.rows was read")

    monkeypatch.setattr(ConsensusHistory, "rows", property(refuse))
    write_history_csv(history, tmp_path / "history.csv")
    assert (tmp_path / "history.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    for node_id in (0, 7, 119):
        assert history.rows_for(node_id) == [r for r in rows if r.node_id == node_id]
    assert history.rows_for(120) == []
    with redirect_stdout(io.StringIO()) as out:
        code = main(["consensus", "--nodes", "40", "--committee", "20", "--active", "4",
                     "--epochs", "2", "--seed", "3", "--out", str(tmp_path / "cli.csv")])
    assert code == 0 and "rounds: 8 " in out.getvalue()
    assert len((tmp_path / "cli.csv").read_text().splitlines()) == 1 + 40 * 8


def test_record_types_are_immutable():
    assert HistoryRow._fields == (
        "epoch", "round_index", "node_id", "reputation", "role", "delta"
    )
    assert BehaviorRecord._fields == (
        "node_id", "alpha", "beta", "gamma", "delta", "reputation", "role"
    )
    row = HistoryRow(0, 3, 2, 0.5, "witness", 0.015)
    record = BehaviorRecord(2, 1, 0, 1, 0.015, 0.5, "witness")
    for obj in (row, record):
        for name in ("reputation", "role", "delta", "node_id", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
    assert (row.round_index, row.role, record.gamma) == (3, "witness", 1)


def population(n, hostile_frac, seed, values=None):
    """Hostile ids drawn without replacement; reputations uniform on each
    side of theta, or drawn from ``values`` when given."""
    rng = np.random.default_rng(seed)
    hostile = set(rng.choice(n, size=round(hostile_frac * n), replace=False).tolist())
    nodes = []
    for i in range(n):
        if values is not None:
            rep = float(rng.choice(values))
        else:
            rep = rng.uniform(0.0, 0.5) if i in hostile else rng.uniform(0.5, 1.0)
        behavior = ABNORMAL_BEHAVIOR if i in hostile else Behavior()
        nodes.append(FullNode(id=i, reputation=rep, behavior=behavior))
    return nodes


def tie_heavy(seed):
    """Clamped and threshold reputations, abstainers, leaders that never
    make a block, and the node list reversed out of id order."""
    nodes = population(120, 0.3, seed, values=[0.0, 0.5, 1.0, 0.3, 0.7])
    for node in nodes[::7]:
        node.behavior = Behavior(votes=False)
    for node in nodes[::11]:
        node.behavior = replace(node.behavior, produces_block=False)
    return nodes[::-1]


def digest_run(nodes, *args, **kwargs) -> str:
    """``history_digest`` of ``run_epochs(nodes, PARAMS, *args, **kwargs)``."""
    with kept_tallies() as tallies:
        history = run_epochs(nodes, PARAMS, *args, **kwargs)
    return history_digest(history, tallies)


def history_digest(history, tallies) -> str:
    """sha256 of repr((rows, chain, committees)); each committee carries the
    tally of its election as (node id, float) pairs in node order."""
    assert len(tallies) == len(history.committees)
    rows = [
        (r.epoch, r.round_index, r.node_id, r.reputation, r.role, r.delta)
        for r in history.rows
    ]
    chain = [
        (b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
        for b in history.chain
    ]
    seats = [
        (c.members, c.active_order, c.standby, [(i, tally[i]) for i in history.ids])
        for c, tally in zip(history.committees, (t.tolist() for t in tallies))
    ]
    return hashlib.sha256(repr((rows, chain, seats)).encode()).hexdigest()


CONFIGS = {
    "reputation-20pct": (lambda: population(300, 0.2, 1), 200, 10, 4, MODES[0], 1),
    "equal-40pct": (lambda: population(300, 0.4, 2), 180, 8, 3, MODES[1], 2),
    "ties-reputation": (lambda: tie_heavy(3), 80, 10, 3, MODES[0], 3),
    "ties-equal": (lambda: tie_heavy(4), 60, 6, 3, MODES[1], 4),
}

# sha256 of repr((history rows, chain, committees)) per configuration,
# recorded with explicit per-ballot frozensets, a dict tally and per-node
# updates. The tie configurations' leaders that skip make no block for the
# whole run; test_golden_tie_histories_match_oracle holds both runs to the
# oracle.
GOLDEN = {
    "reputation-20pct": "a97e475e4e0b88c7d9ff8c87690b462d00c56d397392200a7c99c09ee9aecb15",
    "equal-40pct": "6dc51407e638ccf7e0c57d0a31e714e583cadef35aa7f1bfe39d32267b4c7500",
    "ties-reputation": "702269bf0eda269d5592d9829fe9cf69f061776435c13345bc54d4ac4fca2177",
    "ties-equal": "055be94468927e53a9d6836f7c6669a63c03af099d9d5a3671203f3612e07b92",
}


def test_golden_histories():
    digests = {
        name: digest_run(make(), committee, active, epochs, mode=mode, seed=seed)
        for name, (make, committee, active, epochs, mode, seed) in CONFIGS.items()
    }
    assert digests == GOLDEN


@pytest.mark.parametrize("name", ["ties-reputation", "ties-equal"])
def test_golden_tie_histories_match_oracle(name):
    make, committee, active, epochs, mode, seed = CONFIGS[name]
    check_epochs(make(), committee, active, epochs, mode is MODES[0], seed)


@pytest.fixture
def columns(monkeypatch):
    """Per ``_tally`` call, the ``(pool index, rows)`` pair of each pool
    that folds its chains: how many rows its compressed weight column has
    (``consensus._column``). A pool that tallies in closed form, or that
    has no chain, folds none."""
    elections = []
    tally, column = consensus._tally, consensus._column

    def counted_tally(pools, weights, home):
        elections.append((weights, []))
        return tally(pools, weights, home)

    def counted_column(running, w):
        rows, bounds, quiet = column(running, w)
        weights, folded = elections[-1]
        folded.append((next(p for p, x in enumerate(weights) if x is w), len(rows)))
        return rows, bounds, quiet

    monkeypatch.setattr(consensus, "_tally", counted_tally)
    monkeypatch.setattr(consensus, "_column", counted_column)
    return lambda: [folded for _, folded in elections]


def check_epochs(nodes, committee_size, active_size, n_epochs, weighted, seed):
    """``run_epochs`` against ``slow_run_epochs``, bit for bit."""
    fast_nodes, slow_nodes = clone(nodes), clone(nodes)
    mode = MODES[0] if weighted else MODES[1]
    with kept_tallies() as tallies:
        history = run_epochs(fast_nodes, PARAMS, committee_size, active_size, n_epochs,
                             mode=mode, seed=seed)
    rows, chain, committees = slow_run_epochs(
        slow_nodes, PARAMS, committee_size, active_size, n_epochs, weighted, seed
    )
    assert hexed(history.rows) == hexed(rows)
    assert [
        (b.epoch, b.round_index, b.producer_id, b.payload_hash, b.confirmations)
        for b in history.chain
    ] == chain
    assert seating(history.committees) == [seats for _, *seats in committees]
    same_tallies(tallies, oracle_results(committees))
    assert [n.reputation.hex() for n in fast_nodes] == [n.reputation.hex() for n in slow_nodes]


def test_zero_and_one_weights_tally_in_closed_form(columns):
    """Reputations of 1.0, 0.0 and -0.0 weigh integers, so every pool takes
    the closed form: no pool folds, and each chain, the -0.0 voter's and the
    lone voters' of one-voter pools among them, has the ballot-by-ballot
    count's bits, +0.0 where it is zero."""
    reps = [1.0, 0.0, -0.0, 1.0, 1.0, 0.0, 1.0, -0.0, 1.0]
    nodes = [FullNode(id=i, reputation=reps[i]) for i in (4, 0, 7, 2, 8, 1, 6, 3, 5)]
    mixed, lone, zero = frozenset({0, 1, 2, 3, 5}), frozenset({6}), frozenset({7})
    ballots = [
        VotingBallot(2, mixed),  # reputation -0.0, inside its pool
        VotingBallot(0, mixed),
        VotingBallot(4, mixed),  # from outside the pool
        VotingBallot(5, mixed),
        VotingBallot(3, mixed),
        VotingBallot(6, lone),  # alone in a pool of its own: 1.0 less 1.0
        VotingBallot(7, zero),  # reputation -0.0, alone in its pool
    ]
    check_election(ballots, nodes, 6, 2, seed=4)
    with kept_tallies() as tallies:
        elect_witnesses(ballots, nodes, 6, 2, VotingMode.REPUTATION_WEIGHTED,
                        np.random.default_rng(4))
    tally = tallies[0].tolist()
    assert [tally[i].hex() for i in (6, 7, 8)] == ["0x0.0p+0"] * 3
    assert [tally[i] for i in (0, 1, 2, 3, 5)] == [2.0, 3.0, 3.0, 2.0, 3.0]
    assert columns() == [[]] * 3  # both modes, then reputation weights again
    population = [FullNode(id=i, reputation=[1.0, 0.0, -0.0][i % 3],
                           behavior=ABNORMAL_BEHAVIOR if i % 5 == 0 else Behavior())
                  for i in range(150)]
    for weighted in (True, False):
        check_epochs(population, 100, 6, 2, weighted, seed=9)
    assert columns()[3] == [] and columns()[5:] == [[], []]  # the first election; every equal one


def test_a_non_integer_weight_keeps_the_fold(columns):
    """Weights 0.7, 1.0 and 1.0: the total less 1.0 is 1.7000000000000002,
    while the count that skips that ballot reads 1.7. One such weight among
    integers keeps its pool on the fold. Below 4.0 no ballot is quiet (no
    running sum lies twice the largest weight into its binade), so the
    four-ballot pool folds all four; 200 ballots fold in 27 rows."""
    total = np.cumsum([0.0, 0.7, 1.0, 1.0])[-1]
    assert (total - 1.0).hex() != (0.0 + 0.7 + 1.0).hex()
    nodes = [FullNode(id=i, reputation=r) for i, r in enumerate([0.7, 1.0, 1.0, 0.2])]
    check_election(cast_votes(nodes, PARAMS), nodes, 3, 1, seed=2)
    # reputation weights: the high pool folds, and the low one has no chain;
    # equal weights take the closed form
    assert columns() == [[(0, 4)], []]
    population = [FullNode(id=i, reputation=1.0) for i in range(200)]
    population[57].reputation = 0.7
    check_epochs(population, 150, 5, 1, True, seed=3)
    assert columns()[-1] == [(0, 27)]


def test_a_node_crossing_theta_moves_the_chains_and_still_folds_few_rows(columns):
    """Well-behaved voters at 0.4975 sit in the low pool until their vote
    carries them past theta in the first epoch's rounds. The high pool's
    chains then begin at more ballots; every election builds its columns
    afresh, and the high pool's 130-odd ballots fold in 30-35 rows."""
    rng = np.random.default_rng(11)
    nodes = [FullNode(id=i, reputation=float(rng.uniform(0.5, 1.0))) for i in range(160)]
    for i in range(3, 160, 9):
        nodes[i].reputation = 0.4975
    for i in range(5, 160, 6):
        nodes[i].behavior = ABNORMAL_BEHAVIOR
    check_epochs(nodes, 120, 4, 3, True, seed=5)
    assert columns() == [[(0, 34)], [(0, 30), (1, 20)], [(0, 35), (1, 18)]]


def test_the_benchmark_run_folds_few_rows(columns):
    """The benchmark's run at seed 0: 1,000 nodes drawn as its population,
    committee 700, 10 active, 5 epochs. Its high pool (0) has 800 ballots
    and its low pool (1) about 200; each folds 36-49 rows. By the last
    epoch every reputation in the high pool is clamped at 1.0, so it
    tallies in closed form there. Equal weights take the closed form in
    every election."""
    expected = {
        MODES[0]: [[(0, 46), (1, 49)], [(0, 44), (1, 49)], [(0, 38), (1, 38)],
                   [(0, 36), (1, 47)], [(1, 42)]],
        MODES[1]: [[]] * 5,
    }
    for mode, folded in expected.items():
        nodes = sample_population(1000, 0.2, np.random.default_rng([0, 20]))
        start = len(columns())
        run_epochs(nodes, PARAMS, 700, 10, 5, mode=mode, seed=0)
        assert columns()[start:] == folded


def test_a_pool_of_several_blocks_of_rows_matches_a_left_fold(columns):
    """400 ballots of 0.75, every fourth from 1.0 on a tie on its running
    sum's grid: each tie is a row of its own, so the column has more than
    three ``_BLOCK``s of rows, with quiet stretches between. Every voter
    but a few outsiders is a member, so chains begin in every block, at
    special and at quiet ballots."""
    weights, running = [], 0.0
    for m in range(400):
        k = math.frexp(running)[1] - 1  # running is in [2**k, 2**(k + 1))
        weights.append(0.75 + 2.0 ** (k - 53) if m % 4 == 3 and running >= 1.0 else 0.75)
        running += weights[-1]
    voters = np.random.default_rng(3).permutation(410)[:400].tolist()
    home = [-1 if i % 37 == 0 else 0 for i in range(410)]
    tally = consensus._tally([np.array(voters)], [np.array(weights)], np.array(home))
    assert [x.hex() for x in tally.tolist()] == [
        x.hex() for x in slow_pool_tally([voters], [weights], home)
    ]
    (((pool, rows),),) = columns()
    assert pool == 0 and 3 * consensus._BLOCK < rows < 300
