"""Election, round, and reputation-dynamics tests for the consensus simulator."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficmarket.consensus import (
    ABNORMAL_BEHAVIOR,
    Behavior,
    Committee,
    ConsensusState,
    FullNode,
    ReputationParams,
    VotingBallot,
    VotingMode,
    _seat,
    cast_votes,
    elect_witnesses,
    run_epochs,
    run_round,
    sample_population,
    write_history_csv,
)

from conftest import kept_tallies
from oracles import slow_cast_votes, slow_tally

PARAMS = ReputationParams()

# abstains from the vote, builds bad blocks, judges blocks wrongly
SABOTEUR = Behavior(
    votes=False,
    supports_low_reputation=True,
    produces_valid_block=False,
    verifies_correctly=False,
)


def make_nodes(reputations, behaviors=None):
    behaviors = behaviors or {}
    return [
        FullNode(id=i, reputation=r, behavior=behaviors.get(i, Behavior()))
        for i, r in enumerate(reputations)
    ]


def check_tally(tally, nodes, weighted):
    """An election's tally against the ballot-by-ballot count of ``nodes``'
    ballots, by float.hex."""
    result = slow_tally(slow_cast_votes(nodes, PARAMS.theta), nodes, weighted)
    tally = tally.tolist()
    assert [(k, tally[k].hex()) for k in result] == [(k, v.hex()) for k, v in result.items()]


def forced(members, active_order, standby=()):
    return Committee(
        members=tuple(members),
        active_order=tuple(active_order),
        standby=tuple(standby),
    )


class TestElection:
    def test_reputation_weighted_tally(self):
        # Two healthy nodes support each other; the weak node backs nobody
        # at or below theta exists, so its adversarial ballot is empty.
        nodes = make_nodes(
            [0.9, 0.8, 0.1], behaviors={2: ABNORMAL_BEHAVIOR}
        )
        ballots = cast_votes(nodes, PARAMS)
        assert [(b.voter_id, set(b.supported)) for b in ballots] == [
            (0, {1}),
            (1, {0}),
            (2, set()),
        ]
        rng = np.random.default_rng(0)
        with kept_tallies() as tallies:
            committee = elect_witnesses(
                ballots, nodes, 2, 1, VotingMode.REPUTATION_WEIGHTED, rng
            )
        assert tallies[0].tolist() == [0.8, 0.9, 0.0]
        check_tally(tallies[0], nodes, weighted=True)
        assert committee.members == (1, 0)
        assert committee.active_order == (1,)
        assert committee.standby == (0,)

    def test_equal_weight_tally_breaks_tie_on_id(self):
        nodes = make_nodes([0.9, 0.8, 0.1], behaviors={2: ABNORMAL_BEHAVIOR})
        ballots = cast_votes(nodes, PARAMS)
        with kept_tallies() as tallies:
            committee = elect_witnesses(
                ballots, nodes, 2, 1, VotingMode.EQUAL_WEIGHT, np.random.default_rng(0)
            )
        assert tallies[0].tolist() == [1.0, 1.0, 0.0]
        check_tally(tallies[0], nodes, weighted=False)
        assert committee.members == (0, 1)

    def test_abnormal_voter_backs_low_reputation_peers(self):
        nodes = make_nodes(
            [0.9, 0.3, 0.4], behaviors={0: ABNORMAL_BEHAVIOR}
        )
        ballots = cast_votes(nodes, PARAMS)
        assert ballots[0].supported == frozenset({1, 2})

    def test_abstainer_casts_no_ballot(self):
        nodes = make_nodes([0.9, 0.8])
        nodes[1].behavior = Behavior(votes=False)
        ballots = cast_votes(nodes, PARAMS)
        assert [b.voter_id for b in ballots] == [0]

    def test_whole_population_committee(self):
        nodes = make_nodes([0.6, 0.7, 0.8, 0.9])
        ballots = cast_votes(nodes, PARAMS)
        committee = elect_witnesses(
            ballots, nodes, 4, 2, VotingMode.REPUTATION_WEIGHTED,
            np.random.default_rng(1),
        )
        assert set(committee.members) == {0, 1, 2, 3}
        assert set(committee.active_order) | set(committee.standby) == {0, 1, 2, 3}

    def test_size_validation(self):
        nodes = make_nodes([0.5, 0.5])
        ballots = cast_votes(nodes, PARAMS)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            elect_witnesses(ballots, nodes, 3, 1, VotingMode.EQUAL_WEIGHT, rng)
        with pytest.raises(ValueError):
            elect_witnesses(ballots, nodes, 2, 0, VotingMode.EQUAL_WEIGHT, rng)
        with pytest.raises(ValueError):
            elect_witnesses(ballots, nodes, 1, 2, VotingMode.EQUAL_WEIGHT, rng)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.5])
    def test_rejects_reputation_outside_unit_interval(self, bad):
        ballots = cast_votes(make_nodes([0.9, 0.8, 0.7]), PARAMS)
        nodes = make_nodes([0.9, bad, 0.7])
        with pytest.raises(ValueError, match="reputation"):
            elect_witnesses(ballots, nodes, 2, 1, VotingMode.REPUTATION_WEIGHTED,
                            np.random.default_rng(0))

    def test_requires_dense_ids(self):
        nodes = [FullNode(id=0, reputation=0.9), FullNode(id=2, reputation=0.8)]
        ballots = cast_votes(nodes, PARAMS)
        with pytest.raises(ValueError, match="dense"):
            elect_witnesses(ballots, nodes, 2, 1, VotingMode.EQUAL_WEIGHT,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("ballot", [
        VotingBallot(voter_id=3, pool=frozenset({0})),
        VotingBallot(voter_id=0, pool=frozenset({1, 3})),
        VotingBallot(voter_id=0, pool=frozenset({-1})),
    ])
    def test_rejects_ballot_outside_population(self, ballot):
        nodes = make_nodes([0.9, 0.8, 0.7])
        with pytest.raises(ValueError, match="unknown voter|outside"):
            elect_witnesses([ballot], nodes, 2, 1, VotingMode.EQUAL_WEIGHT,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("ballot, message", [
        # each was counted as an id of the population: 1.5 and True as voter
        # 1, np.int64(0) as voter 0, and the pool {2.5, 3} as {2, 3}
        (VotingBallot(1.5, frozenset({2, 3})), "ballot from unknown voter 1.5"),
        (VotingBallot(True, frozenset({2, 3})), "ballot from unknown voter True"),
        (VotingBallot(np.int64(0), frozenset({2, 3})),
         f"ballot from unknown voter {np.int64(0)!r}"),
        (VotingBallot(0, frozenset({2.5, 3})), "ballot supports an id outside 0..n-1: 2.5"),
    ])
    def test_rejects_an_id_that_is_not_exactly_an_int(self, ballot, message):
        nodes = make_nodes([0.5] * 4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            elect_witnesses([ballot], nodes, 3, 1, VotingMode.EQUAL_WEIGHT, rng)
        assert rng.bit_generator.state == state

    def test_rejects_a_voter_with_two_ballots(self):
        nodes = make_nodes([0.9, 0.8, 0.7])
        pool = frozenset({0, 1})
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="more than one ballot"):
            elect_witnesses([VotingBallot(2, pool), VotingBallot(2, pool)], nodes, 2, 1,
                            VotingMode.EQUAL_WEIGHT, rng)
        with pytest.raises(ValueError, match="more than one ballot"):
            elect_witnesses([VotingBallot(0, pool), VotingBallot(0, frozenset({2}))],
                            nodes, 2, 1, VotingMode.EQUAL_WEIGHT, rng)
        assert rng.bit_generator.state == state

    def test_rejects_pools_that_share_an_id(self):
        nodes = make_nodes([0.9, 0.8, 0.7])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        ballots = [VotingBallot(0, frozenset({1, 2})), VotingBallot(1, frozenset({0, 2}))]
        with pytest.raises(ValueError, match="share an id"):
            elect_witnesses(ballots, nodes, 2, 1, VotingMode.EQUAL_WEIGHT, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mode", ["reputation", "equal", None, 0])
    def test_rejects_a_mode_that_is_not_a_voting_mode(self, mode):
        nodes = make_nodes([0.9, 0.8, 0.7])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="not a VotingMode"):
            elect_witnesses(cast_votes(nodes, PARAMS), nodes, 2, 1, mode, rng)
        assert rng.bit_generator.state == state

    def test_ballots_share_pools(self):
        nodes = make_nodes([0.9, 0.5, 0.2, 0.1], behaviors={3: ABNORMAL_BEHAVIOR})
        ballots = cast_votes(nodes, PARAMS)
        assert ballots[0].pool is ballots[1].pool is ballots[2].pool
        assert ballots[0].pool == frozenset({0, 1})
        assert ballots[3].pool == frozenset({2, 3})
        assert [b.supported for b in ballots] == [
            frozenset({1}), frozenset({0}), frozenset({0, 1}), frozenset({2}),
        ]

    def test_leader_order_is_seed_deterministic(self):
        nodes = make_nodes([0.9] * 8)
        ballots = cast_votes(nodes, PARAMS)
        orders = [
            elect_witnesses(
                ballots, nodes, 6, 5, VotingMode.EQUAL_WEIGHT,
                np.random.default_rng(seed),
            ).active_order
            for seed in (7, 7, 8)
        ]
        assert orders[0] == orders[1]
        assert sorted(orders[0]) == sorted(orders[2])


class TestReputationParams:
    def test_default_ordering_holds(self):
        assert PARAMS.w_lead > PARAMS.w_verify > PARAMS.w_vote > 0

    def test_rejects_misordered_weights(self):
        with pytest.raises(ValueError):
            ReputationParams(w_vote=0.05, w_lead=0.005)
        with pytest.raises(ValueError):
            ReputationParams(theta=1.5)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["w_vote", "w_lead", "w_verify"])
    def test_rejects_infinite_weights(self, name, bad):
        # w_lead=inf passes the ordering and would turn reputations into nan
        with pytest.raises(ValueError, match=f"weight {name} must be finite"):
            ReputationParams(**{name: bad})


def single_round(nodes, committee, params=PARAMS):
    state = ConsensusState()
    voted = frozenset(b.voter_id for b in cast_votes(nodes, params))
    state.start_epoch(committee, voted)
    records = run_round(state, nodes, params)
    return state, {r.node_id: r for r in records}


class TestRoundDeltas:
    """Per-role reputation increments for a committee of four plus one outsider."""

    def test_successful_round_increments(self):
        nodes = make_nodes([0.5] * 5)
        _, recs = single_round(nodes, forced([0, 1, 2, 3], [0, 1], [2, 3]))
        assert recs[0].delta == PARAMS.w_vote + PARAMS.w_lead  # 0.055
        for witness in (1, 2, 3):
            assert recs[witness].delta == PARAMS.w_vote + PARAMS.w_verify  # 0.015
        assert recs[4].delta == PARAMS.w_vote  # 0.005
        assert recs[0].role == "leader"
        assert recs[1].role == "witness"
        assert recs[2].role == "standby"
        assert recs[4].role == "none"

    def test_clamp(self):
        # committee of seven: the block needs 5 > 14/3 of the 6 verifiers
        wrong = Behavior(votes=False, verifies_correctly=False)
        nodes = make_nodes([0.99, 0.01] + [0.5] * 6, behaviors={1: wrong})
        _, recs = single_round(nodes, forced(range(7), [0, 1], range(2, 7)))
        assert recs[0].beta == 1 and recs[0].delta == pytest.approx(0.055)
        assert recs[0].reputation == nodes[0].reputation == 1.0
        assert (recs[1].alpha, recs[1].gamma) == (-1, -1)
        assert recs[1].delta == pytest.approx(-0.015)
        assert recs[1].reputation == nodes[1].reputation == 0.0
        assert recs[2].reputation == pytest.approx(0.515)

    def test_invalid_block_rejected_and_leader_punished(self):
        nodes = make_nodes([0.5] * 5, behaviors={0: SABOTEUR})
        state, recs = single_round(nodes, forced([0, 1, 2, 3], [0, 1], [2, 3]))
        assert state.chain == []
        assert recs[0].alpha == -1 and recs[0].beta == -1
        assert recs[0].delta == -(PARAMS.w_vote + PARAMS.w_lead)  # -0.055
        # the committee correctly rejected, so verifiers still gain
        for witness in (1, 2, 3):
            assert recs[witness].delta == PARAMS.w_vote + PARAMS.w_verify

    def test_wrong_verifier_is_punished(self):
        nodes = make_nodes([0.5] * 5, behaviors={1: SABOTEUR})
        state, recs = single_round(nodes, forced([0, 1, 2, 3], [0, 1], [2, 3]))
        assert recs[1].gamma == -1
        assert recs[1].delta == -(PARAMS.w_vote + PARAMS.w_verify)  # -0.015
        # two of three confirmations is not strictly above 2/3 of four
        assert state.chain == []
        assert recs[0].beta == -1

    def test_two_thirds_threshold_is_strict(self):
        # Six members, five verifiers: all five confirming beats 4.0, but
        # exactly four (two thirds of six) does not, since the bar is strict.
        nodes = make_nodes([0.5] * 6)
        state, _ = single_round(nodes, forced(range(6), [0, 2], [1, 3]))
        assert len(state.chain) == 1
        assert state.chain[0].confirmations == 5
        nodes = make_nodes([0.5] * 6, behaviors={1: SABOTEUR})
        state, _ = single_round(nodes, forced(range(6), [0, 3], [1, 2]))
        assert state.chain == []

    def test_no_block_skips_round(self):
        lazy = Behavior(produces_block=False)
        nodes = make_nodes([0.5] * 5, behaviors={0: lazy})
        state, recs = single_round(nodes, forced([0, 1, 2, 3], [0, 1], [2, 3]))
        assert state.chain == []
        assert state.skipped == {0}
        assert recs[0].beta == -1
        # nothing was broadcast, so nobody verified anything
        assert all(recs[i].gamma == 0 for i in range(5))

    def test_a_round_before_any_election_is_refused(self):
        nodes = make_nodes([0.5, 0.7, 0.9])
        state = ConsensusState()
        with pytest.raises(RuntimeError, match="no committee elected"):
            run_round(state, nodes, PARAMS)
        assert [n.reputation for n in nodes] == [0.5, 0.7, 0.9]
        assert state == ConsensusState()

    def test_a_round_after_every_seat_has_led_is_refused(self):
        # node 0 holds two seats and makes no block: it leads at both
        nodes = make_nodes([0.5] * 4, behaviors={0: Behavior(produces_block=False)})
        state, _ = single_round(nodes, forced([0, 1, 2, 3], [0, 0, 1], [2, 3]))
        assert [run_round(state, nodes, PARAMS)[0].beta for _ in range(2)] == [-1, 0]
        reputations, chain = [n.reputation for n in nodes], list(state.chain)
        with pytest.raises(RuntimeError, match="leader order exhausted for this epoch"):
            run_round(state, nodes, PARAMS)
        assert [n.reputation for n in nodes] == reputations
        assert (state.chain, state.global_round, state.skipped) == (chain, 3, {0})

    @pytest.mark.parametrize("seated, message", [
        # -1 would index node 4 and make it lead; 99 would index past the nodes
        (forced([0, 1, 2, 3], [-1, 1], [2, 3]), "epoch 0 committee seats unknown id -1"),
        (forced([0, 1, 2, 3], [0, 99], [2, 3]), "epoch 0 committee seats unknown id 99"),
        (forced([0, True, 2, 3], [0, True], [2, 3]), "epoch 0 committee seats unknown id True"),
        (forced([0, 1, 2, 3], [0, 4], [1, 2, 3]), "epoch 0 leader 4 is not a committee member"),
        (forced([0, 1, 2, 3], [0, 1], [2, 4]), "epoch 0 standby 4 is not a committee member"),
        (("x",), "epoch 0 committee ('x',) is not a Committee"),
    ])
    def test_a_round_refuses_a_committee_a_schedule_would_refuse(self, seated, message):
        nodes = make_nodes([0.5] * 5)
        state = ConsensusState()
        state.start_epoch(seated, frozenset(range(5)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_round(state, nodes, PARAMS)
        assert [n.reputation for n in nodes] == [0.5] * 5
        assert (state.global_round, state.leader_cursor, state.chain) == (0, 0, [])


class TestEpochRuns:
    def test_no_two_round_columns_share_memory(self):
        nodes = make_nodes([0.5, 0.6, 0.7, 0.8, 0.9], behaviors={4: SABOTEUR})
        history = run_epochs(nodes, PARAMS, 4, 2, n_epochs=3, seed=1)
        columns = [column for _, _, *round_columns in history.rounds for column in round_columns]
        assert len(columns) == 3 * 2 * 3
        for i, column in enumerate(columns):
            assert not any(np.shares_memory(column, other) for other in columns[i + 1:])
        for _, _, reps, roles, deltas in history.rounds:
            assert (reps.dtype, roles.dtype, deltas.dtype) == (np.float64, np.int8, np.float64)
            assert reps.shape == roles.shape == deltas.shape == (5,)

    def test_a_second_run_leaves_the_first_history_unchanged(self):
        nodes = make_nodes([0.5, 0.6, 0.7, 0.8, 0.9], behaviors={4: SABOTEUR})
        first = run_epochs(nodes, PARAMS, 4, 2, n_epochs=2, seed=1)
        rows = first.rows
        columns = [[c.tobytes() for c in round_columns] for _, _, *round_columns in first.rounds]
        second = run_epochs(nodes, PARAMS, 4, 2, n_epochs=2, seed=1)
        assert second.rows != rows  # it starts from the reputations the first left
        assert first.rows == rows
        assert [[c.tobytes() for c in cs] for _, _, *cs in first.rounds] == columns

    def test_all_normal_chain_grows_every_round(self):
        nodes = make_nodes([0.5] * 8)
        history = run_epochs(nodes, PARAMS, committee_size=5, active_size=3,
                             n_epochs=4, seed=11)
        assert len(history.chain) == 4 * 3
        assert all(b.confirmations == 4 for b in history.chain)
        for node in nodes:
            rows = history.rows_for(node.id)
            reps = [r.reputation for r in rows]
            assert all(b >= a for a, b in zip(reps, reps[1:]))

    def test_zero_epochs_changes_nothing(self):
        nodes = make_nodes([0.3, 0.7])
        history = run_epochs(nodes, PARAMS, 2, 1, n_epochs=0, seed=0)
        assert history.rows == [] and history.chain == []
        assert [n.reputation for n in nodes] == [0.3, 0.7]

    def test_deterministic_under_seed(self):
        def run(seed):
            nodes = make_nodes([0.5] * 9, behaviors={8: ABNORMAL_BEHAVIOR})
            return run_epochs(nodes, PARAMS, 6, 4, n_epochs=3, seed=seed)

        a, b, c = run(5), run(5), run(6)
        assert a.rows == b.rows
        assert a.chain == b.chain
        orders = [m.active_order for m in a.committees]
        assert orders != [m.active_order for m in c.committees]

    def test_failed_leader_round_produces_no_block(self):
        nodes = make_nodes([0.5] * 5, behaviors={0: Behavior(produces_block=False)})
        schedule = [forced([0, 1, 2, 3], [0, 1], [2, 3])]
        history = run_epochs(nodes, PARAMS, 4, 2, n_epochs=1, seed=0,
                             committee_schedule=schedule)
        assert [b.producer_id for b in history.chain] == [1]
        assert [b.round_index for b in history.chain] == [1]

    def test_skip_resets_between_epochs(self):
        nodes = make_nodes([0.5] * 5, behaviors={0: Behavior(produces_block=False)})
        schedule = [forced([0, 1, 2, 3], [0, 1], [2, 3])] * 2
        history = run_epochs(nodes, PARAMS, 4, 2, n_epochs=2, seed=0,
                             committee_schedule=schedule)
        # round 2 is node 0 leading again in the second epoch, again with no block
        assert [r.round_index for r in history.rows_for(0) if r.role == "leader"] == [0, 2]
        assert [(b.round_index, b.producer_id) for b in history.chain] == [(1, 1), (3, 1)]

    def test_schedule_can_mix_forced_and_elected(self):
        nodes = make_nodes([0.5] * 6)
        schedule = [forced(range(4), [0, 1], [2, 3]), None]
        with kept_tallies() as tallies:
            history = run_epochs(nodes, PARAMS, 4, 2, n_epochs=2, seed=3,
                                 committee_schedule=schedule)
        # only the second epoch elects, on the reputations the first left
        assert history.committees[0] == schedule[0] and len(tallies) == 1
        check_tally(tallies[0], make_nodes(history.rounds[1][2].tolist()), weighted=True)
        assert len(history.committees[1].members) == 4

    def test_voting_result_tracks_rising_reputation(self):
        nodes = make_nodes([0.6] * 6)
        with kept_tallies() as tallies:
            run_epochs(nodes, PARAMS, 4, 2, n_epochs=3, seed=2,
                       mode=VotingMode.REPUTATION_WEIGHTED)
        totals = [sum(tally.tolist()) for tally in tallies]
        assert len(totals) == 3 and totals[0] < totals[1] < totals[2]

    def test_requires_dense_ids(self):
        nodes = [FullNode(id=3), FullNode(id=5)]
        with pytest.raises(ValueError, match="dense"):
            run_epochs(nodes, PARAMS, 2, 1, n_epochs=1)

    @pytest.mark.parametrize("ids", [(0, 2), (-1, 1)])
    def test_run_round_requires_dense_ids(self, ids):
        nodes = [FullNode(id=i) for i in ids]
        state = ConsensusState()
        state.start_epoch(forced([ids[0]], [ids[0]]), frozenset(ids))
        with pytest.raises(ValueError, match="dense"):
            run_round(state, nodes, PARAMS)
        assert [n.reputation for n in nodes] == [0.5, 0.5]

    @pytest.mark.parametrize("bad", [True, 1.0, np.int64(1)])
    def test_rows_for_refuses_an_id_that_is_not_an_int(self, bad):
        # each equals node 1, whose rows it would return under its own label
        history = run_epochs(make_nodes([0.6, 0.7, 0.8]), PARAMS, 2, 1, n_epochs=1)
        assert {r.node_id for r in history.rows_for(1)} == {1}
        with pytest.raises(ValueError, match=re.escape(f"node id {bad!r} is not an int")):
            history.rows_for(bad)

    def test_rejects_negative_epochs(self):
        nodes = make_nodes([0.3, 0.7])
        with pytest.raises(ValueError, match="n_epochs"):
            run_epochs(nodes, PARAMS, 2, 1, n_epochs=-1)
        assert [n.reputation for n in nodes] == [0.3, 0.7]

    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize(
        "committee, active", [(3, 4), (5, 2), (2, 0), (0, 0), (2, -1)]
    )
    def test_rejects_bad_sizes_even_without_epochs(self, epochs, committee, active):
        # checked up front, not only inside elect_witnesses, so a run that
        # elects nothing (zero epochs, or a forced schedule) still refuses
        nodes = make_nodes([0.3, 0.5, 0.7, 0.9])
        with pytest.raises(ValueError, match="active_size <= committee_size"):
            run_epochs(nodes, PARAMS, committee, active, n_epochs=epochs)
        assert [n.reputation for n in nodes] == [0.3, 0.5, 0.7, 0.9]

    def test_rejects_bad_sizes_with_forced_schedule(self):
        nodes = make_nodes([0.5] * 5)
        schedule = [forced([0, 1, 2, 3], [0, 1], [2, 3])]
        with pytest.raises(ValueError, match="active_size <= committee_size"):
            run_epochs(nodes, PARAMS, 6, 2, n_epochs=1, committee_schedule=schedule)

    def test_rejects_short_schedule_before_any_epoch(self):
        nodes = make_nodes([0.3, 0.5, 0.7, 0.9, 0.6])
        schedule = [forced([0, 1, 2, 3], [0, 1], [2, 3]), None]
        with pytest.raises(ValueError, match="2 entries for 3 epochs"):
            run_epochs(nodes, PARAMS, 4, 2, n_epochs=3, committee_schedule=schedule)
        assert [n.reputation for n in nodes] == [0.3, 0.5, 0.7, 0.9, 0.6]

    @pytest.mark.parametrize("seated", [
        forced([0, 1, 2, 5], [0, 1], [2, 5]),  # a member
        forced([0, 1, 2, 3], [0, 1], [2, -1]),  # a standby
        # ids that are not exactly ints: 1.0 and True equal ids of the population
        forced([0, 1.0, 2, 3], [0, 1.0], [2, 3]),
        forced([0, True, 2, 3], [0, True], [2, 3]),
        forced([0, 1, 2, 3], [0, 1], [2, np.int64(3)]),
    ])
    def test_rejects_schedule_seating_unknown_id(self, seated):
        nodes = make_nodes([0.3, 0.5, 0.7, 0.9, 0.6])
        schedule = [forced([0, 1, 2, 3], [0, 1], [2, 3]), seated]
        with pytest.raises(ValueError, match="epoch 1 committee seats unknown id"):
            run_epochs(nodes, PARAMS, 4, 2, n_epochs=2, committee_schedule=schedule)
        assert [n.reputation for n in nodes] == [0.3, 0.5, 0.7, 0.9, 0.6]

    @pytest.mark.parametrize("entry", [("x",), [0, 1], "abc", 3])
    def test_rejects_a_schedule_entry_that_is_not_a_committee(self, entry):
        nodes = make_nodes([0.3, 0.5, 0.7, 0.9, 0.6])
        schedule = [None, entry]
        message = f"^epoch 1 committee {re.escape(repr(entry))} is not a Committee$"
        with pytest.raises(ValueError, match=message):
            run_epochs(nodes, PARAMS, 4, 2, n_epochs=2, committee_schedule=schedule)
        assert [n.reputation for n in nodes] == [0.3, 0.5, 0.7, 0.9, 0.6]

    def test_rejects_schedule_leader_outside_members(self):
        nodes = make_nodes([0.3, 0.5, 0.7, 0.9, 0.6])
        schedule = [None, forced([0, 1, 2], [0, 3], [1, 2])]
        with pytest.raises(ValueError, match="epoch 1 leader 3 is not a committee member"):
            run_epochs(nodes, PARAMS, 3, 2, n_epochs=2, committee_schedule=schedule)
        assert [n.reputation for n in nodes] == [0.3, 0.5, 0.7, 0.9, 0.6]

    def test_rejects_schedule_standby_outside_members(self):
        # node 5 was recorded as standby, though it holds no seat
        nodes = [FullNode(id=i) for i in range(6)]
        schedule = [Committee((0, 1, 2), (0,), (5,))]
        with pytest.raises(ValueError, match="^epoch 0 standby 5 is not a committee member$"):
            run_epochs(nodes, ReputationParams(), 3, 1, 1, committee_schedule=schedule)
        assert [n.reputation for n in nodes] == [0.5] * 6

    def test_schedule_may_repeat_member_ids(self):
        nodes = make_nodes([0.5] * 4)
        schedule = [forced([0, 0, 1], [0, 1], [0])]
        history = run_epochs(nodes, PARAMS, 3, 2, n_epochs=1, committee_schedule=schedule)
        assert len(history.rounds) == 2

    @pytest.mark.parametrize("mode", ["reputation", "equal", None, 0])
    def test_rejects_a_mode_that_is_not_a_voting_mode(self, mode):
        nodes = make_nodes([0.3, 0.5, 0.7])
        with pytest.raises(ValueError, match="not a VotingMode"):
            run_epochs(nodes, PARAMS, 2, 1, n_epochs=2, mode=mode)
        assert [n.reputation for n in nodes] == [0.3, 0.5, 0.7]

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), -1e-9, 1.0 + 1e-9])
    def test_rejects_reputation_outside_unit_interval(self, bad):
        nodes = make_nodes([0.5, 0.6, bad])
        with pytest.raises(ValueError, match="reputation"):
            run_epochs(nodes, PARAMS, 2, 1, n_epochs=1)


class TestSeating:
    """An election's tally, and the committee ``_seat`` ranks from it."""

    def test_tally_is_the_ballot_by_ballot_count(self):
        nodes = make_nodes([0.9, 0.8, 0.1, 0.7], behaviors={2: ABNORMAL_BEHAVIOR})
        with kept_tallies() as tallies:
            elect_witnesses(cast_votes(nodes, PARAMS), nodes, 3, 2,
                            VotingMode.REPUTATION_WEIGHTED, np.random.default_rng(0))
        wanted = [0.8 + 0.7, 0.9 + 0.7, 0.0, 0.9 + 0.8]
        assert [x.hex() for x in tallies[0].tolist()] == [x.hex() for x in wanted]
        check_tally(tallies[0], nodes, weighted=True)

    def test_seat_arrays_hold_the_committees_ids(self):
        tally = np.array([1.5, 0.25, 0.0, 3.0, 0.25])
        committee, seated = _seat(tally, 4, 2, np.random.default_rng(0))
        assert committee.members == (3, 0, 1, 4)
        assert tuple(tuple(ids.tolist()) for ids in seated) == (
            committee.members, committee.active_order, committee.standby
        )
        assert all(ids.dtype == np.intp for ids in seated)


def call_run_epochs(nodes):
    run_epochs(nodes, PARAMS, 2, 1, n_epochs=1)


def call_elect_witnesses(nodes):
    elect_witnesses([], nodes, 2, 1, VotingMode.EQUAL_WEIGHT, np.random.default_rng(0))


def call_run_round(nodes):
    state = ConsensusState()
    state.start_epoch(forced([nodes[0].id], [nodes[0].id]), frozenset())
    run_round(state, nodes, PARAMS)


NODE_READERS = [call_run_epochs, call_elect_witnesses, call_run_round]


@pytest.mark.parametrize("read", NODE_READERS)
@pytest.mark.parametrize("ids", [(0, 2, 3, 4), (0, 1, 1, 3), (0, 1, 2, -1), (0, 1, 2, 100),
                                 (0, 1, 2, 2**70)],
                         ids=["gap", "duplicate", "negative", "too large", "beyond int64"])
def test_every_node_reader_requires_dense_ids(read, ids):
    # a negative id would wrap around if it were used as an index unchecked
    nodes = [FullNode(id=i, reputation=0.25 * k, behavior=SABOTEUR if k % 2 else Behavior())
             for k, i in enumerate(ids)]
    before = repr(nodes)
    with pytest.raises(ValueError, match=r"^node ids must be dense 0\.\.n-1$"):
        read(nodes)
    assert repr(nodes) == before


@pytest.mark.parametrize("read", NODE_READERS)
@pytest.mark.parametrize("bad", [True, 1.0, np.int64(1)], ids=["bool", "float", "numpy"])
def test_every_node_reader_requires_int_ids(read, bad):
    # each equals 1, so the dense-ids check alone passes it; a bool id
    # would be written into the history rows as True
    nodes = [FullNode(id=i, reputation=0.5) for i in (0, bad, 2, 3)]
    before = repr(nodes)
    message = f"^node at position 1 has id {re.escape(repr(bad))}, not an int$"
    with pytest.raises(ValueError, match=message):
        read(nodes)
    assert repr(nodes) == before


@pytest.mark.parametrize("read", NODE_READERS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e-9, 1.0 + 1e-9])
def test_every_node_reader_names_the_first_bad_reputation(read, bad):
    # nodes 1 and 0 are both bad; node 1 comes first in node order
    reputations = {3: 0.5, 1: bad, 0: -0.5, 2: 0.75}
    nodes = [FullNode(id=i, reputation=reputations[i]) for i in (3, 1, 0, 2)]
    before = repr(nodes)
    message = f"^node 1 reputation {re.escape(repr(bad))} is not in \\[0, 1\\]$"
    with pytest.raises(ValueError, match=message):
        read(nodes)
    assert repr(nodes) == before


class TestTrajectories:
    def test_two_epochs_voter_then_leader(self):
        """A node voting through one epoch and leading once in the next ends
        at 0.5 + 10*0.005 + 9*0.015 + 0.055 = 0.74."""
        nodes = make_nodes([0.5] * 12)
        outside = forced(members=range(1, 12), active_order=range(1, 11),
                         standby=[11])
        last_leader = forced(members=range(0, 11),
                             active_order=list(range(1, 10)) + [0],
                             standby=[10])
        history = run_epochs(nodes, PARAMS, 11, 10, n_epochs=2, seed=0,
                             committee_schedule=[outside, last_leader])
        rows = history.rows_for(0)
        assert rows[9].reputation == pytest.approx(0.55, abs=1e-12)
        assert rows[-1].role == "leader"
        assert rows[-1].reputation == pytest.approx(0.74, abs=1e-12)

    def test_abstaining_outsider_decays_to_floor(self):
        quiet = Behavior(votes=False)
        nodes = make_nodes([0.52] * 5 + [0.03], behaviors={5: quiet})
        schedule = [forced([0, 1, 2, 3], [0, 1, 2, 3], [])] * 3
        history = run_epochs(nodes, PARAMS, 4, 4, n_epochs=3, seed=0,
                             committee_schedule=schedule)
        reps = [r.reputation for r in history.rows_for(5)]
        assert reps[:6] == pytest.approx(
            [0.025, 0.02, 0.015, 0.01, 0.005, 0.0], abs=1e-12
        )
        assert all(r == 0.0 for r in reps[6:])


@settings(max_examples=60)
@given(
    reps=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=10),
    flags=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
                   min_size=4, max_size=10),
    seed=st.integers(0, 2**31 - 1),
)
def test_reputation_stays_in_unit_interval(reps, flags, seed):
    n = min(len(reps), len(flags))
    nodes = [
        FullNode(
            id=i,
            reputation=reps[i],
            behavior=Behavior(
                votes=flags[i][0],
                produces_valid_block=flags[i][1],
                verifies_correctly=flags[i][2],
            ),
        )
        for i in range(n)
    ]
    history = run_epochs(nodes, PARAMS, committee_size=min(4, n),
                         active_size=2, n_epochs=2, seed=seed)
    assert all(0.0 <= row.reputation <= 1.0 for row in history.rows)


def test_history_csv_layout(tmp_path):
    nodes = make_nodes([0.5] * 5)
    history = run_epochs(nodes, PARAMS, 4, 2, n_epochs=1, seed=4)
    out = tmp_path / "history.csv"
    write_history_csv(history, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 5
    assert rows[0].keys() == {"epoch", "round", "node_id", "reputation",
                              "role", "delta"}
    parsed = [float(r["reputation"]) for r in rows]
    wanted = [r.reputation for r in history.rows]
    assert parsed == wanted


@pytest.mark.parametrize("n", [-1, 5.0, True, "5", np.int64(-2)])
def test_sample_population_rejects_a_bad_size(n):
    with pytest.raises(ValueError, match=f"^population size {re.escape(repr(n))} is not"):
        sample_population(n, 0.2, np.random.default_rng(0))


def test_sample_population_takes_numpy_and_zero_sizes():
    assert len(sample_population(np.int64(3), 0.5, np.random.default_rng(0))) == 3
    assert sample_population(0, 0.5, np.random.default_rng(0)) == []


def population():
    return sample_population(20, 0.2, np.random.default_rng(0))


@pytest.mark.parametrize("committee, active", [
    (True, 1), (5, True), (5.0, 2), (5, 2.0), ("5", 2), (None, 2), (np.float64(5), 2),
], ids=["bool committee", "bool active", "float committee", "float active", "str", "None",
        "numpy float"])
def test_sizes_that_are_not_integers_are_refused(committee, active):
    nodes = population()
    before = [n.reputation for n in nodes]
    with pytest.raises(ValueError, match=r"_size .* is not an integer"):
        run_epochs(nodes, PARAMS, committee, active, 2)
    with pytest.raises(ValueError, match=r"_size .* is not an integer"):
        elect_witnesses(cast_votes(nodes, PARAMS), nodes, committee, active,
                        VotingMode.EQUAL_WEIGHT, np.random.default_rng(0))
    assert [n.reputation for n in nodes] == before


@pytest.mark.parametrize("epochs", [True, False, 2.0, "2", None])
def test_epoch_counts_that_are_not_integers_are_refused(epochs):
    nodes = population()
    before = [n.reputation for n in nodes]
    with pytest.raises(ValueError, match=f"^n_epochs {re.escape(repr(epochs))} is not an integer"):
        run_epochs(nodes, PARAMS, 5, 2, epochs)
    assert [n.reputation for n in nodes] == before


def test_numpy_integer_sizes_and_counts_run_as_ints():
    runs = [
        run_epochs(population(), PARAMS, *sizes, seed=3)
        for sizes in ((5, 2, 3), (np.int64(5), np.int32(2), np.uint8(3)))
    ]
    assert runs[0].rows == runs[1].rows
    assert runs[0].chain == runs[1].chain
    assert runs[0].committees == runs[1].committees
