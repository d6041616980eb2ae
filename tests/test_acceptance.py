"""Release gate: the ten properties this package promises, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines;
without ``-s`` the lines are captured but the assertions still enforce the
gate. Tests that state a runtime ceiling assert it.
"""

import hashlib
import io
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trafficmarket.auction import (
    brute_force_optimum,
    greedy_heuristic,
    tbsap,
)
from trafficmarket.cli import main as cli_main
from trafficmarket.consensus import (
    Behavior,
    Committee,
    ConsensusState,
    FullNode,
    ReputationParams,
    cast_votes,
    run_round,
)
from trafficmarket.crypto import HashStubScheme
from trafficmarket.experiments import (
    bid_payment_rows,
    profit_vs_budget_rows,
    rnw_vs_rafn_rows,
)
from trafficmarket.model import coverage_value, paper_example
from trafficmarket.trading import (
    MessageKind,
    ProtocolError,
    SessionState,
    build_world,
    pay_winner,
    run_trading_round,
    verify_message,
)

from conftest import random_synthetic_instance
from oracles import marginal_gain

EPS = 1e-9  # float-roundoff guard, not a semantic tolerance


@contextmanager
def gate(num, name, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {num:02d} {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {num:02d} {name} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_01_worked_example_regression():
    with gate(1, "worked-example regression", limit=1.0):
        instance = paper_example()

        greedy = greedy_heuristic(instance)
        assert greedy.winners == (0, 1)
        assert marginal_gain(0, [], instance).unit_gain == 4.5
        assert marginal_gain(1, [], instance).unit_gain == 4.0

        # Overbidding by 0.5 pays off under paid-bid pricing but not under
        # critical-payment pricing; vehicle 1's true cost is 2.
        cost = instance.vehicle(1).true_cost
        deviated = instance.with_bid(1, cost + 0.5)

        honest_greedy = greedy.payments[1] - cost
        shaded_greedy = greedy_heuristic(deviated).payments[1] - cost
        assert shaded_greedy > honest_greedy

        truthful = tbsap(instance)
        assert truthful.payments == {0: 2.0, 1: 3.0}
        honest = truthful.payments[1] - cost
        after = tbsap(deviated)
        deviated_utility = after.payments[1] - cost if 1 in after.winners else 0.0
        assert deviated_utility <= honest


def test_02_mechanism_property_suite():
    with gate(2, "truthful-mechanism properties, 1000 instances", limit=120.0):
        rng = np.random.default_rng(2024)
        winners_checked = 0
        for _ in range(1000):
            instance = random_synthetic_instance(rng, max_n=50, max_m=100)
            outcome = tbsap(instance)

            # winner bids fit the budget
            assert outcome.total_bid <= instance.budget

            prefix = []
            for vid in outcome.winners:
                bid = instance.vehicle(vid).bid
                payment = outcome.payments[vid]

                # individual rationality
                assert payment >= bid

                # the buyer never pays more than the value the winner added
                added = coverage_value(prefix + [vid], instance) - coverage_value(
                    prefix, instance
                )
                assert payment <= added + EPS
                prefix.append(vid)

                # monotone allocation: bidding just under the payment keeps
                # the seat, just over it loses the seat
                if payment - 1e-3 > 0:
                    lowered = tbsap(instance.with_bid(vid, payment - 1e-3))
                    assert vid in lowered.winners
                raised = tbsap(instance.with_bid(vid, payment + 1e-3))
                assert vid not in raised.winners
                winners_checked += 1

            # no profitable misreport against the truthful payment
            truthful_utility = {
                v.id: outcome.payments[v.id] - v.true_cost
                if v.id in outcome.winners
                else 0.0
                for v in instance.vehicles
            }
            for _ in range(3):
                v = instance.vehicles[int(rng.integers(len(instance.vehicles)))]
                lie = float(v.bid * rng.uniform(0.1, 3.0))
                shifted = tbsap(instance.with_bid(v.id, lie))
                utility = (
                    shifted.payments[v.id] - v.true_cost
                    if v.id in shifted.winners
                    else 0.0
                )
                assert utility <= truthful_utility[v.id] + EPS
        assert winners_checked >= 1000


def test_03_heuristic_never_beats_exhaustive_search():
    with gate(3, "greedy vs exhaustive optimum, 200 instances", limit=60.0):
        rng = np.random.default_rng(77)
        for _ in range(200):
            instance = random_synthetic_instance(rng, max_n=12, max_m=20)
            greedy = greedy_heuristic(instance)
            best = brute_force_optimum(instance)
            assert greedy.profit <= best.profit + EPS
            assert greedy.total_bid <= instance.budget
            assert best.total_bid <= instance.budget


def test_04_diminishing_returns():
    with gate(4, "diminishing marginal returns, 10000 samples"):
        rng = np.random.default_rng(4)
        done = 0
        while done < 10000:
            instance = random_synthetic_instance(rng, max_n=20, max_m=30)
            ids = [v.id for v in instance.vehicles]
            if len(ids) < 2:
                continue
            rng.shuffle(ids)
            cut_x = int(rng.integers(0, len(ids)))
            cut_y = int(rng.integers(cut_x, len(ids)))
            smaller, larger, rest = ids[:cut_x], ids[:cut_y], ids[cut_y:]
            if not rest:
                continue
            v = rest[0]
            cover_small = coverage_value(smaller + [v], instance) - coverage_value(
                smaller, instance
            )
            cover_large = coverage_value(larger + [v], instance) - coverage_value(
                larger, instance
            )
            assert cover_large <= cover_small + EPS
            assert (
                marginal_gain(v, larger, instance).gain
                <= marginal_gain(v, smaller, instance).gain + EPS
            )
            done += 1


def _forced(members, active, standby=()):
    return Committee(
        members=tuple(members),
        active_order=tuple(active),
        standby=tuple(standby),
    )


def _one_round(nodes, committee, params):
    state = ConsensusState()
    voted = frozenset(b.voter_id for b in cast_votes(nodes, params))
    state.start_epoch(committee, voted)
    return {r.node_id: r for r in run_round(state, nodes, params)}


def test_05_reputation_deltas_and_clamping():
    with gate(5, "per-role reputation deltas, exact", limit=1.0):
        params = ReputationParams()
        saboteur = Behavior(
            votes=False,
            supports_low_reputation=True,
            produces_valid_block=False,
            verifies_correctly=False,
        )

        recs = _one_round(
            [FullNode(id=i, reputation=0.5) for i in range(5)],
            _forced([0, 1, 2, 3], [0, 1], [2, 3]),
            params,
        )
        assert recs[0].delta == params.w_vote + params.w_lead  # +0.055
        assert recs[1].delta == params.w_vote + params.w_verify  # +0.015
        assert recs[4].delta == params.w_vote  # +0.005

        nodes = [
            FullNode(
                id=i,
                reputation=0.5,
                behavior=saboteur if i == 0 else Behavior(),
            )
            for i in range(5)
        ]
        recs = _one_round(nodes, _forced([0, 1, 2, 3], [0, 1], [2, 3]), params)
        assert recs[0].delta == -(params.w_vote + params.w_lead)  # -0.055

        nodes = [
            FullNode(
                id=i,
                reputation=0.5,
                behavior=saboteur if i == 1 else Behavior(),
            )
            for i in range(5)
        ]
        recs = _one_round(nodes, _forced([0, 1, 2, 3], [0, 1], [2, 3]), params)
        assert recs[1].delta == -(params.w_vote + params.w_verify)  # -0.015

        # ceiling and floor both bind
        nodes = [FullNode(id=0, reputation=0.98)] + [
            FullNode(id=i, reputation=0.5) for i in range(1, 5)
        ]
        nodes.append(FullNode(id=5, reputation=0.003, behavior=saboteur))
        recs = _one_round(nodes, _forced([0, 1, 2, 3], [0, 1], [2, 3]), params)
        assert recs[0].reputation == 1.0
        assert recs[5].reputation == 0.0


def test_06_committee_reliability_under_attack():
    with gate(6, "reputation voting beats equal voting, 100 seeds", limit=120.0):
        sums = {}
        counts = {}
        ideals = {}
        n_seeds = 100
        for seed in range(n_seeds):
            for rafn, mode, rnw, ideal in rnw_vs_rafn_rows(seed):
                key = (round(rafn, 2), mode)
                sums[key] = sums.get(key, 0.0) + rnw
                counts[key] = counts.get(key, 0) + 1
                ideals[round(rafn, 2)] = ideal
        means = {k: s / counts[k] for k, s in sums.items()}

        grid = sorted(ideals)
        assert all(counts[(r, m)] == n_seeds for r in grid
                   for m in ("reputation", "equal"))
        for rafn in grid:
            if 0.5 <= rafn <= 0.75:
                assert means[(rafn, "reputation")] >= means[(rafn, "equal")], rafn
            if rafn < 0.5:
                assert abs(means[(rafn, "reputation")] - ideals[rafn]) <= 0.05, rafn


def test_07_profit_ordering_and_monotonicity():
    with gate(7, "profit curves: truthful <= greedy, greedy monotone", limit=300.0):
        for seed in range(5):
            rows = profit_vs_budget_rows(seed)
            greedy_profit = {}
            tbsap_profit = {}
            for count, budget, mechanism, profit, _ in rows:
                target = greedy_profit if mechanism == "greedy" else tbsap_profit
                target[(count, budget)] = profit
            assert set(greedy_profit) == set(tbsap_profit)
            for point, profit in tbsap_profit.items():
                assert profit <= greedy_profit[point] + EPS, point
            for count in {c for c, _ in greedy_profit}:
                budgets = sorted(b for c, b in greedy_profit if c == count)
                series = [greedy_profit[(count, b)] for b in budgets]
                for lo, hi in zip(series, series[1:]):
                    assert hi >= lo - EPS, (seed, count)


def test_08_payment_dominance_and_density_effect():
    with gate(8, "payment >= bid; denser markets bid lower, 50 seeds"):
        bids = {500: [], 1000: []}
        for seed in range(50):
            for count, _, bid, payment in bid_payment_rows(seed):
                assert payment >= bid
                bids[count].append(bid)
        assert bids[500] and bids[1000]
        mean_sparse = sum(bids[500]) / len(bids[500])
        mean_dense = sum(bids[1000]) / len(bids[1000])
        assert mean_dense <= mean_sparse


def test_09_trading_round_integrity():
    with gate(9, "trading round: confirmations, conservation, exclusion"):
        instance = paper_example()

        world = build_world(instance, HashStubScheme(), seed=7)
        start = world.total_balance()
        result = run_trading_round(world, instance)
        confirmed = [
            s for s in result.sessions.values()
            if s.state is SessionState.CONFIRMED
        ]
        assert len(confirmed) == 2
        assert world.total_balance() == start  # exact Fraction arithmetic

        # replayed delivery is refused, and the session cannot pay twice
        session = result.sessions[0]
        delivery = next(
            m for m in session.transcript if m.kind is MessageKind.DATA
        )
        plaintext, reason = verify_message(
            world,
            delivery,
            world.vehicles[0].certificate,
            world.authority.keys.private,
            session.last_timestamp,
        )
        assert plaintext is None and reason == "stale timestamp"
        paid_before = world.vehicles[0].account.balance
        with pytest.raises(ProtocolError):
            pay_winner(world, session, Fraction(2))
        assert world.vehicles[0].account.balance == paid_before

        # a corrupted request signature excludes that vehicle; the round
        # still completes for everyone else
        world = build_world(
            instance, HashStubScheme(), seed=7, authority_balance=Fraction(50)
        )
        start = world.total_balance()

        def forge(message):
            if message.kind is MessageKind.REQUEST and message.sender == "vehicle-0":
                return replace(message, signature=bytes(len(message.signature)))
            return message

        result = run_trading_round(world, instance, tamper=forge)
        assert result.excluded == frozenset({0})
        assert result.sessions[0].failure == "request: bad signature"
        assert result.sessions[1].state is SessionState.CONFIRMED
        assert result.sessions[2].state is SessionState.CONFIRMED
        assert result.block is not None
        assert world.total_balance() == start


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _invocation_digest(argv, out_paths):
    digest = hashlib.sha256(_run_cli(argv).encode())
    for path in out_paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def test_10_cli_determinism(tmp_path):
    with gate(10, "CLI: every subcommand is run-to-run identical"):
        def invocations(base: Path):
            scn = base / "scn.json"
            return [
                (["gen", "--seed", "3", "--n-tasks", "12", "--n-vehicles",
                  "40", "--budget", "20", "--city-side", "400",
                  "--out", str(scn)], [scn]),
                (["auction", "--scenario", "paper-example", "--mechanism",
                  "tbsap", "--out", str(base / "outcome.csv")],
                 [base / "outcome.csv"]),
                (["consensus", "--nodes", "30", "--committee", "12",
                  "--active", "4", "--epochs", "2", "--abnormal-frac", "0.2",
                  "--seed", "5", "--out", str(base / "hist.csv")],
                 [base / "hist.csv"]),
                (["trade", "--scenario", "paper-example", "--scheme", "real",
                  "--out", str(base / "ledger.csv")], [base / "ledger.csv"]),
                (["experiment", "rnw-vs-rafn", "--seed", "7", "--nodes", "20",
                  "--committee", "10", "--active", "2", "--grid", "0.0,0.4",
                  "--out-dir", str(base / "res")],
                 [base / "res" / "rnw-vs-rafn" / "7.csv"]),
            ]

        # identical argv both times, outputs overwritten in place: any
        # nondeterminism shows up as a digest mismatch
        plan = invocations(tmp_path)
        first = [_invocation_digest(argv, outs) for argv, outs in plan]
        second = [_invocation_digest(argv, outs) for argv, outs in plan]
        assert first == second
