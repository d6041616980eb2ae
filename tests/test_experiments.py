"""Tests for the bundled studies: shapes, invariants, and file output."""

from statistics import fmean

import pytest

from trafficmarket.auction import tbsap
from trafficmarket.experiments import (
    BUDGET_GRID,
    HOSTILE_FRACTION_GRID,
    allowed_params,
    bid_payment_rows,
    ideal_normal_fraction,
    profit_vs_budget_rows,
    reputation_trajectory,
    rnw_vs_rafn_rows,
    run_experiment,
    trajectory_rows,
)
from trafficmarket.model import ScenarioConfig, generate_scenario

from oracles import MetricRow, aggregate_metric

# small, fast stand-ins for the full sweeps
SMALL_PROFIT = dict(budgets=(10.0, 25.0, 50.0), vehicle_counts=(60, 120), n_tasks=30)
SMALL_SCATTER = dict(budget=25.0, vehicle_counts=(60, 120), n_tasks=30)
SMALL_RNW = dict(population=20, committee_size=10, active_size=2, grid=(0.0, 0.3, 0.6))

# reputation checkpoints at each epoch boundary for the two tracked nodes
TRAJECTORY_NORMAL_WAYPOINTS = (0.55, 0.74, 0.93, 1.0, 1.0)
TRAJECTORY_ABNORMAL_WAYPOINTS = (0.45, 0.40, 0.21, 0.02, 0.0)


class TestTrajectory:
    def test_waypoints_hit_exactly(self):
        rows = trajectory_rows(0)
        assert len(rows) == 50
        assert [r[0] for r in rows] == list(range(50))
        for epoch, (normal, hostile) in enumerate(
            zip(TRAJECTORY_NORMAL_WAYPOINTS, TRAJECTORY_ABNORMAL_WAYPOINTS)
        ):
            boundary = rows[10 * epoch + 9]
            assert boundary[1] == pytest.approx(normal, abs=1e-12)
            assert boundary[2] == pytest.approx(hostile, abs=1e-12)

    def test_every_scripted_delta_appears(self):
        history = reputation_trajectory(0)
        deltas_normal = {
            round(r.delta, 6) for r in history.rows_for(0)
        }
        deltas_hostile = {
            round(r.delta, 6) for r in history.rows_for(1)
        }
        assert {0.005, 0.015, 0.055} <= deltas_normal
        assert {-0.005, -0.015, -0.055} <= deltas_hostile

    def test_clamps_at_both_ends(self):
        rows = trajectory_rows(0)
        assert rows[-1][1] == 1.0
        assert rows[-1][2] == 0.0
        assert all(0.0 <= r[1] <= 1.0 and 0.0 <= r[2] <= 1.0 for r in rows)

    def test_schedule_pinned_so_seed_is_cosmetic(self):
        assert trajectory_rows(0) == trajectory_rows(99)


class TestRnwVsRafn:
    def test_shape_and_ranges(self):
        rows = rnw_vs_rafn_rows(3)
        assert len(rows) == 2 * len(HOSTILE_FRACTION_GRID)
        for rafn, mode, rnw, ideal in rows:
            assert mode in ("reputation", "equal")
            assert 0.0 <= rnw <= 1.0
            assert ideal == ideal_normal_fraction(100, 70, rafn)

    def test_no_hostiles_means_full_committee(self):
        rows = [r for r in rnw_vs_rafn_rows(1) if r[0] == 0.0]
        assert all(r[2] == 1.0 for r in rows)

    def test_weighted_voting_survives_majority_attack(self):
        # averaged over a few seeds at a 0.6 hostile share the weighted
        # ballot keeps its seats, the unweighted one loses them
        weighted, equal = [], []
        for seed in range(5):
            for rafn, mode, rnw, _ in rnw_vs_rafn_rows(seed, grid=(0.6,)):
                (weighted if mode == "reputation" else equal).append(rnw)
        assert fmean(weighted) > fmean(equal)

    def test_ideal_formula(self):
        assert ideal_normal_fraction(100, 70, 0.0) == 1.0
        assert ideal_normal_fraction(100, 70, 0.6) == pytest.approx(4 / 7)
        assert ideal_normal_fraction(100, 70, 0.95) == pytest.approx(5 / 70)


class TestProfitVsBudget:
    def test_rows_cover_the_grid(self):
        rows = profit_vs_budget_rows(0, **SMALL_PROFIT)
        assert len(rows) == 2 * 3 * 2
        seen = {(r[0], r[1], r[2]) for r in rows}
        assert (60, 10.0, "greedy") in seen and (120, 50.0, "tbsap") in seen

    def test_truthful_never_beats_heuristic(self):
        rows = profit_vs_budget_rows(1, **SMALL_PROFIT)
        by_key = {(r[0], r[1], r[2]): r[3] for r in rows}
        for count in SMALL_PROFIT["vehicle_counts"]:
            for budget in SMALL_PROFIT["budgets"]:
                assert (
                    by_key[(count, budget, "tbsap")]
                    <= by_key[(count, budget, "greedy")] + 1e-9
                )

    def test_heuristic_profit_monotone_in_budget(self):
        rows = profit_vs_budget_rows(2, **SMALL_PROFIT)
        for count in SMALL_PROFIT["vehicle_counts"]:
            profits = [r[3] for r in rows if r[0] == count and r[2] == "greedy"]
            assert all(b >= a - 1e-12 for a, b in zip(profits, profits[1:]))

    def test_paired_instances_share_the_seed_prefix(self):
        small = generate_scenario(
            ScenarioConfig(n_tasks=30, n_vehicles=60, budget=10.0, rng_seed=5)
        )
        large = generate_scenario(
            ScenarioConfig(n_tasks=30, n_vehicles=120, budget=10.0, rng_seed=5)
        )
        descriptors = {
            (v.x, v.y, v.detection_distance, v.true_cost) for v in small.vehicles
        }
        larger = {
            (v.x, v.y, v.detection_distance, v.true_cost) for v in large.vehicles
        }
        assert descriptors <= larger


class TestBidPaymentScatter:
    def test_payment_dominates_bid(self):
        rows = bid_payment_rows(0, **SMALL_SCATTER)
        assert rows
        for _, _, bid, payment in rows:
            assert payment >= bid - 1e-9

    def test_rows_match_mechanism_output(self):
        rows = bid_payment_rows(4, **SMALL_SCATTER)
        config = ScenarioConfig(n_tasks=30, n_vehicles=60, budget=25.0, rng_seed=4)
        outcome = tbsap(generate_scenario(config))
        emitted = {(r[1], r[3]) for r in rows if r[0] == 60}
        assert emitted == {(w, outcome.payments[w]) for w in outcome.winners}


class TestMetricAggregation:
    def test_mean_matches_values(self):
        per_trial = [rnw_vs_rafn_rows(s, **SMALL_RNW) for s in range(3)]
        metrics = aggregate_metric(per_trial, sweep_index=0, label_index=1,
                                   value_index=2)
        assert len(metrics) == 3 * 2
        for row in metrics:
            assert row.mean == pytest.approx(fmean(row.values))
            assert len(row.values) == 3

    def test_from_values_computes_mean(self):
        row = MetricRow.from_values(0.5, "rnw", (1.0, 0.0, 0.5))
        assert row.mean == 0.5


class TestSpecAndRunner:
    def test_run_experiment_validation(self, tmp_path):
        with pytest.raises(ValueError, match="trials"):
            run_experiment("trajectory", [], tmp_path)
        with pytest.raises(ValueError, match="nonempty"):
            run_experiment("rnw-vs-rafn", [0], tmp_path, params={"grid": ()})
        with pytest.raises(ValueError, match="does not apply"):
            run_experiment("trajectory", [0], tmp_path, params={"grid": (0.5,)})
        assert not any(tmp_path.iterdir())

    def test_overrides_are_row_function_keywords(self):
        assert allowed_params("trajectory") == ()
        assert allowed_params("rnw-vs-rafn") == (
            "population", "committee_size", "active_size", "grid"
        )
        assert allowed_params("profit-vs-budget") == ("budgets", "vehicle_counts", "n_tasks")
        assert allowed_params("bid-payment") == ("budget", "vehicle_counts", "n_tasks")

    def test_runner_writes_deterministic_csv(self, tmp_path):
        paths = run_experiment("rnw-vs-rafn", [0, 1], tmp_path, params=SMALL_RNW)
        assert [p.name for p in paths] == ["0.csv", "1.csv"]
        assert paths[0].parent.name == "rnw-vs-rafn"
        first = paths[0].read_bytes()
        assert first.startswith(b"rafn,mode,rnw,ideal")
        again = run_experiment("rnw-vs-rafn", [0], tmp_path, params=SMALL_RNW)
        assert again[0].read_bytes() == first

    def test_seed_names_the_file(self, tmp_path):
        paths = run_experiment("trajectory", range(42, 43), tmp_path)
        assert paths == [tmp_path / "trajectory" / "42.csv"]
        header = paths[0].read_text().splitlines()[0]
        assert header == "round,normal_reputation,abnormal_reputation"

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment("bogus", [0], tmp_path)
