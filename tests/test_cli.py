"""End-to-end checks of the command-line interface.

Every subcommand must be byte-deterministic: running the same invocation
twice must print identical text and write identical files.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import trafficmarket
from trafficmarket.cli import MECHANISMS, main
from trafficmarket.model import paper_example, save_scenario


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestAuction:
    def test_paper_example_tbsap(self):
        code, out, err = run_cli(
            ["auction", "--mechanism", "tbsap", "--scenario", "paper-example"]
        )
        assert code == 0 and err == ""
        assert "winners: 0 1" in out
        assert "payments: 0=2.0 1=3.0" in out
        assert "profit: 9.0" in out

    def test_greedy_pays_winning_bids_here(self):
        code, out, _ = run_cli(
            ["auction", "--mechanism", "greedy", "--scenario", "paper-example"]
        )
        assert code == 0
        assert "payments: 0=2.0 1=2.0" in out

    def test_budget_override(self):
        code, out, _ = run_cli(
            ["auction", "--scenario", "paper-example", "--budget", "2"]
        )
        assert code == 0
        assert "winners: 0\n" in out

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bad_budget_override_exits_1(self, budget):
        # the override is checked by with_budget, which copies the instance
        code, out, err = run_cli(
            ["auction", "--scenario", "paper-example", "--budget", budget]
        )
        assert code == 1 and out == ""
        assert err == "error: budget must be finite and nonnegative\n"

    def test_outcome_csv(self, tmp_path):
        out_file = tmp_path / "outcome.csv"
        code, _, _ = run_cli(
            ["auction", "--scenario", "paper-example", "--out", str(out_file)]
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "vehicle_id,bid,payment,profit"
        assert len(lines) == 3

    def test_oracle_size_guard(self, tmp_path):
        scn = tmp_path / "big.json"
        code, _, _ = run_cli(
            ["gen", "--seed", "9", "--n-tasks", "40", "--n-vehicles", "200",
             "--budget", "50", "--city-side", "300", "--out", str(scn)]
        )
        assert code == 0
        code, out, err = run_cli(
            ["auction", "--scenario", str(scn), "--mechanism", "oracle"]
        )
        assert code != 0
        assert "brute force" in err and out == ""

    def test_missing_scenario_file(self):
        code, _, err = run_cli(["auction", "--scenario", "/nonexistent.json"])
        assert code != 0 and "error:" in err

    def test_malformed_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["auction", "--scenario", str(bad)])
        assert code != 0 and "error:" in err

    def test_nan_scenario_exits_1(self, tmp_path):
        scn = tmp_path / "nan.scn"
        save_scenario(paper_example(), scn)
        scn.write_text(scn.read_text().replace("task 1 100.0 0.0 3.0", "task 1 100.0 0.0 nan"))
        code, out, err = run_cli(["auction", "--scenario", str(scn)])
        assert code == 1 and out == "" and "finite" in err


class TestGenRoundTrip:
    def test_gen_then_auction(self, tmp_path):
        scn = tmp_path / "scn.json"
        code, out, _ = run_cli(
            ["gen", "--seed", "3", "--n-tasks", "12", "--n-vehicles", "40",
             "--budget", "20", "--city-side", "400", "--out", str(scn)]
        )
        assert code == 0 and scn.exists()
        assert "budget=20.0" in out
        code, out, _ = run_cli(["auction", "--scenario", str(scn)])
        assert code == 0 and "winners:" in out

    def test_gen_rejects_bad_config(self, tmp_path):
        code, _, err = run_cli(
            ["gen", "--seed", "1", "--n-tasks", "5", "--n-vehicles", "5",
             "--budget", "0", "--out", str(tmp_path / "x.json")]
        )
        assert code != 0 and "error:" in err

    def test_gen_rejects_nan_budget(self, tmp_path):
        code, _, err = run_cli(
            ["gen", "--seed", "1", "--n-tasks", "5", "--n-vehicles", "5",
             "--budget", "nan", "--out", str(tmp_path / "x.scn")]
        )
        assert code == 1 and "finite" in err


class TestConsensus:
    def test_history_csv(self, tmp_path):
        hist = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            ["consensus", "--nodes", "30", "--committee", "12", "--active", "4",
             "--epochs", "3", "--abnormal-frac", "0.2", "--seed", "5",
             "--out", str(hist)]
        )
        assert code == 0
        assert "epochs: 3 rounds: 12" in out
        header = hist.read_text().splitlines()[0]
        assert header == "epoch,round,node_id,reputation,role,delta"

    def test_equal_mode_differs_under_attack(self, tmp_path):
        args = ["consensus", "--nodes", "30", "--committee", "12", "--active",
                "4", "--epochs", "2", "--abnormal-frac", "0.4", "--seed", "1"]
        _, rep_out, _ = run_cli(args + ["--mode", "reputation"])
        _, eq_out, _ = run_cli(args + ["--mode", "equal"])
        assert rep_out != eq_out

    def test_bad_fraction_rejected(self):
        code, _, err = run_cli(["consensus", "--abnormal-frac", "1.5"])
        assert code != 0 and "error:" in err

    def test_negative_epochs_rejected(self):
        code, out, err = run_cli(["consensus", "--nodes", "10", "--committee",
                                  "5", "--active", "2", "--epochs", "-1"])
        assert code == 1 and "n_epochs" in err and out == ""

    def test_bad_sizes_rejected_without_epochs(self):
        code, out, err = run_cli(["consensus", "--nodes", "10", "--committee",
                                  "50", "--active", "60", "--epochs", "0"])
        assert code == 1 and "committee_size" in err and out == ""


class TestTrade:
    def test_round_over_builtin_scenario(self, tmp_path):
        ledger = tmp_path / "ledger.csv"
        code, out, _ = run_cli(
            ["trade", "--scenario", "paper-example", "--scheme", "stub",
             "--out", str(ledger)]
        )
        assert code == 0
        assert "session 0: confirmed" in out
        assert "session 1: confirmed" in out
        assert "session 2: aborted(lost auction)" in out
        assert "paid 0: 2" in out and "paid 1: 3" in out
        assert "authority_balance: 0" in out
        lines = ledger.read_text().splitlines()
        assert lines[0] == "session_id,ta_id,vehicle_id,payment,block_id"
        assert len(lines) == 3

    def test_block_hash_is_scheme_independent(self):
        _, stub_out, _ = run_cli(
            ["trade", "--scenario", "paper-example", "--scheme", "stub"]
        )
        _, real_out, _ = run_cli(
            ["trade", "--scenario", "paper-example", "--scheme", "real"]
        )
        stub_block = [l for l in stub_out.splitlines() if l.startswith("block:")]
        real_block = [l for l in real_out.splitlines() if l.startswith("block:")]
        assert stub_block == real_block


    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_every_auction_mechanism_trades(self, mechanism):
        code, out, err = run_cli(
            ["trade", "--scenario", "paper-example", "--scheme", "stub",
             "--mechanism", mechanism]
        )
        assert (code, err) == (0, "")
        assert f"mechanism: {mechanism}\n" in out
        assert "\nblock: " in out and "block: -" not in out

    def test_round_without_a_block_exits_1(self, tmp_path, monkeypatch):
        # tbsap's quoted payments exceed the budget the authority is funded
        # with, so every winner aborts before anything moves; the greedy
        # pays bids, which fit the budget, and settles on the same map
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["gen", "--seed", "1", "--n-tasks", "200", "--n-vehicles",
                              "1000", "--budget", "100", "--out", "city.scn"])
        assert code == 0
        code, out, err = run_cli(["trade", "--scenario", "city.scn", "--scheme", "stub",
                                  "--out", "ledger.csv"])
        winners = out.count("(authority balance insufficient)")
        assert winners > 0 and "confirmed" not in out
        assert out.endswith("block: -\nwrote ledger.csv\n")
        assert code == 1
        assert err == f"error: no block written: {winners} of {winners} winners aborted\n"
        code, out, err = run_cli(["trade", "--scenario", "city.scn", "--scheme", "stub",
                                  "--mechanism", "greedy"])
        assert (code, err) == (0, "") and "block: -" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["consensus", "--seed", "-1", "--out", "history.csv"],
        ["experiment", "trajectory", "--seed", "-1"],
        ["trade", "--scenario", "paper-example", "--scheme", "stub", "--seed", "-1",
         "--out", "ledger.csv"],
        ["gen", "--seed", "-1", "--n-tasks", "3", "--n-vehicles", "3", "--budget", "1",
         "--out", "city.scn"],
    ],
)
def test_negative_seed_names_the_flag(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == "error: --seed must be nonnegative, got -1\n"
    assert not any(tmp_path.iterdir())


class TestExperiment:
    RNW = ["experiment", "rnw-vs-rafn", "--seed", "7", "--nodes", "20",
           "--committee", "10", "--active", "2", "--grid", "0.0,0.4"]

    def test_rnw_csv(self, tmp_path):
        code, out, _ = run_cli(self.RNW + ["--out-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "rnw-vs-rafn" / "7.csv"
        assert str(path) in out
        lines = path.read_text().splitlines()
        assert lines[0] == "rafn,mode,rnw,ideal"
        assert len(lines) == 5  # 2 grid points x 2 modes

    def test_trials_write_one_file_per_seed(self, tmp_path):
        code, _, _ = run_cli(
            ["experiment", "trajectory", "--seed", "3", "--trials", "2",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "trajectory" / "3.csv").exists()
        assert (tmp_path / "trajectory" / "4.csv").exists()

    def test_inapplicable_override_rejected(self, tmp_path):
        code, _, err = run_cli(
            ["experiment", "trajectory", "--grid", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert code != 0
        assert "does not apply" in err

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["experiment", "nope"])

    def test_zero_budget_accepted_anywhere_in_the_grid(self, tmp_path):
        small = ["--vehicle-counts", "30", "--n-tasks", "10"]
        rows = {}
        for grid in ("0,25", "25,0"):
            out_dir = tmp_path / grid
            code, _, err = run_cli(["experiment", "profit-vs-budget", *small,
                                    "--budgets", grid, "--out-dir", str(out_dir)])
            assert code == 0, err
            lines = (out_dir / "profit-vs-budget" / "0.csv").read_text().splitlines()
            rows[grid] = sorted(lines[1:])
        assert rows["0,25"] == rows["25,0"]
        assert any(",0.0,tbsap,0.0,0" in line for line in rows["0,25"])
        code, _, err = run_cli(["experiment", "bid-payment", *small, "--budget", "0",
                                "--out-dir", str(tmp_path / "bid")])
        assert code == 0, err
        assert (tmp_path / "bid" / "bid-payment" / "0.csv").read_text() == (
            "n_vehicles,vehicle_id,bid,payment\n"
        )


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
@pytest.mark.parametrize("command", ["experiment rnw-vs-rafn --grid",
                                     "consensus --abnormal-frac"])
def test_hostile_fraction_out_of_range(command, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    *argv, flag = command.split()
    code, out, err = run_cli([*argv, f"{flag}={value}"])
    assert (code, out) == (1, "")
    assert err == f"error: hostile fraction {value} is not in [0, 1]\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["consensus", "experiment rnw-vs-rafn"])
def test_negative_population_size(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*command.split(), "--nodes", "-5"])
    assert (code, out) == (1, "")
    assert err == "error: population size -5 is not a nonnegative integer\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sizes", [
    "--committee 0",
    "--committee 0 --nodes 5",
    "--committee 0 --active 0",
    "--nodes 5",
    "--nodes 0",
    "--committee 20 --active 21",
    "--active 0",
])
def test_rnw_committee_sizes_refused(sizes, tmp_path, monkeypatch):
    """A committee of 0 used to divide by zero in the ideal share; every size
    the election refuses is refused before the first row."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", "rnw-vs-rafn", *sizes.split()])
    assert (code, out) == (1, "")
    assert err == "error: need 0 < active_size <= committee_size <= population\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "study, flag, grid, message",
    [
        ("profit-vs-budget", "--vehicle-counts", "10,10", "vehicle_counts grid repeats 10"),
        ("profit-vs-budget", "--budgets", "25,50,25.0", "budgets grid repeats 25.0"),
        ("bid-payment", "--vehicle-counts", "30,40,30", "vehicle_counts grid repeats 30"),
    ],
)
def test_repeated_grid_value(study, flag, grid, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["experiment", study, flag, grid, "--trials", "2"])
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


class TestDeterminism:
    """Criterion: identical invocations produce identical bytes."""

    def test_experiment_csv_identical_across_runs(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out_dir in (first, second):
            code, _, _ = run_cli(self.RNW_ARGS + ["--out-dir", str(out_dir)])
            assert code == 0
        assert file_hash(first / "rnw-vs-rafn" / "7.csv") == file_hash(
            second / "rnw-vs-rafn" / "7.csv"
        )

    RNW_ARGS = TestExperiment.RNW

    @pytest.mark.parametrize(
        "argv",
        [
            ["auction", "--scenario", "paper-example", "--mechanism", "tbsap"],
            ["auction", "--scenario", "paper-example", "--mechanism", "greedy"],
            ["auction", "--scenario", "paper-example", "--mechanism", "oracle"],
            ["consensus", "--nodes", "20", "--committee", "8", "--active", "3",
             "--epochs", "2", "--abnormal-frac", "0.25", "--seed", "11"],
            ["trade", "--scenario", "paper-example", "--scheme", "stub"],
            ["trade", "--scenario", "paper-example", "--scheme", "real"],
        ],
        ids=["tbsap", "greedy", "oracle", "consensus", "trade-stub", "trade-real"],
    )
    def test_stdout_identical_across_runs(self, argv):
        runs = [run_cli(list(argv)) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_gen_file_identical_across_runs(self, tmp_path):
        hashes = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, _, _ = run_cli(
                ["gen", "--seed", "3", "--n-tasks", "12", "--n-vehicles", "40",
                 "--budget", "20", "--city-side", "400", "--out", str(path)]
            )
            assert code == 0
            hashes.append(file_hash(path))
        assert hashes[0] == hashes[1]


# Runs in a new interpreter: the package and every subcommand but trade must
# leave cryptography unloaded, and a trading name must still resolve.
NO_CRYPTO = """
import contextlib, io, sys
import trafficmarket
from trafficmarket.cli import main
loaded = ["cryptography" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["gen", "--seed", "3", "--n-tasks", "5", "--n-vehicles", "9", "--budget", "5",
         "--city-side", "60", "--out", "city.scn"],
        ["auction", "--scenario", "city.scn"],
        ["consensus", "--nodes", "20", "--committee", "8", "--active", "3"],
        ["experiment", "trajectory", "--out-dir", "res"],
    ):
        assert main(argv) == 0, argv
        loaded.append("cryptography" in sys.modules)
print(loaded, trafficmarket.HashStubScheme.__module__, "cryptography" in sys.modules)
"""


def test_only_trade_imports_cryptography(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(trafficmarket.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", NO_CRYPTO],
        cwd=tmp_path, capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert done.stdout == "[False, False, False, False, False] trafficmarket.crypto True\n"
