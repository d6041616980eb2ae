"""Golden digests: known-good sha256 pins of generated scenarios and study CSVs.

The determinism tests in ``test_cli.py`` run a command twice and compare the
two runs, so a change that moves the output the same way both times passes
them. These pins hold the bytes themselves. A change that moves one must say
why; it is never enough to recompute the digest.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from trafficmarket.cli import main

GEN_GOLDENS = {
    # README quick tour: a 150-wide map, 48 of the 60 placements sense a task
    "quick-tour": (
        ["--seed", "3", "--n-tasks", "40", "--n-vehicles", "60", "--budget", "30",
         "--city-side", "150"],
        48,
        "b449e4e305405e7fdeda0f9f45c73e43a3ef2153d37a770d6bc6a1f0e978eac0",
    ),
    # the trade-round benchmark map
    "trade-round": (
        ["--seed", "1", "--n-tasks", "200", "--n-vehicles", "1000", "--budget", "400"],
        215,
        "990c8c625ada863de8d59b3bd8ddbf9bab1181788d60f8e034593bd411ee0614",
    ),
    # test_10's gen invocation
    "test-10": (
        ["--seed", "3", "--n-tasks", "12", "--n-vehicles", "40", "--budget", "20",
         "--city-side", "400"],
        5,
        "63f838a2b070c6424761fd9c915f2ed9b9092411b3de75b7062e6ac1198d90da",
    ),
    # the trade-round map at B=100, where tbsap quotes more than the budget
    "trade-round-b100": (
        ["--seed", "1", "--n-tasks", "200", "--n-vehicles", "1000", "--budget", "100"],
        215,
        "280c6efb9baf8ec7436a8171beed3180b0a1bac89bac90aed988301190a184aa",
    ),
    # the studies' default size (200 tasks, 1000 placements) at the default
    # city side
    "default-size": (
        ["--seed", "0", "--n-tasks", "200", "--n-vehicles", "1000", "--budget", "100"],
        224,
        "ebb35fbbeba0c97c852ea41cfc17eec4cc02cf53b5518677fe34737555928f49",
    ),
    "no-vehicles": (
        ["--seed", "5", "--n-tasks", "12", "--n-vehicles", "0", "--budget", "10"],
        0,
        "6cbf46efa1a44cf6f59845480473303a810df22db57bf5fa45a2704424faf532",
    ),
}

STUDY_GOLDENS = {
    ("profit-vs-budget", 0): "7e004a0919e350d441271af737b996d13e6c2778317e66ed4b64b7efaff483ef",
    ("profit-vs-budget", 1): "feba0e41b59b9418b27244c6754ddfa2b54b152fd5ce87a9668faae2c8f3d930",
    ("profit-vs-budget", 2): "105f3956ef93ace36eeb891088e385ca2eb358ec92b8197a1f4c127bd9e3b498",
    ("profit-vs-budget", 3): "9386209c2b0003c389c7dadbd1de9431a256313898b41aa78378b61069a278a7",
    ("profit-vs-budget", 4): "123234842abb3493d961fc126cd8acb572d5ac4e659078592b09ad198a5c7a9e",
    ("bid-payment", 0): "df36db42e85fc5c67e48c185c455a8b906bc8656151e092cbcfb42ea8963f841",
    ("bid-payment", 1): "70426de0764ab4693f093272ddc4566a95ffd02d5707f8b925f447a5889d5e83",
    ("bid-payment", 2): "36087da41765aa6bdf9c0ab53f0a97633fb44bc53034a63bce0708f826ee3267",
    ("bid-payment", 3): "ea3a9f159d6bbcf0709d32d642cf8e59c89605eadfb57946ab666a32d89e4959",
    ("bid-payment", 4): "5a310ff05caf3289cfdef7590e612c5b75f9b48cc4009a9139e6d6ff51c45503",
    # the schedule is pinned, so the seed does not reach the trajectory
    ("trajectory", 0): "152cf820dc4744bdb8107292713b5ede8b3046b57f931a71092eb593aa0abd3a",
    ("trajectory", 1): "152cf820dc4744bdb8107292713b5ede8b3046b57f931a71092eb593aa0abd3a",
    ("trajectory", 2): "152cf820dc4744bdb8107292713b5ede8b3046b57f931a71092eb593aa0abd3a",
    ("trajectory", 3): "152cf820dc4744bdb8107292713b5ede8b3046b57f931a71092eb593aa0abd3a",
    ("trajectory", 4): "152cf820dc4744bdb8107292713b5ede8b3046b57f931a71092eb593aa0abd3a",
    ("rnw-vs-rafn", 0): "e57f0a74eda5c1e2432497271af95f01d97e11289aa902cf1d4c13934815848a",
    ("rnw-vs-rafn", 1): "534fe1d4fff6c59f19b0af4e25e33302b392fb19a26c47a8d052c7fb13d2dcde",
    ("rnw-vs-rafn", 2): "79bd43d17e641fb46cdfaeb8dcab6c40252c0f05c36c2f8b8eff7237dcc2ce21",
    ("rnw-vs-rafn", 3): "4ab64aefe16ba1a12c8222fced3b9889dae10bd14c9ee6a4f713584369f3e529",
    ("rnw-vs-rafn", 4): "79bd43d17e641fb46cdfaeb8dcab6c40252c0f05c36c2f8b8eff7237dcc2ce21",
}

# Whole CLI runs: argv, the file it writes, (file digest, stdout digest).
# Paths are relative to the working directory, because stdout echoes them.
# The consensus history holds the hostile-population draws bit for bit;
# rnw-vs-rafn rows only count seats, so they can miss a changed draw.
CLI_GOLDENS = {
    "consensus-test-10": (
        ["consensus", "--nodes", "30", "--committee", "12", "--active", "4",
         "--epochs", "2", "--abnormal-frac", "0.2", "--seed", "5", "--out", "out.csv"],
        "out.csv",
        "d5b164010ae4271a2ac4d4401dbc9d638fc6b705f60b1eff3101e6cdc0221fa4",
        "fb5fc1278540444312de5a6693b2d96f479c3600c0318ca14f0c1567f6a7b472",
    ),
    "consensus-readme": (
        ["consensus", "--nodes", "100", "--committee", "70", "--active", "10",
         "--abnormal-frac", "0.2", "--seed", "5", "--out", "out.csv"],
        "out.csv",
        "c53a18335a3859d099e5733ebb108e93c77fcc686e7a4689b977e5299f994e94",
        "ed0a551ada7ccc01bed1acd0cc6245fa29e027cab0874270abd7b131815d6180",
    ),
    # the benchmark's population size, in both modes; equal weights make
    # every tally an integer, so tied ranks are common there
    "consensus-1000-reputation": (
        ["consensus", "--nodes", "1000", "--committee", "700", "--active", "10",
         "--abnormal-frac", "0.2", "--mode", "reputation", "--seed", "5", "--out", "out.csv"],
        "out.csv",
        "22636ae1fb7ca0bf85accfd9da542611587408eef97f270498db31124bfec9cb",
        "a086c284617e5235304defd1b76478b2270b948adda4da2152cb87faaadf4642",
    ),
    "consensus-1000-equal": (
        ["consensus", "--nodes", "1000", "--committee", "700", "--active", "10",
         "--abnormal-frac", "0.2", "--mode", "equal", "--seed", "5", "--out", "out.csv"],
        "out.csv",
        "82ef7f513686ab2d255a4068232ee7d54078a43d25c2c34097708708760f9732",
        "c89971fb27d34e104f3082a50089852529c7b9edf2d194c4e87794096c58e8f8",
    ),
    # the block hash does not depend on the scheme, so both give one ledger
    "trade-real": (
        ["trade", "--scenario", "paper-example", "--scheme", "real", "--out", "out.csv"],
        "out.csv",
        "43061fa28c439ae2efabdef9034ef3afaad952fb1edb4cefe4c3a6ac2b60f425",
        "eb9ae74ea0bd4de0fac577f8d7e91c774f28ba96a8ddb7edc6aed874326841c0",
    ),
    "trade-stub": (
        ["trade", "--scenario", "paper-example", "--scheme", "stub", "--out", "out.csv"],
        "out.csv",
        "43061fa28c439ae2efabdef9034ef3afaad952fb1edb4cefe4c3a6ac2b60f425",
        "eb9ae74ea0bd4de0fac577f8d7e91c774f28ba96a8ddb7edc6aed874326841c0",
    ),
    "auction-test-10": (
        ["auction", "--scenario", "paper-example", "--mechanism", "tbsap", "--out", "out.csv"],
        "out.csv",
        "af24ca794c972fe091561dc18ffb7af8f84cd69452288bdec1a3265c1f5a1cdd",
        "8da2ec5c8fd97d00f777e11e8d3a2803595744b73c92fc64b742e5cbd0f19aad",
    ),
    # a budget grid out of order: every budget after the first on a map reuses
    # what earlier calls cached for that map, so this pins reuse across calls
    "profit-vs-budget-unordered": (
        ["experiment", "profit-vs-budget", "--seed", "0", "--budgets", "400,25,200,50",
         "--out-dir", "res"],
        "res/profit-vs-budget/0.csv",
        "2605d44867fafe68197a2da9849a7c1faeef4f36ea5313b36a6d503cdb522cc9",
        "435b10903058c2c19939670dba8ebad858665a6b4061fe645b87c651b017ccbb",
    ),
    "rnw-vs-rafn-test-10": (
        ["experiment", "rnw-vs-rafn", "--seed", "7", "--nodes", "20", "--committee",
         "10", "--active", "2", "--grid", "0.0,0.4", "--out-dir", "res"],
        "res/rnw-vs-rafn/7.csv",
        "b280d12a18f2041c1c20e80ae3cb11392c75856f44345c5f437fc25117b8952b",
        "5ccd081cf113e65a187e78d607ce12db39d87998c9ab79d04c544780395ea471",
    ),
}

# `auction` on the trade-round map, with the budget at the scenario's 400 and
# at a budget-bound 50: (outcome CSV digest, stdout digest). Paths are
# relative to the working directory, because stdout echoes them.
AUCTION_GOLDENS = {
    ("tbsap", "400"): (
        "3bb23aa4a436c493b28195125f71618585690872fcab603a8723832f886929b0",
        "84ab296f6bfa170cf0fb69465b2bd0c80fd3bf602e04161de803f13dcffef65e",
    ),
    ("tbsap", "50"): (
        "af1da50f673ea01d89abdf355b9cf22d61004742420bf1d4a4781809dd38bfb0",
        "a48ef94a8027e248f23c12c70c7ec79512b2dc19e174bc26cd3a55875b1e8bf8",
    ),
    ("greedy", "400"): (
        "a7e3abf0abfe505945501152c4bc8998ac9fb21bfd5490f1147fa4c63227fc96",
        "b7b2f2e64720192c2142e580806739814be659d9477560f9afddab1af52babb3",
    ),
    ("greedy", "50"): (
        "36b126f9e320e49d111148eed26601c33629e7f67d20dbf93f3ef86c44b9c05c",
        "1256ef5b8789892c12cc8b3d2b4681c55ef153be9940ddd0f033dd4c2429f656",
    ),
}


# `trade --mechanism greedy` on the quick-tour map: (ledger digest, stdout
# digest). Greedy pays bids, so the budget funds every winner and a block
# settles.
TRADE_GREEDY_GOLDEN = (
    "ceae0f73df727489a5681176e3da56d33eb5239b7130aba97d918ea940e3ebcd",
    "89ad1759635a4297d42f591e13bb6479ad7aa78d73e21faf54341634e2ee9385",
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0 and err.getvalue() == "", err.getvalue()
    return out.getvalue()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GEN_GOLDENS))
def test_gen_scenario_file(name, tmp_path):
    flags, n_vehicles, digest = GEN_GOLDENS[name]
    path = tmp_path / f"{name}.scn"
    out = run_cli(["gen", *flags, "--out", str(path)])
    assert f" vehicles={n_vehicles} " in out
    assert sha256(path) == digest


@pytest.mark.parametrize("study, seed", sorted(STUDY_GOLDENS))
def test_study_csv(study, seed, tmp_path):
    run_cli(["experiment", study, "--seed", str(seed), "--out-dir", str(tmp_path)])
    assert sha256(tmp_path / study / f"{seed}.csv") == STUDY_GOLDENS[study, seed]


@pytest.fixture(scope="module")
def trade_round_map(tmp_path_factory):
    directory = tmp_path_factory.mktemp("trade-round")
    flags, _, digest = GEN_GOLDENS["trade-round"]
    run_cli(["gen", *flags, "--out", str(directory / "map.scn")])
    assert sha256(directory / "map.scn") == digest
    return directory


@pytest.mark.parametrize("mechanism, budget", sorted(AUCTION_GOLDENS))
def test_auction_outcome(mechanism, budget, trade_round_map, tmp_path, monkeypatch):
    (tmp_path / "map.scn").write_bytes((trade_round_map / "map.scn").read_bytes())
    monkeypatch.chdir(tmp_path)
    out = run_cli(["auction", "--scenario", "map.scn", "--mechanism", mechanism,
                   "--budget", budget, "--out", "winners.csv"])
    csv_digest, stdout_digest = AUCTION_GOLDENS[mechanism, budget]
    assert sha256(tmp_path / "winners.csv") == csv_digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_run(name, tmp_path, monkeypatch):
    argv, written, file_digest, stdout_digest = CLI_GOLDENS[name]
    monkeypatch.chdir(tmp_path)
    out = run_cli(argv)
    assert sha256(tmp_path / written) == file_digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


def test_trade_greedy_on_a_generated_map(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags, _, digest = GEN_GOLDENS["quick-tour"]
    run_cli(["gen", *flags, "--out", "city.scn"])
    assert sha256(tmp_path / "city.scn") == digest
    out = run_cli(["trade", "--scenario", "city.scn", "--mechanism", "greedy",
                   "--out", "ledger.csv"])
    assert "block: -" not in out
    assert sha256(tmp_path / "ledger.csv") == TRADE_GREEDY_GOLDEN[0]
    assert hashlib.sha256(out.encode()).hexdigest() == TRADE_GREEDY_GOLDEN[1]


# `trade --scheme stub` with tbsap on the trade-round map at B=100: the quoted
# total is above the authority's balance of 100, so all 72 winners abort with
# "authority balance insufficient", every other vehicle with "lost auction",
# no block is written and the run exits 1. (stdout digest, stderr), recorded
# before the trading round was split into steps.
TRADE_UNFUNDED_GOLDEN = (
    "e1c1114e4908680643b93318b5f728b7c123f6569fe692cf2fdaca45a2421e35",
    "error: no block written: 72 of 72 winners aborted\n",
)


def test_trade_that_cannot_fund_its_winners(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags, _, digest = GEN_GOLDENS["trade-round-b100"]
    run_cli(["gen", *flags, "--out", "map.scn"])
    assert sha256(tmp_path / "map.scn") == digest
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["trade", "--scenario", "map.scn", "--scheme", "stub"])
    assert code == 1
    assert "aborted(authority balance insufficient)" in out.getvalue()
    assert "aborted(lost auction)" in out.getvalue()
    assert "block: -" in out.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == TRADE_UNFUNDED_GOLDEN[0]
    assert err.getvalue() == TRADE_UNFUNDED_GOLDEN[1]
