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
    "no-vehicles": (
        ["--seed", "5", "--n-tasks", "12", "--n-vehicles", "0", "--budget", "10"],
        0,
        "6cbf46efa1a44cf6f59845480473303a810df22db57bf5fa45a2704424faf532",
    ),
}

STUDY_GOLDENS = {
    "profit-vs-budget": "7e004a0919e350d441271af737b996d13e6c2778317e66ed4b64b7efaff483ef",
    "bid-payment": "df36db42e85fc5c67e48c185c455a8b906bc8656151e092cbcfb42ea8963f841",
}


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


@pytest.mark.parametrize("study", sorted(STUDY_GOLDENS))
def test_study_csv_seed0(study, tmp_path):
    run_cli(["experiment", study, "--seed", "0", "--out-dir", str(tmp_path)])
    assert sha256(tmp_path / study / "0.csv") == STUDY_GOLDENS[study]
