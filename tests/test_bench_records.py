"""Every benchmark record at the repository root holds together.

A ``BENCH_*.json`` file backs a speed claim with runs of the parent and of
the change, in pairs. Its claim must name a workload and an end-to-end
metric of ``BENCHMARK.json``; the claimed section must hold at least five
pairs, one run per side in each, and no failed op on either side; and every
summary in the file must recompute from its runs (a held-out seed's
single pair may carry a median without quartiles).
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}


def load(path):
    return json.loads(path.read_text())


def sections(record):
    return {
        name: part for name, part in record.items()
        if isinstance(part, dict) and "metrics" in part
    }


def better(metric):
    """Which way a metric improves; ``unscaled op_s.p50`` as ``op_s.p50``."""
    return BETTER[metric.removeprefix("unscaled ")]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_claim_names_a_benchmarked_workload_and_metric(path):
    record = load(path)
    claim = record["claim"]
    assert claim["workload"] in {workload["name"] for workload in SPEC["workloads"]}
    assert claim["metric"] in BETTER
    assert claim["better"] == BETTER[claim["metric"]]
    section = record[claim["workload"]]
    pairs = section["pairs"]
    assert pairs >= 5
    assert len(section["seeds"]) == len(section["first_in_pair"]) == pairs
    assert section["failed"] == {"parent": 0, "change": 0}
    entry = section["metrics"][claim["metric"]]
    assert len(entry["parent_runs"]) == len(entry["change_runs"]) == pairs
    for side in ("parent", "change"):
        assert {"median", "q1", "q3"} <= entry[side].keys()


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_summaries_recompute_from_the_runs(path):
    for name, section in sections(load(path)).items():
        assert set(section["first_in_pair"]) <= {"parent", "change"}, name
        for metric, entry in section["metrics"].items():
            runs = entry["parent_runs"], entry["change_runs"]
            assert len(runs[0]) == len(runs[1]) == section["pairs"], (name, metric)
            lower = better(metric) == "lower"
            wins = sum(c < p if lower else c > p for p, c in zip(*runs))
            assert entry["change_better_pairs"] == wins, (name, metric)
            for side, side_runs in zip(("parent", "change"), runs):
                if side in entry:
                    summary = entry[side]
                    assert summary["median"] == statistics.median(side_runs), (name, metric)
                    low, high = summary.get("q1", -math.inf), summary.get("q3", math.inf)
                    assert low <= summary["median"] <= high, (name, metric)
