#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload auction-dense --seed 0 --seconds 20 --trace 0

The run sets the workload up several times (set-up time is the median), then
runs whole passes of ops until ``--seconds`` have passed. With ``--trace 0``
it prints the end-to-end metrics. With ``--trace 1`` it alternates untraced
and traced passes instead, prints the per-layer metrics of the traced ones,
the tracing overhead among them, and writes the spans to
``perfbench/out/``. End-to-end times are scaled to a fixed machine speed
(see ``reference_work``). Every op's output is checked; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The package is imported from ``src/`` beside this directory and
from nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PINS = HERE / "digests.json"
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOAD_NAMES = ("auction-dense", "auction-small", "consensus-epochs", "trade-round")
SETUP_REPEATS = 3
#: Seconds the reference work takes at this machine's usual speed, and the
#: op time after which it is timed again; see reference_work.
REFERENCE_S = 0.0125
REFERENCE_EVERY_S = 0.25
REFERENCE_SETS = 25000
CRYPTO_CALLS = ("sign", "verify_cert", "verify_msg", "encrypt", "decrypt")


def import_workloads():
    """Import the workloads, and with them the package, from ``src/``."""
    package = SRC / "trafficmarket" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import workloads
    import trafficmarket

    if Path(trafficmarket.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: trafficmarket imported from {trafficmarket.__file__}")
    return workloads


def pin_key(cls, seed: int) -> str:
    """Key of a workload's digests in digests.json."""
    return f"{cls.name}:{seed}" if cls.seeded_outputs else cls.name


def load_pins(cls, seed: int) -> list[str] | None:
    """Digests pinned for this workload and seed, indexed by op key."""
    if not PINS.is_file():
        return None
    return json.loads(PINS.read_text()).get(pin_key(cls, seed))


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def reference_work() -> float:
    """Run a fixed mix of Python objects, small numpy ops and hashing; return
    its wall time.

    The shared machine the benchmark was built on changes speed by up to 25%
    in phases of 5-30 s, more than the bounds allow between runs. The run
    times this fixed work between ops and scales op times by REFERENCE_S
    over it, which takes most of the phases out. A program change must not
    move the scale: the package is never called here, the run drops each
    op's output and input before timing it, the work keeps no object alive
    and so faults in no fresh pages, and the collector is paused, so that
    the time does not depend on the heap the op left. Each run prints the
    mean reference time and the unscaled median op time beside the scaled
    metrics.
    """
    import numpy as np

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        # each set is freed before the next is made, so the work reuses one
        # block and faults in no fresh pages, whatever heap the op left
        for i in range(REFERENCE_SETS):
            len(frozenset((i, i + 1, i % 97)))
        gain = np.linspace(1.0, 2.0, 900)
        for _ in range(200):
            k = int(np.argmax(np.where(gain > 1.1, (gain - 1.0) / gain, -np.inf)))
            gain[k] -= 0.5
        digest = hashlib.sha256()
        for _ in range(2000):
            digest.update(b"y" * 64)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Measured:
    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per op that completed
        self.scaled: list[float] = []  # the same, scaled to REFERENCE_S speed
        self.pass_times: list[float] = []  # scaled
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.pinned = 0  # ops whose digest was compared with a pinned one
        self.problems: list[str] = []
        self.first_digest: dict = {}
        self.references = [reference_work()]
        self._unscaled: list[float] = []  # op times since the last reference

    def add(self, elapsed: float) -> None:
        self.samples.append(elapsed)
        self._unscaled.append(elapsed)
        if sum(self._unscaled) >= REFERENCE_EVERY_S:
            self.scale()

    def scale(self) -> None:
        """Scale the pending op times by the reference work timed around them."""
        if not self._unscaled:
            return
        after = reference_work()
        factor = REFERENCE_S * 2.0 / (self.references[-1] + after)
        self.scaled.extend(t * factor for t in self._unscaled)
        self._unscaled.clear()
        self.references.append(after)


def run_pass(wl, tracer, pinned, m: Measured, counts: Counter | None = None) -> None:
    """Run one pass of ops, checking each op's output.

    An op fails when it raises or its digest differs from the pinned one
    (or, for keys without a pin, from the first digest seen for that key
    in this run). ``counts`` is given only on the traced run, which also
    probes each op.
    """
    first = len(m.scaled)
    for key in wl.pass_keys():
        arg = wl.prepare(key)
        tracer.op = m.ops
        m.ops += 1
        try:
            t0 = time.perf_counter()
            with tracer.span("op"):
                out = wl.run(key, arg)
            elapsed = time.perf_counter() - t0
            checked = wl.check(key, arg, out)
            if counts is not None:
                wl.probe(key, out, checked, counts)
            # the reference work in m.add must not run beside the op's data
            del out, arg
            m.add(elapsed)
        except Exception:
            m.attempted += 1
            m.failed += 1
            m.problems.append(f"op {tracer.op} (key {key}) raised:\n{traceback.format_exc()}")
            continue
        m.attempted += checked.attempted
        m.work += checked.work
        if pinned is not None and key < len(pinned):
            expected = pinned[key]
            m.pinned += 1
        else:
            expected = m.first_digest.setdefault(key, checked.digest)
        if checked.digest != expected:
            m.failed += checked.attempted
            m.problems.append(
                f"op {tracer.op} (key {key}): digest {checked.digest}, expected {expected}"
            )
        elif checked.failed:
            m.failed += checked.failed
            m.problems.append(
                f"op {tracer.op} (key {key}): {checked.failed} of "
                f"{checked.attempted} failed"
            )
    tracer.op = None
    m.scale()
    m.pass_times.append(sum(m.scaled[first:]))


def measure(wl, tracer, seconds: float, pinned) -> Measured:
    """Run whole passes until ``seconds`` have passed; at least one pass."""
    m = Measured()
    start = time.perf_counter()
    while True:
        run_pass(wl, tracer, pinned, m)
        if time.perf_counter() - start >= seconds:
            return m


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(setup_s: float, m: Measured, tail_pct: float) -> tuple[dict, list[str]]:
    """End-to-end metrics; every time is scaled to REFERENCE_S speed."""
    busy = sum(m.scaled)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(m.pass_times),
        "op_s.p50": statistics.median(m.scaled),
        "op_s.tail": percentile(m.scaled, tail_pct),
        "ops_per_s": len(m.scaled) / busy,
        "work_per_s": m.work / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(s > values["op_s.tail"] for s in m.scaled)
    notes = [
        f"op_s.tail is p{tail_pct:g} of {len(m.scaled)} samples, {beyond} beyond it"
        + ("" if beyond >= 10 else "; fewer than 10, so the sample supports no higher tail"),
        f"wall_s is the median of {len(m.pass_times)} passes of "
        f"{len(m.scaled) // max(1, len(m.pass_times))} ops",
        f"times are scaled by {REFERENCE_S} s over the reference work's time"
        f" around each op; a gain must also hold on the unscaled median",
    ]
    return values, notes


def per_layer(tracer, counts: Counter, traced: Measured, untraced: Measured,
              abort_reasons) -> dict:
    """Per-layer metrics: times and counts per traced op, ratios of totals."""
    totals = tracer.totals()
    n = max(1, traced.ops)

    def busy(name: str) -> float:
        return totals[name][0] if name in totals else 0.0

    def per_op(name: str) -> float:
        return busy(name) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    tbsap_s = busy("auction.tbsap")
    alloc_s = busy("auction.tbsap_allocate")
    steps = ("consensus.cast_votes", "consensus.elect_witnesses",
             "consensus.start_epoch", "consensus.run_round")
    crypto_s = sum(counts[f"crypto.{kind}.s"] for kind in CRYPTO_CALLS)
    values = {
        "model.generate_scenario.s": busy("model.generate_scenario"),
        "model.placements_kept_frac": ratio(counts["model.vehicles"], counts["model.placements"]),
        "model.vehicles": counts["model.vehicles"],
        "auction.tbsap.s": per_op("auction.tbsap"),
        "auction.tbsap_allocate.s": per_op("auction.tbsap_allocate"),
        "auction.greedy_heuristic.s": per_op("auction.greedy_heuristic"),
        "auction.payment_share": ratio(tbsap_s - alloc_s, tbsap_s),
        "auction.payment_to_alloc_ratio": ratio(tbsap_s - alloc_s, alloc_s),
        "auction.winners": counts["auction.winners"] / n,
        "auction.payment_positions": counts["auction.payment_positions"] / n,
        "consensus.run_epochs.s": per_op("consensus.run_epochs"),
        "consensus.cast_votes.s": per_op("consensus.cast_votes"),
        "consensus.elect_witnesses.s": per_op("consensus.elect_witnesses"),
        "consensus.run_round.s": per_op("consensus.run_round"),
        # run_epochs' own loop: its time less the steps the decomposition timed
        "consensus.loop_self.s": (
            per_op("consensus.run_epochs") - sum(per_op(s) for s in steps)
            if "consensus.run_epochs" in totals else 0.0
        ),
    }
    for name in ("ballots", "ballot_entries", "rounds", "blocks_accepted",
                 "blocks_rejected", "leaders_skipped", "history_rows"):
        values[f"consensus.{name}"] = counts[f"consensus.{name}"] / n
    for kind in CRYPTO_CALLS:
        values[f"crypto.{kind}.calls"] = counts[f"crypto.{kind}.calls"] / n
        values[f"crypto.{kind}.s"] = counts[f"crypto.{kind}.s"] / n
    values.update({
        "trading.build_world.s": busy("trading.build_world"),
        "trading.run_trading_round.s": per_op("trading.run_trading_round"),
        "trading.auction.s": per_op("trading.auction"),
        # the round's own protocol work: its self time (the auction is its
        # child span) less the crypto time counted inside it
        "trading.protocol_self.s": (
            (totals["trading.run_trading_round"][1] - crypto_s) / n
            if "trading.run_trading_round" in totals else 0.0
        ),
        "trading.cert_checks_per_distinct_cert": ratio(
            counts["crypto.verify_cert.calls"], counts["trading.distinct_certs"]
        ),
        "trading.sessions_confirmed": counts["trading.sessions_confirmed"] / n,
    })
    for reason in abort_reasons:
        values[f"trading.sessions_aborted.{reason}"] = (
            counts[f"trading.sessions_aborted.{reason}"] / n
        )
    values["trading.settled_frac"] = ratio(
        counts["trading.sessions_confirmed"], counts["trading.winner_sessions"]
    )
    values["trading.block_records"] = counts["trading.block_records"] / n
    values["trace.overhead_s"] = (
        statistics.median(traced.scaled) - statistics.median(untraced.scaled)
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    t0 = time.perf_counter()
    workloads = import_workloads()
    import_s = time.perf_counter() - t0
    from tracing import NULL_TRACER, Tracer

    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    references = [reference_work()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(args.seed)
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        references.append(reference_work())
    setup_s = (import_s + statistics.median(setup_times)) * (
        REFERENCE_S / statistics.median(references)
    )
    pinned = load_pins(cls, args.seed)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    if args.trace:
        tracer = Tracer()
        traced_wl = cls(args.seed, tracer)
        traced_wl.setup()
        counts: Counter = Counter()
        traced_wl.scenario_counts(counts)
        # Untraced and traced passes alternate, so both see the same machine
        # speed and their difference is the tracing overhead.
        untraced, traced = Measured(), Measured()
        start = time.perf_counter()
        while True:
            run_pass(wl, NULL_TRACER, pinned, untraced)
            run_pass(traced_wl, tracer, pinned, traced, counts)
            if time.perf_counter() - start >= args.seconds:
                break
        values = per_layer(tracer, counts, traced, untraced, workloads.ABORT_REASONS)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        runs = (untraced, traced)
        lines.append(
            f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}"
        )
        if args.workload == "consensus-epochs":
            lines.append(
                f"consensus decomposition parity: {counts['consensus.parity_ok']}"
                f" of {traced.ops} ops"
            )
    else:
        measured = measure(wl, NULL_TRACER, args.seconds, pinned)
        values, notes = end_to_end(setup_s, measured, cls.tail_pct)
        runs = (measured,)
        lines.extend(notes)
        lines.append(f"work unit: {cls.work_unit}")

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    pinned_ops = sum(m.pinned for m in runs)
    ops = sum(m.ops for m in runs)
    lines.append(
        f"ops {ops}, digests pinned for {pinned_ops}; attempted {attempted},"
        f" failed {failed}, failed_frac {failed / max(1, attempted)!r}"
    )
    for problem in (p for m in runs for p in m.problems[:5]):
        print(problem, file=sys.stderr)
    # Not metrics: the unscaled median op time, and the mean reference time,
    # which should not depend on the workload (collect.py records both).
    lines.append(f"unscaled op_s.p50 = {statistics.median(runs[0].samples)!r} s")
    references = [r for m in runs for r in m.references]
    lines.append(f"reference_s mean = {statistics.fmean(references)!r} s")
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']!r} {metric['unit']}")
    print("\n".join(lines))
    correct = failed == 0 and ops > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
