#!/usr/bin/env python3
"""Show that the benchmark's output check counts a wrong payment as failed.

    python3 perfbench/selftest.py

Runs one budget sweep of auction-dense and one trading round on a pinned seed,
first with ``tbsap`` itself and then through a wrapped mechanism that adds
1 to the first winner's payment. The trading round runs once more without
pins, to show that its invariants alone catch the wrong payment, as they do
on every round of a run. Exits 0 when the clean runs fail no op and the
wrong runs count failures, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys

from run import import_workloads, load_pins, measure

SEED = 0


def main() -> int:
    workloads = import_workloads()
    from trafficmarket.auction import tbsap

    from tracing import NULL_TRACER

    def wrong_payment(instance):
        outcome = tbsap(instance)
        if not outcome.winners:
            return outcome
        payments = dict(outcome.payments)
        payments[outcome.winners[0]] += 1.0
        return dataclasses.replace(outcome, payments=payments)

    verdicts = []
    for name, use_pins in (("auction-dense", True), ("trade-round", True),
                           ("trade-round", False)):
        cls = workloads.WORKLOADS[name]
        pinned = load_pins(cls, SEED) if use_pins else None
        if use_pins and pinned is None:
            print(f"{name}: no digests pinned for seed {SEED}")
            return 1
        for label, mechanism in (("tbsap", tbsap), ("wrong payment", wrong_payment)):
            wl = cls(SEED, mechanism=mechanism)
            wl.setup()
            m = measure(wl, NULL_TRACER, 0.0, pinned)
            expected_failures = mechanism is wrong_payment
            ok = (m.failed > 0) == expected_failures
            verdicts.append(ok)
            print(
                f"{name} with {label}, {'pinned' if use_pins else 'invariants only'}:"
                f" {m.failed} of {m.attempted} failed"
                f" -> {'as expected' if ok else 'WRONG'}"
            )
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
