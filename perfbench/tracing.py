"""Spans and crypto counters for the traced benchmark run.

Spans wrap the benchmark's own calls into the package's public functions;
nothing reaches inside the package. Each span is kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends. Crypto
is counted through a subclass of the public scheme, which the trading round
accepts as an injection point.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

from trafficmarket.crypto import Ed25519X25519Scheme

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    op: int | None = None

    def span(self, name: str):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._open: list[int] = []
        #: id of the op that spans opened from now on belong to, None in set-up
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def totals(self) -> dict[str, tuple[float, float]]:
        """Per span name: (total duration, total self time).

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        durations = [end - start for _, start, end, _, _ in self.spans]
        in_children = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                in_children[span[3]] += durations[index]
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for index, span in enumerate(self.spans):
            entry = totals[span[0]]
            entry[0] += durations[index]
            entry[1] += durations[index] - in_children[index]
        return {name: (total, own) for name, (total, own) in totals.items()}

    def write(self, path) -> None:
        """One JSON object per line, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class CountingScheme(Ed25519X25519Scheme):
    """The real scheme, counting and timing every sign, verify and cipher call.

    Verifies of certificate bytes (prefixed ``b"cert:"``) are kept apart
    from message verifies, and the distinct certificates checked are
    remembered, so repeat CA checks show.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: dict[str, float] = defaultdict(float)
        self.certificates: set[bytes] = set()

    def take(self) -> tuple[Counter, dict[str, float], int]:
        """Return (calls, seconds, distinct certificates) so far and reset."""
        taken = (self.calls, self.seconds, len(self.certificates))
        self._reset()
        return taken

    def _timed(self, kind: str, call, *args):
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.seconds[kind] += time.perf_counter() - start
            self.calls[kind] += 1

    def sign(self, private: bytes, data: bytes) -> bytes:
        return self._timed("sign", super().sign, private, data)

    def verify(self, public: bytes, data: bytes, signature: bytes) -> bool:
        if data.startswith(b"cert:"):
            self.certificates.add(data)
            return self._timed("verify_cert", super().verify, public, data, signature)
        return self._timed("verify_msg", super().verify, public, data, signature)

    def encrypt(self, public: bytes, plaintext: bytes, rng) -> bytes:
        return self._timed("encrypt", super().encrypt, public, plaintext, rng)

    def decrypt(self, private: bytes, ciphertext: bytes) -> bytes:
        return self._timed("decrypt", super().decrypt, private, ciphertext)
