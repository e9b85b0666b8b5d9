"""Simulated time and event tracing.

The whole runtime is single-threaded and deterministic: one integer clock,
advanced explicitly, and one tracer that stamps every observable event with the
current tick. Reports are built from the tracer's event list, so two runs with
the same inputs produce identical traces byte for byte.
"""

from __future__ import annotations


class SimClock:
    """Integer event clock. Never goes backwards."""

    def __init__(self) -> None:
        self.now = 0

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise ValueError("clock cannot move backwards")
        self.now += ticks
        return self.now

    def advance_to(self, t: int) -> int:
        # No-op when t is in the past; simultaneous completions share a tick.
        if t > self.now:
            self.now = t
        return self.now


class Tracer:
    """Collects timestamped events. Each emitted event consumes one tick so
    that distinct events never share a timestamp unless the caller moved the
    clock itself (broker completions do)."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.events: list[dict] = []

    def emit(self, ev: str, **fields) -> dict:
        clock = self.clock
        rec = {"t": clock.now, "ev": ev, **fields}
        self.events.append(rec)
        clock.now += 1
        return rec
