"""Simulated time and event tracing.

The whole runtime is single-threaded and deterministic: one integer clock,
advanced explicitly, and one tracer that stamps every observable event with the
current tick. Reports are built from the tracer's events, so two runs with the
same inputs produce identical traces byte for byte.

A run keeps every event it emits, so each is kept in its cheapest form: one
tuple `(t, ev, names, *values)`, where `names` is the tuple of field names,
shared by every event with the same fields. `Tracer.events` turns the kept
tuples back into dicts on demand.
"""

from __future__ import annotations

from collections.abc import Sequence


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


def _event(record: tuple) -> dict:
    event = {"t": record[0], "ev": record[1]}
    event.update(zip(record[2], record[3:]))
    return event


class Events(Sequence):
    """A read-only view of a tracer's kept events, in emit order. Indexing,
    slicing and iteration build fresh `{"t": ..., "ev": ..., **fields}` dicts,
    so changing one changes neither the trace nor a later report."""

    __slots__ = ("_records",)

    def __init__(self, records: list[tuple]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_event(r) for r in self._records[index]]
        return _event(self._records[index])

    def __iter__(self):
        return map(_event, self._records)


class Tracer:
    """Collects timestamped events. Each emitted event consumes one tick so
    that distinct events never share a timestamp unless the caller moved the
    clock itself (broker completions do). `events` is a read-only view that
    gives each kept event as a fresh dict."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._records: list[tuple] = []
        self._names: dict[tuple, tuple] = {}  # one shared tuple per field list
        self.events = Events(self._records)

    def emit(self, ev: str, **fields) -> None:
        clock = self.clock
        names = tuple(fields)
        names = self._names.setdefault(names, names)
        self._records.append((clock.now, ev, names, *fields.values()))
        clock.now += 1
