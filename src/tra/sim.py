"""Simulated time and event tracing.

The whole runtime is single-threaded and deterministic: one integer clock,
advanced explicitly, and one tracer that stamps every observable event with the
current tick. Reports are built from the tracer's events, so two runs with the
same inputs produce identical traces byte for byte.

`EVENTS` declares each event kind's field names once, as a log declares its
schema. `Tracer.emit(ev, *values)` takes the values in that order, and a run
keeps each event in its cheapest form, the tuple `(t, ev, *values)`.
`Tracer.events` turns the kept tuples back into dicts named from `EVENTS`.
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


# event kind -> its field names, in the order `Tracer.emit` takes the values
EVENTS = {
    "begin": ("txn", "originator"),
    "enlist": ("txn", "rm"),
    "wal": ("record", "fields"),
    "phase": ("txn", "phase"),
    "vote": ("txn", "rm", "vote", "reason"),
    "decision": ("txn", "decision"),
    "phase2_pending": ("txn", "rm"),
    "outcome": ("txn", "status", "pending"),
    "propagate": ("txn", "component", "internal", "service"),
    "crash": ("who",),
    "restart": ("who",),
    "recovered": ("recommitted", "presumed_aborted", "aborts_completed"),
    "rm_vote": ("rm", "txn", "vote"),
    "rm_commit": ("rm", "txn"),
    "rm_rollback": ("rm", "txn"),
    "recover": ("who", "prepared"),
    "send": ("rm", "txn", "staged"),
    "receive": ("rm", "txn", "empty"),
    "broker_dispatch": ("call", "endpoint", "mode"),
    "broker_reply": ("call", "endpoint", "at"),
    "broker_error": ("call", "endpoint", "at"),
    "broker_timeout": ("call", "endpoint", "at"),
    "broker_bad_reply": ("call", "endpoint", "at"),
    "broker_staged": ("txn", "service", "queue"),
    "broker_poison": ("queue",),
    "invoked": ("service", "response"),
    "step": ("process", "step", "component", "service"),
    "process_failed": ("process", "step", "reason"),
}


def _event(record: tuple) -> dict:
    names = EVENTS[record[1]]
    if len(names) != len(record) - 2:
        raise ValueError(f"{record[1]} event holds {len(record) - 2} values, declared {len(names)}")
    event = {"t": record[0], "ev": record[1]}
    event.update(zip(names, record[2:]))
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
        self.events = Events(self._records)

    def emit(self, ev: str, *values) -> None:
        """Keep one `ev` event; `values` come in the order `EVENTS[ev]` names."""
        clock = self.clock
        self._records.append((clock.now, ev, *values))
        clock.now += 1
