"""Simulated time and event tracing.

The whole runtime is single-threaded and deterministic: one tracer holds the
integer clock, `Tracer.now`, and stamps every observable event with it.
Reports are built from the tracer's events, so two runs with the same inputs
produce identical traces byte for byte. A run's tracer keeps every event; any
other tracer keeps only the last `RECENT_EVENTS`, so a long-lived runtime's
memory does not grow with its history.

`EVENTS` declares each event kind's field names once, as a log declares its
schema. `Tracer.emit(ev, *values)` takes the values in that order, and a run
keeps each event in its cheapest form, the tuple `(t, ev, *values)`.
`Tracer.events` turns the kept tuples back into dicts named from `EVENTS`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

# how many of the newest events a tracer keeps unless it is made with keep_all
RECENT_EVENTS = 4096


# event kind -> its field names, in the order `Tracer.emit` takes the values
EVENTS = {
    "begin": ("txn", "originator"),
    "enlist": ("txn", "rm"),
    "wal": ("record", "fields"),
    "phase": ("txn", "phase"),
    "rollback_only": ("txn", "reason"),
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

    def __init__(self, records: deque[tuple]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_event(r) for r in list(self._records)[index]]
        return _event(self._records[index])

    def __iter__(self):
        return map(_event, self._records)


class Tracer:
    """Collects timestamped events and holds the simulated clock, `now`, which
    only moves forward. Each emitted event consumes one tick, so no two events
    share a timestamp; a store's prepare delay and a broker call's completion
    move the clock further. `events` is a read-only view that gives each kept
    event as a fresh dict. It holds the last `RECENT_EVENTS` events, or every
    one with `keep_all`, which a run's report needs."""

    def __init__(self, keep_all: bool = False) -> None:
        self.now = 0
        self._records: deque[tuple] = deque(maxlen=None if keep_all else RECENT_EVENTS)
        self.events = Events(self._records)

    def emit(self, ev: str, *values) -> None:
        """Keep one `ev` event; `values` come in the order `EVENTS[ev]` names."""
        self._records.append((self.now, ev, *values))
        self.now += 1
