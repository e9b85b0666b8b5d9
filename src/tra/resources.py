"""Transactional resource managers.

Two managed resource kinds participate in two-phase commit: a versioned
key-value store with optimistic validation, and a message queue with
send-at-commit staging. Both keep a small local log (PREPARED/DONE records)
so a prepared transaction survives a crash of the manager, and both follow
the base class's participant skeleton: a workspace opened on first access ->
prepare stages it and logs the vote -> commit applies / rollback reverts.
"""

from __future__ import annotations

from collections import deque
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable

from .errors import LogCorruptError, ResourceCrashed, StoreLimitError, TxnStateError
from .shape import LIST, NAME, OBJECT, STR, UINT, Each, Kind, Obj, check
from .sim import Tracer
from .txn import TransactionContext, Vote
from .wal import PAYLOAD, LogWriter, read_records

MAX_KEY_LEN = 256
MAX_VALUE_BYTES = 64 * 1024

_TOMBSTONE = object()

# compact JSON, so never a tab or a newline: one log field. One C encoder serves every
# call (JSONEncoder.encode builds one per call); a payload has no cycles to check for.
_encode = c_make_encoder(None, None, encode_basestring_ascii, None, ":", ",", False, False, True)


def _to_json(payload: dict) -> str:
    return "".join(_encode(payload, 0))


class ResourceManager:
    """Participant skeleton: guards, workspaces, the local log, prepared
    bookkeeping.

    A subclass names its workspace class in `_Work` and declares the shape of
    its prepare payload, an `Obj` of required keys, in `_payload`. It implements
    two hooks, `_validate_and_stage` (workspace -> payload, or None to vote
    NO) and `_apply` (commit a prepared payload), and overrides `_unstage`
    (roll back a prepared payload) and `_discard` (drop a workspace) where
    they must give something back. A prepared transaction holds nothing but
    its payload in `_prepared`. The subclasses' committed image stands in for
    durable state; a crash only drops the workspaces, and recover() replaces
    the prepared and finished sets with what the log holds.
    """

    def __init__(
        self,
        rm_id: str,
        log_path: str,
        tracer: Tracer | None = None,
        prepare_delay: int = 0,
    ) -> None:
        check(NAME, rm_id, ValueError, "rm_id")  # it names a log file and is a log field
        check(UINT, prepare_delay, ValueError, "prepare_delay")  # the clock only moves forward
        self.rm_id = rm_id
        self.log_path = log_path
        self.tracer = tracer if tracer is not None else Tracer()
        self.prepare_delay = prepare_delay
        self.crashed = False
        self._coordinator = None
        self._writer = LogWriter(log_path)
        self._work: dict = {}  # txn id -> workspace, in first-access order
        self._prepared: dict[int, dict] = {}
        self._done: set[int] = set()

    # -- wiring ---------------------------------------------------------

    def bind(self, coordinator) -> None:
        self._coordinator = coordinator

    def _guard(self) -> None:
        if self.crashed:
            raise ResourceCrashed(f"{self.rm_id} is crashed")

    def _work_for(self, ctx: TransactionContext):
        """Every access enlists this manager; the first opens a workspace."""
        self._guard()
        if self._coordinator is not None:
            self._coordinator.enlist(ctx, self.rm_id)
        else:
            ctx.require_active(f"{self.rm_id} access")
        ws = self._work.get(ctx.id)
        if ws is None:
            ws = self._work[ctx.id] = self._Work()
        return ws

    # -- participant contract -------------------------------------------

    def prepare(self, txn_id: int) -> Vote:
        self._guard()
        if txn_id in self._done or txn_id in self._prepared:
            raise TxnStateError(f"{self.rm_id}: txn {txn_id} already prepared or finished")
        if self.prepare_delay:
            self.tracer.now += self.prepare_delay
        payload = self._validate_and_stage(txn_id, self._work.get(txn_id) or self._Work())
        if payload is None:  # the workspace goes with the abort's rollback, a recovery's or a crash
            self.tracer.emit("rm_vote", self.rm_id, txn_id, "no")
            return Vote.NO
        # a failed append leaves the workspace open, so a rollback gives back what it took
        self._writer.append("PREPARED", str(txn_id), _to_json(payload))
        self._prepared[txn_id] = payload
        self._work.pop(txn_id, None)
        self.tracer.emit("rm_vote", self.rm_id, txn_id, "yes")
        return Vote.YES

    def commit(self, txn_id: int) -> None:
        self._guard()
        if txn_id in self._done:
            return  # phase-2 retry after recovery
        if txn_id not in self._prepared:
            raise TxnStateError(f"{self.rm_id}: commit of txn {txn_id} without prepare")
        # DONE first: a failed append leaves the payload prepared, so the re-drive applies it
        self._writer.append("DONE", str(txn_id))
        self._apply(txn_id, self._prepared.pop(txn_id))
        self._done.add(txn_id)
        self.tracer.emit("rm_commit", self.rm_id, txn_id)

    def rollback(self, txn_id: int) -> None:
        self._guard()
        if txn_id in self._done:
            return
        if txn_id in self._prepared:
            self._writer.append("DONE", str(txn_id))  # first, as in commit
            self._unstage(txn_id, self._prepared.pop(txn_id))
            self._done.add(txn_id)
        else:  # idempotent: there may be no workspace here for this txn
            self._discard(txn_id)
        self.tracer.emit("rm_rollback", self.rm_id, txn_id)

    def crash(self) -> None:
        """Drop every workspace and close the log; recover() rebuilds the rest from it."""
        if self.crashed:
            return
        # latest first, so a queue's earliest receive lands back at the head
        for txn_id in reversed(list(self._work)):
            self._discard(txn_id)
        self._writer.close()
        self.crashed = True
        if self._coordinator is not None:  # no live transaction may commit on the work lost here
            self._coordinator.participant_crashed(self.rm_id)
        self.tracer.emit("crash", self.rm_id)

    def close(self) -> None:
        """Release the log file handle (end of a simulated run)."""
        self._writer.close()

    def recover(self) -> None:
        """Rebuild prepared state from the local log. No-op if never crashed."""
        if not self.crashed:
            return
        prepared, done = {}, set()
        for rec in read_records(self.log_path, {"PREPARED": PAYLOAD, "DONE": None}):
            if rec[0] == "PREPARED":
                prepared[rec[1]] = rec[2]
            else:
                done.add(rec[1])
                prepared.pop(rec[1], None)
        for txn_id, payload in prepared.items():  # only a kept payload is used again
            try:
                check(self._payload, payload, LogCorruptError, "payload")
            except LogCorruptError as exc:
                raise LogCorruptError(f"{self.log_path}: bad record for txn {txn_id}: {exc}") from None
        # a corrupt log leaves the manager crashed: nothing runs on top of it
        self.crashed = False
        self._writer = LogWriter(self.log_path)
        self._prepared, self._done = prepared, done
        self.tracer.emit("recover", self.rm_id, len(self._prepared))

    # -- subclass hooks --------------------------------------------------

    def _unstage(self, txn_id: int, payload: dict) -> None:
        """Give back what a rolled-back payload took."""

    def _discard(self, txn_id: int) -> None:
        self._work.pop(txn_id, None)


def _check_keys(keys: Iterable) -> None:
    """Each key is a non-empty string of at most MAX_KEY_LEN characters.

    The batch is checked whole first, by string operations in C: joining it
    (one temporary copy of its text) refuses a non-string, and the joined
    length, or failing that the longest key's, bounds every key. A batch this
    pass does not accept runs the per-entry loop, which names the first bad
    key.
    """
    if iter(keys) is keys:  # a one-shot iterable: both passes must see the same keys
        keys = list(keys)
    try:
        joined = "".join(keys)
    except TypeError:
        pass
    else:
        if "" not in keys and (len(joined) <= MAX_KEY_LEN or max(map(len, keys)) <= MAX_KEY_LEN):
            return
    for key in keys:
        if not isinstance(key, str) or not key:
            raise StoreLimitError("keys must be non-empty strings")
        if len(key) > MAX_KEY_LEN:
            raise StoreLimitError(f"key longer than {MAX_KEY_LEN} characters")


def _check_values(values: Iterable, empty: bool = True) -> None:
    """Text of at most MAX_VALUE_BYTES in UTF-8; a message (empty=False) is also non-empty.

    The batch is checked whole first, as in _check_keys (the join makes one
    temporary copy of its text): ASCII text is its own UTF-8 with no lone
    surrogate, so each value's size is its length. A batch this pass does not
    accept, a bad one or valid non-ASCII text, runs the per-entry loop, which
    names the first bad value.
    """
    if iter(values) is values:
        values = list(values)
    try:
        joined = "".join(values)
    except TypeError:
        pass
    else:
        if (
            (empty or "" not in values)
            and joined.isascii()
            and (len(joined) <= MAX_VALUE_BYTES or max(map(len, values)) <= MAX_VALUE_BYTES)
        ):
            return
    for value in values:
        if not isinstance(value, str):
            raise StoreLimitError("values must be strings")
        if not value and not empty:
            raise StoreLimitError("messages must be non-empty")
        try:  # the UTF-8 size: only non-ASCII text is encoded to find it
            size = len(value) if value.isascii() else len(value.encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
            raise StoreLimitError("values must be valid Unicode text, with no lone surrogates") from None
        if size > MAX_VALUE_BYTES:
            raise StoreLimitError(f"value larger than {MAX_VALUE_BYTES} bytes")


# one prepared write of a store: ["put", value] or ["del"]
_WRITE = Kind(
    (list,), '["put", <string>] or ["del"]',
    lambda op: op == ["del"] or (len(op) == 2 and op[0] == "put" and type(op[1]) is str),
)


class _StoreWork:
    """Per-transaction workspace: first-observed read versions plus buffered
    writes (value or tombstone)."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: dict[str, int] = {}
        self.writes: dict[str, object] = {}


class ManagedStore(ResourceManager):
    """Versioned key-value store with optimistic validation.

    Reads record the version they observed; writes buffer in the workspace.
    The commit locks are the write sets of the prepared payloads. Prepare
    votes NO when a recorded read's version moved, when a write key is
    locked, and when a read key is locked (without that check two
    read-write transactions with disjoint write sets could both pass
    validation and produce a non-serializable result).
    """

    _Work = _StoreWork
    _payload = Obj({"writes": Each(OBJECT, _WRITE)})

    def __init__(self, rm_id, log_path, tracer=None, prepare_delay=0):
        super().__init__(rm_id, log_path, tracer, prepare_delay)
        self._data: dict[str, str] = {}
        self._versions: dict[str, int] = {}

    def seed(self, initial: dict[str, str]) -> None:
        """Install committed state (scenario setup, no transaction); a refused seed installs nothing."""
        _check_keys(initial)
        _check_values(initial.values())
        self._data.update(initial)

    # -- transactional operations ----------------------------------------

    def get(self, ctx: TransactionContext, key: str) -> str | None:
        _check_keys((key,))
        ws = self._work_for(ctx)
        if key in ws.writes:
            buffered = ws.writes[key]
            return None if buffered is _TOMBSTONE else buffered  # type: ignore[return-value]
        ws.reads.setdefault(key, self._versions.get(key, 0))
        return self._data.get(key)

    def put(self, ctx: TransactionContext, key: str, value: str) -> None:
        _check_keys((key,))
        _check_values((value,))
        ws = self._work_for(ctx)
        ws.writes[key] = value

    def delete(self, ctx: TransactionContext, key: str) -> None:
        _check_keys((key,))
        ws = self._work_for(ctx)
        ws.writes[key] = _TOMBSTONE

    # -- inspection -------------------------------------------------------

    def committed_value(self, key: str) -> str | None:
        return self._data.get(key)

    def committed_snapshot(self) -> dict[str, str]:
        return dict(self._data)

    def version(self, key: str) -> int:
        return self._versions.get(key, 0)

    # -- participant hooks -------------------------------------------------

    def _validate_and_stage(self, txn_id: int, ws: _StoreWork) -> dict | None:
        # prepare refuses a prepared txn, so txn_id holds none of these locks
        locked = {key for p in self._prepared.values() for key in p["writes"]}
        for key, seen in ws.reads.items():
            if self._versions.get(key, 0) != seen or key in locked:
                return None
        if not locked.isdisjoint(ws.writes):
            return None
        writes = {}
        for key in sorted(ws.writes):
            v = ws.writes[key]
            writes[key] = ["del"] if v is _TOMBSTONE else ["put", v]
        return {"writes": writes}

    def _apply(self, txn_id: int, payload: dict) -> None:
        for key, op in payload["writes"].items():
            if op[0] == "del":
                self._data.pop(key, None)
            else:
                self._data[key] = op[1]
            self._versions[key] = self._versions.get(key, 0) + 1


class _QueueWork:
    __slots__ = ("sends", "receives")

    def __init__(self) -> None:
        self.sends: list[str] = []
        self.receives: list[str] = []


class TxnQueue(ResourceManager):
    """FIFO message queue with transactional send and receive.

    Sends stage in the workspace and only reach the committed queue at
    commit. Receives provisionally remove the head; rollback or a crash puts
    a transaction's receives back at the front in their original relative
    order (earliest receiver closest to the head when several transactions
    unwind at once).
    """

    _Work = _QueueWork
    _payload = Obj({"sends": Each(LIST, STR), "receives": Each(LIST, STR)})

    def __init__(self, rm_id, log_path, tracer=None, prepare_delay=0):
        super().__init__(rm_id, log_path, tracer, prepare_delay)
        self._messages: deque[str] = deque()
        # instrumentation for the conservation invariant, not rm state
        self.initial_depth = 0
        self.committed_sends = 0
        self.committed_receives = 0

    def seed(self, messages: list[str]) -> None:
        """Append committed messages (scenario setup, no transaction); a refused seed appends nothing."""
        _check_values(messages, empty=False)
        self._messages.extend(messages)
        self.initial_depth += len(messages)

    def send(self, ctx: TransactionContext, message: str) -> None:
        _check_values((message,), empty=False)
        ws = self._work_for(ctx)
        ws.sends.append(message)
        self.tracer.emit("send", self.rm_id, ctx.id, True)

    def receive(self, ctx: TransactionContext) -> str | None:
        """Provisionally take the head message; None when the committed queue
        is empty. A transaction never sees its own staged sends."""
        ws = self._work_for(ctx)
        if not self._messages:
            self.tracer.emit("receive", self.rm_id, ctx.id, True)
            return None
        msg = self._messages.popleft()
        ws.receives.append(msg)
        self.tracer.emit("receive", self.rm_id, ctx.id, False)
        return msg

    # -- inspection ---------------------------------------------------------

    def peek(self) -> tuple[str, ...]:
        """Committed-visible contents, head first."""
        return tuple(self._messages)

    def depth(self) -> int:
        return len(self._messages)

    def conservation_holds(self) -> bool:
        return (
            self.initial_depth + self.committed_sends - self.committed_receives
            == len(self._messages)
        )

    # -- participant hooks ----------------------------------------------------

    def _validate_and_stage(self, txn_id: int, ws: _QueueWork) -> dict | None:
        return {"sends": ws.sends, "receives": ws.receives}

    def _apply(self, txn_id: int, payload: dict) -> None:
        self._messages.extend(payload["sends"])
        self.committed_sends += len(payload["sends"])
        self.committed_receives += len(payload["receives"])

    def _unstage(self, txn_id: int, payload: dict) -> None:
        self._messages.extendleft(reversed(payload["receives"]))

    def _discard(self, txn_id: int) -> None:
        ws = self._work.pop(txn_id, None)
        if ws is not None:  # hand the receives back to the head
            self._messages.extendleft(reversed(ws.receives))
