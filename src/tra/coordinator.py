"""Two-phase-commit transaction coordinator.

The coordinator owns transaction identity and outcome. Every decision is
written to an append-only log before anyone acts on it (presumed abort: a
transaction with no decision record aborts at recovery). Phase 2 tolerates
crashed participants: the decision stands, the participant finishes the work
when recovery re-drives it through the same phase-2 loop as commit and abort.

The log holds BEGIN, ENLIST (naming the participant), COMMIT, ABORT and END
records per transaction id, declared in LOG_SCHEMA. END marks that phase 2
finished everywhere; a decision without END is unfinished business for
recover().
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .errors import (
    BindingError,
    CoordinatorDown,
    LogCorruptError,
    ResourceCrashed,
    TxnStateError,
    UnknownResourceError,
)
from .faults import CrashPoint, FaultInjector
from .model import ComponentModel, resolve_transactional
from .sim import Tracer
from .txn import TransactionContext, TxnStatus, Vote
from .wal import NAME, LogWriter, read_records

DEFAULT_PREPARE_BUDGET = 1000

LOG_SCHEMA = {"BEGIN": None, "ENLIST": NAME, "COMMIT": None, "ABORT": None, "END": None}


@dataclass(slots=True)
class TxnLogRecord:
    """Replayed per-transaction view of the coordinator log."""

    txn_id: int
    enlisted: list[str]
    status: str = "active"  # a TxnStatus value: "committed" or "aborted" once decided
    ended: bool = False


def replay_log(path: str) -> dict[int, TxnLogRecord]:
    """Reconstruct transaction outcomes from the coordinator log alone.

    Interleaved records from concurrent transactions are fine; per
    transaction the record order must be legal. The log streams through
    once, and only this table of transactions stays alive.
    """
    txns: dict[int, TxnLogRecord] = {}
    for rec in read_records(path, LOG_SCHEMA):
        kind, txn_id = rec[0], rec[1]
        if kind == "BEGIN":
            if txn_id in txns:
                raise LogCorruptError(f"{path}: duplicate BEGIN for txn {txn_id}")
            txns[txn_id] = TxnLogRecord(txn_id, [])
            continue
        entry = txns.get(txn_id)
        if entry is None:
            raise LogCorruptError(f"{path}: {kind} for txn {txn_id} before BEGIN")
        if kind == "ENLIST":
            if entry.status != "active":
                raise LogCorruptError(f"{path}: ENLIST after decision for txn {txn_id}")
            entry.enlisted.append(rec[2])
        elif kind == "END":
            if entry.status == "active" or entry.ended:
                raise LogCorruptError(f"{path}: stray END for txn {txn_id}")
            entry.ended = True
        else:
            if entry.status != "active":
                raise LogCorruptError(f"{path}: duplicate decision for txn {txn_id}")
            entry.status = "committed" if kind == "COMMIT" else "aborted"
    return txns


@dataclass
class RecoveryOutcome:
    recommitted: int = 0
    presumed_aborted: int = 0
    aborts_completed: int = 0


class Coordinator:
    """Owns transaction lifecycle, the decision log, and recovery.

    `services` maps (component, service) to a handler taking (ctx, request)
    so propagate() can dispatch work into another logical component inside
    the caller's transaction. `contexts` holds the transactions begun here
    whose decision is not yet logged; a decided context is refused by its
    status, and the log alone says which participants still owe phase 2.
    """

    def __init__(
        self,
        log_path: str,
        tracer: Tracer | None = None,
        model: ComponentModel | None = None,
        injector: FaultInjector | None = None,
        prepare_budget: int = DEFAULT_PREPARE_BUDGET,
    ) -> None:
        self.log_path = log_path
        self.tracer = tracer if tracer is not None else Tracer()
        self.model = model
        self.services: dict[tuple[str, str], object] = {}
        self.injector = injector if injector is not None else FaultInjector([])
        self.prepare_budget = prepare_budget
        self.registry: dict[str, object] = {}
        self.contexts: dict[int, TransactionContext] = {}
        self.crashed = False
        self._writer = LogWriter(log_path)
        self._next_id = self._scan_next_id()

    # -- setup ----------------------------------------------------------

    def register(self, resource) -> None:
        rm_id = resource.rm_id
        if rm_id in self.registry:
            raise ValueError(f"resource id {rm_id!r} already registered")
        resource.bind(self)
        self.registry[rm_id] = resource

    def bind_service(self, component: str, service: str, handler) -> None:
        self.services[(component, service)] = handler

    def participant_crashed(self, rm_id: str) -> None:
        """Each live transaction that enlisted a crashed participant lost its work there."""
        for ctx in self.contexts.values():
            if rm_id in ctx.enlisted:
                ctx.lost.add(rm_id)

    # -- helpers --------------------------------------------------------

    def _scan_next_id(self) -> int:
        return max(replay_log(self.log_path), default=0) + 1

    def _guard(self) -> None:
        if self.crashed:
            raise CoordinatorDown("coordinator is crashed")

    def _known(self, ctx: TransactionContext) -> None:
        if self.contexts.get(ctx.id) is not ctx:
            raise TxnStateError(
                f"txn {ctx.id} is not live here (begun elsewhere, or lost in a crash)"
            )

    def _log(self, kind: str, *fields) -> None:
        fields = tuple([str(f) for f in fields])  # once, for the log and the event
        self._writer.append(kind, *fields)
        self.tracer.emit("wal", kind, fields)

    def _fire(self, point: CrashPoint, ctx: TransactionContext) -> None:
        self.injector.fire(point, ctx, self.registry)

    # -- lifecycle ------------------------------------------------------

    def begin(self, originator: str) -> TransactionContext:
        self._guard()
        txn_id = self._next_id
        self._next_id += 1
        self._log("BEGIN", txn_id)
        ctx = TransactionContext(id=txn_id, originator=originator)
        self.contexts[txn_id] = ctx
        self.tracer.emit("begin", txn_id, originator)
        return ctx

    def enlist(self, ctx: TransactionContext, rm_id: str) -> None:
        self._guard()
        ctx.require_active("enlist")
        self._known(ctx)
        resource = self.registry.get(rm_id)
        if resource is None:
            raise UnknownResourceError(f"no resource registered as {rm_id!r}")
        if rm_id in ctx.enlisted:
            return
        self._log("ENLIST", ctx.id, rm_id)
        ctx.enlisted.append(rm_id)
        self.tracer.emit("enlist", ctx.id, rm_id)

    def commit(self, ctx: TransactionContext) -> TxnStatus:
        """Run two-phase commit. Returns the decided status.

        A participant that crashed since it enlisted votes NO unasked: it lost
        the work. One that crashes after COMMIT is logged does not change the
        decision; its phase-2 work is left pending for recovery.
        """
        self._guard()
        ctx.require_active("commit")
        self._known(ctx)
        if ctx.rollback_only is not None:  # a failed call: abort it unprepared
            self.tracer.emit("rollback_only", ctx.id, ctx.rollback_only)
            return self._decide(ctx, False)

        self._fire(CrashPoint.BEFORE_PREPARE, ctx)
        ctx.status = TxnStatus.PREPARING
        self.tracer.emit("phase", ctx.id, "prepare")

        vote = Vote.YES  # a transaction with no participants commits
        for rm_id in ctx.enlisted:
            rm = self.registry[rm_id]
            started = self.tracer.now
            reason = None
            try:
                if rm_id in ctx.lost:
                    raise ResourceCrashed(f"{rm_id} crashed in txn {ctx.id}")
                vote = rm.prepare(ctx.id)
            except ResourceCrashed:
                vote = Vote.NO
                reason = "crashed"
            except Exception:  # e.g. its PREPARED append failed: settle, then report it
                self._decide(ctx, False)
                raise
            if vote is Vote.YES and self.tracer.now - started > self.prepare_budget:
                vote = Vote.NO
                reason = "timeout"
            self.tracer.emit("vote", ctx.id, rm_id, vote._value_, reason)  # not the slower .value
            if vote is Vote.NO:
                break

        self._fire(CrashPoint.AFTER_VOTE, ctx)
        return self._decide(ctx, vote is Vote.YES)

    def rollback(self, ctx: TransactionContext) -> TxnStatus:
        self._guard()
        ctx.require_active("rollback")
        self._known(ctx)
        return self._decide(ctx, False)

    def _decide(self, ctx: TransactionContext, commit: bool) -> TxnStatus:
        """Log the decision, drop the context and drive every participant
        through phase 2; END is logged only when none of them is down, so
        recover() re-drives the rest from the log."""
        self._log("COMMIT" if commit else "ABORT", ctx.id)
        ctx.status = TxnStatus.COMMITTED if commit else TxnStatus.ABORTED
        del self.contexts[ctx.id]
        self.tracer.emit("decision", ctx.id, "commit" if commit else "abort")
        op = "commit" if commit else "rollback"
        if commit:
            self._fire(CrashPoint.AFTER_COMMIT_RECORD, ctx)
        down = self._drive(ctx.id, ctx.enlisted[:1], op)
        if commit and ctx.enlisted:  # after the first participant's phase-2 call
            self._fire(CrashPoint.MID_PHASE2, ctx)
        down += self._drive(ctx.id, ctx.enlisted[1:], op)
        if commit:
            self._fire(CrashPoint.AFTER_PHASE2, ctx)
        if not down:
            self._log("END", ctx.id)
        self.tracer.emit("outcome", ctx.id, ctx.status._value_, tuple(sorted(down)))
        return ctx.status

    def _drive(self, txn_id: int, rm_ids: list[str], op: str) -> list[str]:
        """Issue phase 2's `op` ("commit" or "rollback") to each participant
        in order. Returns those that are down; each is left pending."""
        down = []
        for rm_id in rm_ids:
            rm = self.registry.get(rm_id)
            if rm is None:
                raise UnknownResourceError(f"log names unregistered resource {rm_id!r}")
            try:
                getattr(rm, op)(txn_id)
            except ResourceCrashed:
                down.append(rm_id)
                self.tracer.emit("phase2_pending", txn_id, rm_id)
        return down

    # -- cross-component dispatch ------------------------------------------

    def propagate(self, ctx: TransactionContext, component: str, service: str, request: dict) -> dict:
        """Invoke another component's exported transactional service inside the caller's
        transaction; a call that raises or breaks its reply marks it rollback-only."""
        self._guard()
        ctx.require_active("propagate")
        self._known(ctx)
        if self.model is None:
            raise BindingError("no component model configured")
        internal, sig = resolve_transactional(self.model, component, service)
        missing = [f.name for f in sig.request if f.name not in request]
        if missing:
            raise BindingError(f"{component}.{service}: request missing fields {missing}")
        handler = self.services.get((component, service))
        if handler is None:
            raise BindingError(f"{component}.{service} has no implementation bound")
        self.tracer.emit("propagate", ctx.id, component, internal.name, service)
        try:
            response = handler(ctx, request)
            if not isinstance(response, dict):
                raise BindingError(f"{component}.{service}: response is not an object")
            if missing := [f.name for f in sig.response if f.name not in response]:
                raise BindingError(f"{component}.{service}: response missing fields {missing}")
        except Exception as exc:  # the call may have done part of its work: commit must not keep it
            ctx.rollback_only = str(exc)
            raise
        return response

    # -- crash and recovery ---------------------------------------------------

    def crash(self) -> None:
        """Lose all in-memory state; the log file survives."""
        if self.crashed:
            return
        self.contexts.clear()
        self._writer.close()
        self.crashed = True
        self.tracer.emit("crash", "coordinator")

    def restart(self) -> None:
        """Come back up with empty memory; does not run recovery by itself."""
        if not self.crashed:
            return
        self.crashed = False
        self._writer = LogWriter(self.log_path)
        self._next_id = self._scan_next_id()
        self.tracer.emit("restart", "coordinator")

    def recover(self) -> RecoveryOutcome:
        """Finish every transaction the log left undecided or half-done.

        A transaction with no decision is presumed aborted (ABORT is logged
        first) unless it is live and Active here: an rm-only crash does not
        doom unrelated work. Then the decision is driven through phase 2 again
        (participants are idempotent), and END is logged once every
        participant answered.
        """
        self._guard()
        outcome = RecoveryOutcome()
        replayed = replay_log(self.log_path)
        for txn_id in sorted(replayed):
            entry = replayed[txn_id]
            if entry.ended:
                continue
            if entry.status == "active":
                live = self.contexts.get(txn_id)
                if live is not None and live.status is TxnStatus.ACTIVE:
                    continue
                self._log("ABORT", txn_id)
                outcome.presumed_aborted += 1
                if live is not None:  # its decision append failed
                    live.status = TxnStatus.ABORTED
                    del self.contexts[txn_id]
            op = "commit" if entry.status == "committed" else "rollback"
            if self._drive(txn_id, entry.enlisted, op):
                continue  # a participant is still down: the next recover() retries
            self._log("END", txn_id)
            if entry.status == "committed":
                outcome.recommitted += 1
            elif entry.status == "aborted":
                outcome.aborts_completed += 1
        self.tracer.emit("recovered", *astuple(outcome))
        return outcome

    def close(self) -> None:
        self._writer.close()
