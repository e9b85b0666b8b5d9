"""Two-phase-commit transaction coordinator.

The coordinator owns transaction identity and outcome. Every decision is
written to an append-only log before anyone acts on it (presumed abort: a
transaction with no decision record aborts at recovery). Phase 2 tolerates
crashed participants: the decision stands, the participant finishes the work
when recovery re-drives it.

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


@dataclass
class TxnLogRecord:
    """Replayed per-transaction view of the coordinator log."""

    txn_id: int
    enlisted: list[str]
    decision: str | None = None  # "commit" | "abort"
    ended: bool = False

    @property
    def status(self) -> str:
        decided = {"commit": TxnStatus.COMMITTED, "abort": TxnStatus.ABORTED}
        return decided.get(self.decision, TxnStatus.ACTIVE).value


def replay_log(path: str) -> dict[int, TxnLogRecord]:
    """Reconstruct transaction outcomes from the coordinator log alone.

    Interleaved records from concurrent transactions are fine; per
    transaction the record order must be legal.
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
            if entry.decision is not None:
                raise LogCorruptError(f"{path}: ENLIST after decision for txn {txn_id}")
            entry.enlisted.append(rec[2])
        elif kind == "END":
            if entry.decision is None or entry.ended:
                raise LogCorruptError(f"{path}: stray END for txn {txn_id}")
            entry.ended = True
        else:
            if entry.decision is not None:
                raise LogCorruptError(f"{path}: duplicate decision for txn {txn_id}")
            entry.decision = kind.lower()
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
    whose END is not yet logged; a finished context is refused by its status.
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

        A crashed participant does not change the decision: once COMMIT is
        logged the transaction is committed, and the participant's phase-2
        work is left pending for recovery.
        """
        self._guard()
        ctx.require_active("commit")
        self._known(ctx)

        self._fire(CrashPoint.BEFORE_PREPARE, ctx)
        ctx.transition(TxnStatus.PREPARING)
        self.tracer.emit("phase", ctx.id, "prepare")

        all_yes = True
        for rm_id in ctx.enlisted:
            rm = self.registry[rm_id]
            started = self.tracer.clock.now
            reason = None
            try:
                vote = rm.prepare(ctx.id)
            except ResourceCrashed:
                vote = Vote.NO
                reason = "crashed"
            except Exception:  # e.g. its PREPARED append failed: settle, then report it
                self._abort(ctx)
                raise
            if vote is Vote.YES and self.tracer.clock.now - started > self.prepare_budget:
                vote = Vote.NO
                reason = "timeout"
            self.tracer.emit("vote", ctx.id, rm_id, vote._value_, reason)  # not the slower .value
            if vote is Vote.NO:
                all_yes = False
                break

        self._fire(CrashPoint.AFTER_VOTE, ctx)

        if not all_yes:
            return self._abort(ctx)

        self._log("COMMIT", ctx.id)
        ctx.transition(TxnStatus.COMMITTING)
        self.tracer.emit("decision", ctx.id, "commit")
        self._fire(CrashPoint.AFTER_COMMIT_RECORD, ctx)

        for idx, rm_id in enumerate(ctx.enlisted):
            try:
                self.registry[rm_id].commit(ctx.id)
            except ResourceCrashed:
                ctx.pending.add(rm_id)
                self.tracer.emit("phase2_pending", ctx.id, rm_id)
            if idx == 0:
                self._fire(CrashPoint.MID_PHASE2, ctx)
        self._fire(CrashPoint.AFTER_PHASE2, ctx)

        self._finish(ctx, TxnStatus.COMMITTED)
        return ctx.status

    def rollback(self, ctx: TransactionContext) -> TxnStatus:
        self._guard()
        ctx.require_active("rollback")
        self._known(ctx)
        return self._abort(ctx)

    def _abort(self, ctx: TransactionContext) -> TxnStatus:
        """Decide abort and roll back every participant; a crashed one is
        left pending for recover()."""
        self._log("ABORT", ctx.id)
        ctx.transition(TxnStatus.ABORTING)
        self.tracer.emit("decision", ctx.id, "abort")
        for rm_id in ctx.enlisted:
            try:
                self.registry[rm_id].rollback(ctx.id)
            except ResourceCrashed:
                ctx.pending.add(rm_id)
                self.tracer.emit("phase2_pending", ctx.id, rm_id)
        self._finish(ctx, TxnStatus.ABORTED)
        return ctx.status

    def _finish(self, ctx: TransactionContext, terminal: TxnStatus) -> None:
        # END only when every participant finished phase 2, and then the
        # context is dropped; otherwise the decision record stays open for
        # recover(), which settles the live context.
        if not ctx.pending:
            self._log("END", ctx.id)
            del self.contexts[ctx.id]
        ctx.transition(terminal)
        self.tracer.emit("outcome", ctx.id, terminal._value_, tuple(sorted(ctx.pending)))

    # -- cross-component dispatch ------------------------------------------

    def propagate(self, ctx: TransactionContext, component: str, service: str, request: dict) -> dict:
        """Invoke another component's exported transactional service inside
        the caller's transaction."""
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
        return handler(ctx, request)

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
        doom unrelated work. Then the decision is re-driven (participants are
        idempotent), and END is logged once every participant answered.
        """
        self._guard()
        outcome = RecoveryOutcome()
        replayed = replay_log(self.log_path)
        for txn_id in sorted(replayed):
            entry = replayed[txn_id]
            if entry.ended:
                continue
            live = self.contexts.get(txn_id)
            commit = entry.decision == "commit"
            if entry.decision is None:
                if live is not None and live.status is TxnStatus.ACTIVE:
                    continue
                self._log("ABORT", txn_id)
            finished = self._redrive(txn_id, entry.enlisted, "commit" if commit else "rollback")
            if finished:
                self._log("END", txn_id)
            if entry.decision is None:
                outcome.presumed_aborted += 1
            elif not finished:
                continue  # a participant is still down: the next recover() retries
            elif commit:
                outcome.recommitted += 1
            else:
                outcome.aborts_completed += 1
            if live is not None:
                live.status = TxnStatus.COMMITTED if commit else TxnStatus.ABORTED
                live.pending.clear()
                if finished:
                    del self.contexts[txn_id]
        self.tracer.emit("recovered", *astuple(outcome))
        return outcome

    def _redrive(self, txn_id: int, rm_ids: list[str], op: str) -> bool:
        """Re-issue phase 2. False when a participant is still down."""
        ok = True
        for rm_id in rm_ids:
            rm = self.registry.get(rm_id)
            if rm is None:
                raise UnknownResourceError(f"log names unregistered resource {rm_id!r}")
            try:
                getattr(rm, op)(txn_id)
            except ResourceCrashed:
                ok = False
        return ok

    def close(self) -> None:
        self._writer.close()
