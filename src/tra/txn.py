"""Transaction state shared by the coordinator and resource managers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import TxnStateError


class TxnStatus(Enum):
    """Coordinator-side lifecycle of a transaction."""

    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTING = "aborting"
    ABORTED = "aborted"


# status -> statuses it may move to
_TRANSITIONS = {
    TxnStatus.ACTIVE: {TxnStatus.PREPARING, TxnStatus.ABORTING},
    TxnStatus.PREPARING: {TxnStatus.COMMITTING, TxnStatus.ABORTING},
    TxnStatus.COMMITTING: {TxnStatus.COMMITTED},
    TxnStatus.ABORTING: {TxnStatus.ABORTED},
    TxnStatus.COMMITTED: set(),
    TxnStatus.ABORTED: set(),
}


class Vote(Enum):
    """A participant's answer to prepare."""

    YES = "yes"
    NO = "no"


@dataclass
class TransactionContext:
    """Handle threaded through every transactional call.

    `enlisted` preserves enlistment order; `pending` holds rm ids still owed a
    phase-2 call after a participant crash (emptied by recovery).
    """

    id: int
    originator: str
    status: TxnStatus = TxnStatus.ACTIVE
    enlisted: list[str] = field(default_factory=list)
    pending: set[str] = field(default_factory=set)

    def transition(self, to: TxnStatus) -> None:
        if to not in _TRANSITIONS[self.status]:
            raise TxnStateError(
                f"txn {self.id}: illegal transition {self.status.value} -> {to.value}"
            )
        self.status = to

    def require_active(self, op: str) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TxnStateError(
                f"txn {self.id}: {op} requires an active transaction, status is {self.status.value}"
            )
