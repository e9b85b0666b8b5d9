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

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ is Python code


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

    `enlisted` keeps enlistment order; `pending` holds rm ids owed a phase-2 call
    after a crash (emptied by recovery), `lost` those that crashed while enlisted.
    """

    id: int
    originator: str
    status: TxnStatus = TxnStatus.ACTIVE
    enlisted: list[str] = field(default_factory=list)
    pending: set[str] = field(default_factory=set)
    lost: set[str] = field(default_factory=set)

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
