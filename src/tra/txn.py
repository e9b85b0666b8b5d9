"""Transaction state shared by the coordinator and resource managers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import TxnStateError


class TxnStatus(Enum):
    """Coordinator-side lifecycle of a transaction: ACTIVE until commit starts
    prepare, PREPARING until the votes are in, then the decision the coordinator
    has logged, COMMITTED or ABORTED, from the moment its record is appended."""

    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ is Python code


class Vote(Enum):
    """A participant's answer to prepare."""

    YES = "yes"
    NO = "no"


@dataclass
class TransactionContext:
    """Handle threaded through every transactional call.

    `enlisted` keeps enlistment order; `lost` holds the rm ids that crashed while
    enlisted. Only the coordinator sets `status`, and it drops the context once
    the decision is logged; every entry point calls `require_active`.
    """

    id: int
    originator: str
    status: TxnStatus = TxnStatus.ACTIVE
    enlisted: list[str] = field(default_factory=list)
    lost: set[str] = field(default_factory=set)
    rollback_only: str | None = None  # why a failed `propagate` doomed it, if one did

    def require_active(self, op: str) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TxnStateError(
                f"txn {self.id}: {op} requires an active transaction, status is {self.status.value}"
            )
