"""Exception taxonomy shared across the runtime.

Everything the library raises deliberately derives from TraError so callers can
catch one type at the boundary. Crash signals used by the fault harness are not
errors and live in tra.faults.
"""


class TraError(Exception):
    """Base class for all runtime errors."""


class ManifestError(TraError):
    """Component manifest is malformed or violates a model invariant."""


class EdgeError(TraError):
    """A declared call edge references endpoints missing from the model."""


class BindingError(TraError):
    """Service resolution failed: unknown component/service, not exported,
    not transactional, or no implementation bound."""


class TxnStateError(TraError):
    """Operation is illegal for the transaction's current state."""


class UnknownResourceError(TraError):
    """Resource manager id is not registered with the coordinator."""


class ResourceCrashed(TraError):
    """Operation attempted on a crashed participant."""


class CoordinatorDown(TraError):
    """Operation attempted on a crashed coordinator."""


class LogCorruptError(TraError):
    """A durable log contains a record that cannot be parsed."""


class StoreLimitError(TraError):
    """Key or value violates the store's size limits."""


class CodecError(TraError):
    """Fixed-width record encode/decode failure. Carries the field name."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TableError(TraError):
    """Broker table failed validation when it loaded or was registered."""


class InvokeError(TraError):
    """A brokered service invocation failed (timeout, endpoint error,
    undecodable reply, unknown service)."""


class ProcessError(TraError):
    """Process definition or composition is invalid."""


class ScenarioError(TraError):
    """Scenario file is malformed or an action cannot be interpreted."""
