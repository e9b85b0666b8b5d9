"""Miniature transactional component runtime.

Layered logical components, a two-phase-commit coordinator over pluggable
resource managers, a table-driven broker for legacy integration, a small
process engine, and a deterministic crash-injection harness around it all.
"""

from importlib import resources as _resources

from .broker import Adapter, BrokerTable, LegacyEndpoint, MessageBroker, load_table
from .coordinator import Coordinator, RecoveryOutcome, replay_log
from .errors import TraError
from .faults import CrashPoint, FaultInjector, FaultSpec
from .harness import Runner, crash_sweep, render_report, run_scenario
from .model import (
    CallEdge,
    ComponentModel,
    LayerKind,
    Violation,
    load_edges,
    load_manifest,
    resolve_binding,
    validate_layering,
)
from .process import ProcessDefinition, ProcessEngine, ProcessInstance, TxnPolicy, load_processes
from .records import FieldSpec, MessageSpec, decode_record, encode_record
from .resources import ManagedStore, TxnQueue
from .scenario import Scenario, load_scenario, load_scenario_file
from .sim import Tracer
from .txn import TransactionContext, TxnStatus, Vote

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Absolute path of a bundled example file (model, scenario, table)."""
    return str(_resources.files(__package__).joinpath("data", name))


__all__ = [
    "Adapter",
    "BrokerTable",
    "CallEdge",
    "ComponentModel",
    "Coordinator",
    "CrashPoint",
    "FaultInjector",
    "FaultSpec",
    "FieldSpec",
    "LayerKind",
    "LegacyEndpoint",
    "ManagedStore",
    "MessageBroker",
    "MessageSpec",
    "ProcessDefinition",
    "ProcessEngine",
    "ProcessInstance",
    "RecoveryOutcome",
    "Runner",
    "Scenario",
    "Tracer",
    "TraError",
    "TransactionContext",
    "TxnPolicy",
    "TxnQueue",
    "TxnStatus",
    "Violation",
    "Vote",
    "crash_sweep",
    "decode_record",
    "encode_record",
    "fixture_path",
    "load_edges",
    "load_manifest",
    "load_processes",
    "load_scenario",
    "load_scenario_file",
    "load_table",
    "render_report",
    "replay_log",
    "resolve_binding",
    "run_scenario",
    "validate_layering",
]
