"""Minimal business-process engine.

A process definition is an ordered list of steps. A step either invokes an
exported service of some component (through the coordinator, inside a
transaction) or runs a named subprocess in place. The transaction policy is
per definition: PER_STEP gives every step its own transaction, SPANNING runs
the whole flattened instance inside one.

Step inputs are mapped from instance variables ("var:NAME") or literals
("lit:TEXT"); outputs copy response fields ("resp.FIELD") back into
variables. Both maps are parsed when the step is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import ProcessError, TraError
from .model import ComponentModel, resolve_transactional
from .shape import LIST, NAME, OBJECT, Each, Obj, check, one_of
from .source import MISSING, parse, resolve
from .txn import TxnStatus


class TxnPolicy(Enum):
    PER_STEP = "per_step"
    SPANNING = "spanning"


class InstanceState(Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class Step:
    name: str
    component: str | None = None
    service: str | None = None
    subprocess: str | None = None
    input_map: dict = field(default_factory=dict)
    output_map: dict = field(default_factory=dict)

    def __post_init__(self):
        is_call = self.component is not None or self.service is not None
        if is_call and (self.component is None or self.service is None):
            raise ProcessError(f"step {self.name}: component and service go together")
        if is_call == (self.subprocess is not None):
            raise ProcessError(f"step {self.name}: exactly one of service or subprocess")
        for attr, scopes in (("input_map", ("var", "lit")), ("output_map", ("resp",))):
            texts = getattr(self, attr).items()
            parsed = {k: parse(v, scopes, ProcessError, f"step {self.name}") for k, v in texts}
            object.__setattr__(self, attr, parsed)


@dataclass
class ProcessDefinition:
    name: str
    policy: TxnPolicy
    steps: list[Step]

    def __post_init__(self):
        names = [s.name for s in self.steps]
        if len(set(names)) != len(names):
            raise ProcessError(f"{self.name}: duplicate step names")

    def subprocess_names(self) -> list[str]:
        return [s.subprocess for s in self.steps if s.subprocess is not None]


@dataclass
class ProcessInstance:
    definition: str
    variables: dict
    state: InstanceState = InstanceState.RUNNING
    completed_steps: int = 0  # steps whose transaction committed
    failed_step: str | None = None
    reason: str | None = None


_STEP = Obj({"name": NAME}, {
    "component": NAME, "service": NAME, "subprocess": NAME, "input": OBJECT, "output": OBJECT,
})
PROCESS = Obj(
    {"name": NAME}, {"policy": one_of(*(p.value for p in TxnPolicy)), "steps": Each(LIST, _STEP)}
)


def load_definition(doc: dict) -> ProcessDefinition:
    check(PROCESS, doc, ProcessError, "process")
    steps = [
        Step(
            s["name"], s.get("component"), s.get("service"), s.get("subprocess"),
            s.get("input", {}), s.get("output", {}),
        )
        for s in doc.get("steps", ())
    ]
    return ProcessDefinition(doc["name"], TxnPolicy(doc.get("policy", "per_step")), steps)


def _check_cycles(definitions: Mapping[str, ProcessDefinition], name: str, path: tuple = ()) -> None:
    """Refuse a subprocess cycle reachable from name. An undefined child is
    no cycle: it fails the instance at execute."""
    if name in path:
        raise ProcessError("subprocess cycle: " + " -> ".join((*path, name)))
    for child in definitions[name].subprocess_names() if name in definitions else ():
        _check_cycles(definitions, child, (*path, name))


class ProcessEngine:
    """Holds definitions and runs instances through the coordinator."""

    def __init__(self, model: ComponentModel, coordinator) -> None:
        self.model = model
        self.coordinator = coordinator
        self.definitions: dict[str, ProcessDefinition] = {}

    # -- definition management ---------------------------------------------

    def define(self, definition: ProcessDefinition) -> None:
        """Register a definition whose services resolve as transactional and
        that closes no cycle."""
        if definition.name in self.definitions:
            raise ProcessError(f"process {definition.name} already defined")
        for step in definition.steps:
            if step.service is not None:
                resolve_transactional(self.model, step.component, step.service)
        candidate = {**self.definitions, definition.name: definition}
        _check_cycles(candidate, definition.name)
        self.definitions = candidate

    def flatten(self, name: str) -> list[Step]:
        """Expand subprocess steps depth-first into one service-step list;
        `define` keeps the registry free of cycles."""
        defn = self.definitions.get(name)
        if defn is None:
            raise ProcessError(f"no process {name!r}")
        out: list[Step] = []
        for step in defn.steps:
            if step.subprocess is not None:
                out.extend(self.flatten(step.subprocess))
            else:
                out.append(step)
        return out

    # -- execution ---------------------------------------------------------------

    def start(self, name: str, variables: dict | None = None) -> ProcessInstance:
        if name not in self.definitions:
            raise ProcessError(f"no process {name!r}")
        return ProcessInstance(definition=name, variables=dict(variables or {}))

    def execute(self, instance: ProcessInstance) -> ProcessInstance:
        """Run the flattened steps in transaction groups: one step per group
        under PER_STEP, all of them in one group under SPANNING."""
        defn = self.definitions[instance.definition]
        try:
            steps = self.flatten(instance.definition)
        except ProcessError as exc:
            return self._fail(instance, None, str(exc))
        spanning = defn.policy is TxnPolicy.SPANNING
        groups = [steps] if spanning and steps else [[step] for step in steps]
        for group in groups:
            ctx = self.coordinator.begin(f"process:{instance.definition}")
            outputs: dict = {}  # the group's variables, kept only if its transaction commits
            for step in group:
                try:
                    self._run_step(instance, ctx, step, outputs)
                except TraError as exc:
                    self._quiet_rollback(ctx)
                    return self._fail(instance, step.name, str(exc))
            if self.coordinator.commit(ctx) is not TxnStatus.COMMITTED:
                # a spanning transaction is refused as a whole, not at one step
                failed = None if spanning else group[0].name
                return self._fail(instance, failed, "transaction aborted")
            instance.variables.update(outputs)
            instance.completed_steps += len(group)
        instance.state = InstanceState.COMPLETED
        return instance

    def _quiet_rollback(self, ctx) -> None:
        try:
            self.coordinator.rollback(ctx)
        except TraError:
            pass  # already rolled back or lost; the instance fails either way

    def _run_step(self, instance: ProcessInstance, ctx, step: Step, outputs: dict) -> None:
        """Run one service step, writing its outputs to the group's `outputs`."""
        request, scopes = {}, {"var": {**instance.variables, **outputs}}
        for fname, src in step.input_map.items():
            request[fname] = resolve(src, scopes)
            if request[fname] is MISSING:
                raise ProcessError(f"step {step.name}: unset variable {src.path[0]!r}")
        self.coordinator.tracer.emit(
            "step", instance.definition, step.name, step.component, step.service
        )
        response = self.coordinator.propagate(ctx, step.component, step.service, request)
        for var, src in step.output_map.items():
            value = resolve(src, {"resp": response})
            if value is MISSING:
                raise ProcessError(f"step {step.name}: response has no field {src.path[0]!r}")
            outputs[var] = value

    def _fail(self, instance: ProcessInstance, step: str | None, reason: str) -> ProcessInstance:
        instance.state = InstanceState.FAILED
        instance.failed_step = step
        instance.reason = reason
        self.coordinator.tracer.emit("process_failed", instance.definition, step, reason)
        return instance
