"""Minimal business-process engine.

A process definition is an ordered list of steps. A step either invokes an
exported service of some component (through the coordinator, inside a
transaction) or runs a named subprocess in place. The transaction policy is
per definition: PER_STEP gives every step its own transaction, SPANNING runs
the whole instance inside one.

`load_processes` checks a set of definitions once and expands each into a
plan of service steps; an engine only starts and executes plans.

Step inputs are mapped from instance variables ("var:NAME") or literals
("lit:TEXT"); outputs copy response fields ("resp.FIELD") back into
variables. Both maps are parsed when the step is built, and checked against
the service's signature when the set loads; only an unset variable is left to the run.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Mapping

from .errors import ProcessError, TraError
from .model import ComponentModel, resolve_transactional
from .shape import LIST, NAME, OBJECT, Each, Obj, check, one_of
from .source import MISSING, check_source, cover, parse, resolve
from .txn import TxnStatus

MAX_PLAN_STEPS = 10_000  # service steps in one plan, subprocesses expanded
MAX_TOTAL_PLAN_STEPS = 100_000  # service steps summed over every plan of one process set


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
        if self.subprocess is not None and (self.input_map or self.output_map):
            raise ProcessError(f"step {self.name}: a subprocess step takes no input or output")
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


@dataclass(frozen=True)
class Plan:
    """A checked process: its policy and its service steps in run order."""

    policy: TxnPolicy
    steps: tuple[Step, ...]


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
    return definition_from_checked(doc)


def definition_from_checked(doc: dict) -> ProcessDefinition:
    """The definition of a document that PROCESS has passed."""
    steps = [
        Step(
            s["name"], s.get("component"), s.get("service"), s.get("subprocess"),
            s.get("input", {}), s.get("output", {}),
        )
        for s in doc.get("steps", ())
    ]
    return ProcessDefinition(doc["name"], TxnPolicy(doc.get("policy", "per_step")), steps)


def load_processes(model: ComponentModel, definitions: Iterable[ProcessDefinition]) -> dict[str, Plan]:
    """Check a process set and build each plan once, from its children's plans:
    names are unique, each step calls a transactional service by its signature, every
    subprocess is defined, none closes a cycle, no plan exceeds MAX_PLAN_STEPS
    and all of them together hold at most MAX_TOTAL_PLAN_STEPS."""
    defs: dict[str, ProcessDefinition] = {}
    for defn in definitions:
        if defn.name in defs:
            raise ProcessError(f"process {defn.name} already defined")
        for step in defn.steps:
            if step.service is not None:
                where = f"process {defn.name} step {step.name}"
                _, sig = resolve_transactional(model, step.component, step.service, where)
                what = f"{where}: input must cover the request of {step.component}.{step.service}"
                cover(step.input_map, sig.request, ProcessError, what)
                kinds = {"resp": {f.name: f.kind for f in sig.response}}
                for src in step.output_map.values():
                    check_source(src, kinds, ProcessError, f"{where}: output")
        defs[defn.name] = defn
    plans: dict[str, Plan] = {}
    total = 0
    for root in defs:
        # depth first, without recursion: the path from root, each name with its unvisited steps
        path = {} if root in plans else {root: iter(defs[root].steps)}
        while path:
            name = next(reversed(path))
            children = (s.subprocess for s in path[name] if s.subprocess is not None)
            child = next((c for c in children if c not in plans), None)
            if child is None:
                del path[name]
                parts = [plans[s.subprocess].steps if s.subprocess is not None else (s,) for s in defs[name].steps]
                size = sum(map(len, parts))  # counted before a step tuple is built
                if size > MAX_PLAN_STEPS:
                    limit = f"over the limit of {MAX_PLAN_STEPS}"
                    raise ProcessError(f"process {name}: its plan has {size} steps, {limit}")
                total += size
                if total > MAX_TOTAL_PLAN_STEPS:
                    limit = f"over the limit of {MAX_TOTAL_PLAN_STEPS}"
                    raise ProcessError(f"process {name}: the plans hold {total} steps in all, {limit}")
                plans[name] = Plan(defs[name].policy, tuple(chain.from_iterable(parts)))
            elif child in path:
                names = list(path)
                raise ProcessError("subprocess cycle: " + " -> ".join(names[names.index(child):] + [child]))
            elif child not in defs:
                raise ProcessError(f"process {name} subprocess: no process {child!r}")
            else:
                path[child] = iter(defs[child].steps)
    return plans


@dataclass
class ProcessEngine:
    """Runs instances of checked plans through the coordinator."""

    coordinator: object
    plans: Mapping[str, Plan]

    def start(self, name: str, variables: dict | None = None) -> ProcessInstance:
        if name not in self.plans:
            raise ProcessError(f"no process {name!r}")
        return ProcessInstance(definition=name, variables=dict(variables or {}))

    def execute(self, instance: ProcessInstance) -> ProcessInstance:
        """Run the plan's steps in transaction groups: one step per group
        under PER_STEP, all of them in one group under SPANNING."""
        plan = self.plans[instance.definition]
        spanning = plan.policy is TxnPolicy.SPANNING
        groups = [plan.steps] if spanning and plan.steps else [[step] for step in plan.steps]
        for group in groups:
            ctx = self.coordinator.begin(f"process:{instance.definition}")
            outputs: dict = {}  # the group's variables, kept only if its transaction commits
            for step in group:
                try:
                    self._run_step(instance, ctx, step, outputs)
                except Exception as exc:  # the step's transaction ends here, whatever the handler raised
                    with suppress(TraError):  # already rolled back or lost; it fails either way
                        self.coordinator.rollback(ctx)
                    if not isinstance(exc, TraError):
                        raise
                    return self._fail(instance, step.name, str(exc))
            if self.coordinator.commit(ctx) is not TxnStatus.COMMITTED:
                # a spanning transaction is refused as a whole, not at one step
                failed = None if spanning else group[0].name
                return self._fail(instance, failed, "transaction aborted")
            instance.variables.update(outputs)
            instance.completed_steps += len(group)
        instance.state = InstanceState.COMPLETED
        return instance

    def _run_step(self, instance: ProcessInstance, ctx, step: Step, outputs: dict) -> None:
        """Run one service step, writing its outputs to the group's `outputs`."""
        request, scopes = {}, {"var": {**instance.variables, **outputs}}
        for fname, src in step.input_map.items():
            request[fname] = resolve(src, scopes)
            if request[fname] is MISSING:
                raise ProcessError(f"step {step.name}: unset variable {src.path[0]!r}")
        self.coordinator.tracer.emit("step", instance.definition, step.name, step.component, step.service)
        response = self.coordinator.propagate(ctx, step.component, step.service, request)
        for var, src in step.output_map.items():  # propagate checked that the response has each
            outputs[var] = resolve(src, {"resp": response})

    def _fail(self, instance: ProcessInstance, step: str | None, reason: str) -> ProcessInstance:
        instance.state = InstanceState.FAILED
        instance.failed_step = step
        instance.reason = reason
        self.coordinator.tracer.emit("process_failed", instance.definition, step, reason)
        return instance
