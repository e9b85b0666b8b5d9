"""Scenario files: declarative test worlds for the harness.

A scenario declares the world (component model, stores, queues, endpoints,
broker tables, process definitions, service bindings) and a script of
actions to run against it. Service bindings give exported services a small
effect list instead of real code: put/get/delete/send against resources,
plus nested calls into other components' exported services.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

# load_manifest is called through its module, where bench/spans.py wraps it
from . import model as component_model
from .broker import DEFAULT_REPLY_BUDGET, SCRIPT, Adapter, BrokerTable, LegacyEndpoint, MessageBroker, load_table
from .errors import BindingError, ScenarioError
from .faults import COORDINATOR_TARGET
from .model import ComponentModel, resolve_transactional
from .process import ProcessDefinition, ProcessEngine, load_definition
from .resources import _check_key, _check_value
from .shape import INT, LIST, NAME, OBJECT, STR, UINT, Each, Either, Kind, Obj, Tagged, check, read_json
from .source import parse


def _op(required: dict, optional: dict | None = None) -> Obj:
    """An action: the fields its runner handler needs, and what it may add."""
    return Obj(required, {"expect_error": STR, **(optional or {})})


_TXN = {"txn": STR}

# an action's op (an assert's kind) picks the fields its runner handler reads
ACTION = Tagged("op", {
    "begin": _op(_TXN, {"originator": STR}),
    "get": _op({**_TXN, "store": STR, "key": STR}),
    "put": _op({**_TXN, "store": STR, "key": STR, "value": STR}),
    "delete": _op({**_TXN, "store": STR, "key": STR}),
    "send": _op({**_TXN, "queue": STR, "message": STR}),
    "receive": _op({**_TXN, "queue": STR}),
    "propagate": _op({**_TXN, "component": NAME, "service": NAME}, {"request": OBJECT}),
    "commit": _op(_TXN),
    "rollback": _op(_TXN),
    "crash": _op({"target": STR}),
    "recover": _op({}),
    "invoke": _op({"service": NAME}, {"request": OBJECT}),
    "invoke_via_queue": _op(
        {**_TXN, "queue": STR, "service": NAME, "reply_to": STR}, {"request": OBJECT}
    ),
    "run_process": _op({"process": STR}, {"variables": OBJECT}),
    "assert": Tagged("kind", {
        "store": _op({"store": STR, "key": STR}),
        "queue": _op({"queue": STR}, {"messages": LIST}),
        "txn": _op({**_TXN, "status": STR}),
        "process": _op({"process": STR, "state": STR}),
        "process_var": _op({"process": STR, "var": STR}),
    }),
})

# a binding effect; key, value and message hold a source ("call" maps its
# optional request)
EFFECT = Tagged("do", {
    "put": Obj({"store": STR, "key": STR, "value": STR}),
    "delete": Obj({"store": STR, "key": STR}),
    "get": Obj({"store": STR, "key": STR, "into": STR}),
    "send": Obj({"queue": STR, "message": STR}),
    "call": Obj({"component": NAME, "service": NAME}, {"request": OBJECT, "into": STR}),
})

SOURCE_FIELDS = ("key", "value", "message")


def _resources(initial: Kind) -> Each:
    return Each(LIST, Either(NAME, Obj({"name": NAME}, {"initial": initial, "prepare_delay": UINT})))


# tables, processes and a manifest are inline or in a file its own loader checks
SCENARIO = Obj({"name": NAME}, {
    "seed": INT, "prepare_budget": UINT, "model": OBJECT, "manifest": Either(STR, OBJECT),
    "stores": _resources(OBJECT), "queues": _resources(LIST),
    "endpoints": Each(LIST, Obj({"endpoint_id": NAME}, {"budget": UINT, "script": SCRIPT})),
    "tables": Each(LIST, Either(STR, OBJECT)),
    "processes": Each(LIST, Either(STR, Obj({"name": NAME}))),
    "bindings": Each(LIST, Obj(
        {"component": NAME, "service": NAME}, {"effects": Each(LIST, EFFECT), "response": OBJECT}
    )),
    "actions": Each(LIST, ACTION),
    "serve_queues": Each(LIST, STR),
    "sweep_targets": Each(LIST, STR),
})

# a field that names part of the declared world -> the kinds it may name
NAME_FIELDS = {
    "store": ("store",),
    "queue": ("queue",),
    "target": ("coordinator", "store", "queue", "endpoint"),
    "process": ("process",),
}


@dataclass
class ResourceDecl:
    name: str
    initial: object
    prepare_delay: int = 0


@dataclass
class BindingDecl:
    """A service binding whose effects and response hold parsed sources."""

    component: str
    service: str
    effects: list
    response: dict


@dataclass
class Scenario:
    """A loaded scenario. `names` maps every declared name to its kind, every
    field that names something has been checked against it, and every service,
    process and table a run registers has been resolved, so a run only builds."""

    name: str
    seed: int
    prepare_budget: int | None
    model: ComponentModel | None  # read-only during a run, so every run shares it
    stores: list[ResourceDecl]
    queues: list[ResourceDecl]
    endpoints: list[Adapter]  # templates: each run builds endpoints of its own from them
    tables: list[BrokerTable]
    processes: list[ProcessDefinition]
    bindings: list[BindingDecl]
    serve_queues: list[str]
    sweep_targets: list[str]
    actions: list[dict]
    names: dict[str, str]

    def with_actions(self, actions: list[dict]) -> "Scenario":
        clone = Scenario(**{**self.__dict__})
        clone.actions = list(actions)
        return clone

    def last_commit_index(self) -> int | None:
        last = None
        for i, a in enumerate(self.actions):
            if a.get("op") == "commit":
                last = i
        return last


def _resource_decls(raw: list, what: str) -> list[ResourceDecl]:
    """Stores start from an object of key -> value, queues from a list; both
    hold text, so the initial state is converted once here and checked against
    the store limits a seeded manager enforces."""
    out = []
    for entry in raw:
        if type(entry) is str:
            entry = {"name": entry}
        if what == "store":
            initial = {str(k): str(v) for k, v in entry.get("initial", {}).items()}
            for key, value in initial.items():
                _check_key(key)
                _check_value(value)
        else:
            initial = [str(m) for m in entry.get("initial", [])]
            for message in initial:
                _check_value(message)
        out.append(ResourceDecl(entry["name"], initial, entry.get("prepare_delay", 0)))
    return out


def _inline_or_file(entry, base_dir: str, what: str):
    if type(entry) is str:
        return read_json(os.path.join(base_dir, entry), ScenarioError, what)
    return entry


def _name_table(stores, queues, endpoints, processes) -> dict[str, str]:
    """Map every declared name to its kind. Stores, queues and endpoints
    register with the coordinator by name, and crash targets and fault
    targets are looked up by name, so one name means one thing."""
    names = {COORDINATOR_TARGET: "coordinator"}
    declared = (
        [(d.name, "store") for d in stores]
        + [(d.name, "queue") for d in queues]
        + [(a.endpoint_id, "endpoint") for a in endpoints]
        + [(p.name, "process") for p in processes]
    )
    for name, kind in declared:
        if name == COORDINATOR_TARGET:
            raise ScenarioError(f"{kind} name {name!r} is reserved for the coordinator")
        if name in names:
            raise ScenarioError(f"{kind} name {name!r} is declared twice")
        names[name] = kind
    return names


def _check_name(names: dict, value, kinds: tuple, where: str) -> None:
    kind = names.get(value)
    if kind not in kinds:
        wanted = "/".join(kinds)
        if kind is None:
            raise ScenarioError(f"{where}: no {wanted} is declared as {value!r}")
        raise ScenarioError(f"{where}: {value!r} is declared as {kind}, not as {wanted}")


def _check_fields(names: dict, shape: Obj, doc: dict, where: str) -> None:
    """Check every field of an action or effect that names something."""
    for f in shape.required:
        if f in NAME_FIELDS:
            _check_name(names, doc[f], NAME_FIELDS[f], f"{where} {f}")


def _sources(texts: Mapping, where: str) -> dict:
    """Parse a binding's {name: source} map."""
    return {k: parse(v, ("req", "lit", "eff"), ScenarioError, where) for k, v in texts.items()}


def load_scenario(doc: Mapping, base_dir: str = ".") -> Scenario:
    check(SCENARIO, doc, ScenarioError, "scenario")
    model_doc = doc.get("model")
    if model_doc is None and "manifest" in doc:
        model_doc = _inline_or_file(doc["manifest"], base_dir, "manifest")

    stores = _resource_decls(doc.get("stores", ()), "store")
    queues = _resource_decls(doc.get("queues", ()), "queue")
    endpoints = [
        Adapter(LegacyEndpoint.from_doc(e), e.get("budget", DEFAULT_REPLY_BUDGET))
        for e in doc.get("endpoints", ())
    ]
    processes = [_inline_or_file(p, base_dir, "process") for p in doc.get("processes", ())]
    if processes and model_doc is None:
        raise ScenarioError("processes need a component model")
    processes = [load_definition(p) for p in processes]
    model = component_model.load_manifest(model_doc) if model_doc is not None else None
    names = _name_table(stores, queues, endpoints, processes)
    for definition in processes:
        for child in definition.subprocess_names():
            _check_name(names, child, ("process",), f"process {definition.name} subprocess")

    services = []  # (component, service, where) of every call and binding; each is transactional
    actions = []
    for i, action in enumerate(doc.get("actions", ())):
        where = f"action {i} ({action['op']})"
        _check_fields(names, ACTION.pick(action), action, where)
        if action["op"] == "propagate":
            services.append((action["component"], action["service"], where))
        actions.append(dict(action))

    bindings = []
    for raw in doc.get("bindings", ()):
        where = f"binding {raw['component']}.{raw['service']}"
        effects = []
        for eff in raw.get("effects", ()):
            shape = EFFECT.pick(eff)
            _check_fields(names, shape, eff, f"{where}: {eff['do']}")
            # an effect keeps only the fields its shape declares, as the op it runs reads them
            eff = {"do": eff["do"], **{f: eff[f] for f, _ in shape.fields if f in eff}}
            eff.update(_sources({f: eff[f] for f in SOURCE_FIELDS if f in eff}, where))
            if eff["do"] == "call":
                eff["request"] = _sources(eff.get("request", {}), where)
                services.append((eff["component"], eff["service"], f"{where}: call"))
            effects.append(eff)
        response = _sources(raw.get("response", {}), where)
        bindings.append(BindingDecl(raw["component"], raw["service"], effects, response))

    for listed, kinds in (("serve_queues", ("queue",)), ("sweep_targets", ("store", "queue"))):
        for value in doc.get(listed, ()):
            _check_name(names, value, kinds, listed)

    # After the name checks, so that their refusals come first: resolve what a
    # run registers, by the rules it registers with.
    bound = set()
    for b in bindings:
        where = f"binding {b.component}.{b.service}"
        if (b.component, b.service) in bound:
            raise ScenarioError(f"{where} is declared twice")
        bound.add((b.component, b.service))
        services.append((b.component, b.service, where))
    for component, service, where in services:
        if model is None:
            raise ScenarioError(f"{where}: services need a component model")
        try:
            resolve_transactional(model, component, service)
        except BindingError as exc:
            raise BindingError(f"{where}: {exc}") from None
    engine = ProcessEngine(model, None)
    for definition in processes:
        engine.define(definition)
    tables = [load_table(_inline_or_file(t, base_dir, "broker table")) for t in doc.get("tables", ())]
    broker = MessageBroker()
    for adapter in endpoints:
        broker.register_adapter(adapter)
    for table in tables:
        broker.register_table(table)

    return Scenario(
        name=doc["name"],
        seed=doc.get("seed", 0),
        prepare_budget=doc.get("prepare_budget"),
        model=model,
        stores=stores,
        queues=queues,
        endpoints=endpoints,
        tables=tables,
        processes=processes,
        bindings=bindings,
        serve_queues=list(doc.get("serve_queues", ())),
        sweep_targets=list(doc.get("sweep_targets", ())),
        actions=actions,
        names=names,
    )


def load_scenario_file(path: str) -> Scenario:
    doc = read_json(path, ScenarioError, "scenario")
    return load_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)))
