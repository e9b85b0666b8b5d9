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
from .broker import DEFAULT_REPLY_BUDGET, ENDPOINT, Adapter, BrokerTable, LegacyEndpoint, MessageBroker, load_table
from .coordinator import DEFAULT_PREPARE_BUDGET
from .errors import ScenarioError
from .faults import COORDINATOR_TARGET
from .model import ComponentModel, resolve_transactional
from .process import PROCESS, InstanceState, Plan, definition_from_checked, load_definition, load_processes
from .resources import _check_keys, _check_values
from .shape import INT, JSON, LIST, NAME, OBJECT, STR, UINT, Each, Either, Kind, Obj, Tagged, check, one_of, read_json
from .source import check_source, cover, parse
from .txn import TxnStatus


def _op(required: dict, optional: dict | None = None) -> Obj:
    """An action: the fields its runner handler needs, and what it may add."""
    return Obj(required, {"expect_error": STR, **(optional or {})})


_TXN = {"txn": STR}
_EXPECT = {"expect": JSON}  # compared with what the op observed, as harness.EXPECT_DESC reads
NEVER_RAN = "never-ran"  # the state a process assert reads for a process the script has not run

# an action's op (an assert's kind) picks the fields its runner handler reads
ACTION = Tagged("op", {
    "begin": _op(_TXN, {"originator": STR}),
    "get": _op({**_TXN, "store": STR, "key": STR}, _EXPECT),
    "put": _op({**_TXN, "store": STR, "key": STR, "value": STR}),
    "delete": _op({**_TXN, "store": STR, "key": STR}),
    "send": _op({**_TXN, "queue": STR, "message": STR}),
    "receive": _op({**_TXN, "queue": STR}, _EXPECT),
    "propagate": _op({**_TXN, "component": NAME, "service": NAME}, {"request": OBJECT, **_EXPECT}),
    "commit": _op(_TXN, _EXPECT),
    "rollback": _op(_TXN),
    "crash": _op({"target": STR}),
    "recover": _op({}),
    "invoke": _op({"service": NAME}, {"request": OBJECT, **_EXPECT}),
    "invoke_via_queue": _op(
        {**_TXN, "queue": STR, "service": NAME, "reply_to": STR}, {"request": OBJECT}
    ),
    "run_process": _op({"process": STR}, {"variables": OBJECT, **_EXPECT}),
    "assert": Tagged("kind", {
        "store": _op({"store": STR, "key": STR}, {"value": STR}),
        "queue": _op({"queue": STR}, {"messages": LIST}),
        "txn": _op({**_TXN, "status": one_of(*(s.value for s in TxnStatus))}),
        "process": _op({"process": STR, "state": one_of(*(s.value for s in InstanceState), NEVER_RAN)}),
        "process_var": _op({"process": STR, "var": STR}, {"value": JSON}),
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


# a table or a manifest is inline or in a file its own loader checks; a process in a file too
SCENARIO = Obj({"name": NAME}, {
    "seed": INT, "prepare_budget": UINT, "manifest": Either(STR, OBJECT),
    "stores": _resources(Each(OBJECT, STR)), "queues": _resources(Each(LIST, STR)),
    "endpoints": Each(LIST, ENDPOINT),
    "tables": Each(LIST, Either(STR, OBJECT)),
    "processes": Each(LIST, Either(STR, PROCESS)),
    "bindings": Each(LIST, Obj(
        {"component": NAME, "service": NAME}, {"effects": Each(LIST, EFFECT), "response": OBJECT}
    )),
    "actions": Each(LIST, ACTION),
    "serve_queues": Each(LIST, STR),
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
    field that names something has been checked against it, every service,
    process and table a run registers has been resolved, and every call and
    binding checked against its service's signature, so a run only builds."""

    name: str
    seed: int
    prepare_budget: int
    model: ComponentModel | None  # read-only during a run, so every run shares it
    stores: list[ResourceDecl]
    queues: list[ResourceDecl]
    endpoints: list[Adapter]  # every run registers these; its broker keeps its own outages
    tables: list[BrokerTable]
    processes: dict[str, Plan]  # read-only during a run, like tables
    bindings: list[BindingDecl]
    serve_queues: list[str]
    actions: list[dict]
    names: dict[str, str]


def _resource_decls(raw: list, what: str) -> list[ResourceDecl]:
    """Stores start from an object of key -> text, queues from a list of text;
    the initial state is checked here against the store limits a seeded
    manager enforces."""
    out = []
    for entry in raw:
        if type(entry) is str:
            entry = {"name": entry}
        if what == "store":
            initial = dict(entry.get("initial", {}))
            _check_keys(initial)
            _check_values(initial.values())
        else:
            initial = list(entry.get("initial", ()))
            _check_values(initial, empty=False)
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
    model_doc = _inline_or_file(doc["manifest"], base_dir, "manifest") if "manifest" in doc else None

    stores = _resource_decls(doc.get("stores", ()), "store")
    queues = _resource_decls(doc.get("queues", ()), "queue")
    # SCENARIO has checked the endpoints and inline processes; a process file is checked here
    endpoints = [
        Adapter(LegacyEndpoint.from_checked(e), e.get("budget", DEFAULT_REPLY_BUDGET))
        for e in doc.get("endpoints", ())
    ]
    entries = doc.get("processes", ())
    definitions = [_inline_or_file(p, base_dir, "process") for p in entries]
    if definitions and model_doc is None:
        raise ScenarioError("processes need a component model")
    definitions = [
        load_definition(d) if type(p) is str else definition_from_checked(d) for p, d in zip(entries, definitions)
    ]
    model = component_model.load_manifest(model_doc) if model_doc is not None else None
    names = _name_table(stores, queues, endpoints, definitions)

    services = []  # (component, service, where, request map or None) of every call and binding
    actions = []
    for i, action in enumerate(doc.get("actions", ())):
        where = f"action {i} ({action['op']})"
        _check_fields(names, ACTION.pick(action), action, where)
        if action["op"] == "propagate":
            services.append((action["component"], action["service"], where, action.get("request", {})))
        actions.append(dict(action))

    bindings = []
    for raw in doc.get("bindings", ()):
        where = f"binding {raw['component']}.{raw['service']}"
        effects = []
        for eff in raw.get("effects", ()):
            _check_fields(names, EFFECT.pick(eff), eff, f"{where}: {eff['do']}")
            eff = {**eff, **_sources({f: eff[f] for f in SOURCE_FIELDS if f in eff}, where)}
            if eff["do"] == "call":
                eff["request"] = _sources(eff.get("request", {}), where)
                services.append((eff["component"], eff["service"], f"{where}: call", eff["request"]))
            effects.append(eff)
        response = _sources(raw.get("response", {}), where)
        bindings.append(BindingDecl(raw["component"], raw["service"], effects, response))

    for value in doc.get("serve_queues", ()):
        _check_name(names, value, ("queue",), "serve_queues")

    # After the name checks, so that their refusals come first: resolve what a run
    # registers, by the rules it registers with, and check each call against its signature.
    bound = set()
    for b in bindings:
        where = f"binding {b.component}.{b.service}"
        if (b.component, b.service) in bound:
            raise ScenarioError(f"{where} is declared twice")
        bound.add((b.component, b.service))
        services.append((b.component, b.service, where, None))
    sigs = {}
    for component, service, where, request in services:
        if model is None:
            raise ScenarioError(f"{where}: services need a component model")
        sig = sigs[component, service] = resolve_transactional(model, component, service, where)[1]
        if (component, service) not in bound:
            raise ScenarioError(f"{where}: {component}.{service} has no binding")
        if request is not None:
            cover(request, sig.request, ScenarioError, f"{where}: request must cover the request of {component}.{service}")
    for b in bindings:
        where, sig = f"binding {b.component}.{b.service}", sigs[b.component, b.service]
        kinds = {"req": {f.name: f.kind for f in sig.request}, "eff": {}}  # eff: each `into` once its effect ran
        for eff in b.effects:
            for src in [*(eff[f] for f in SOURCE_FIELDS if f in eff), *eff.get("request", {}).values()]:
                check_source(src, kinds, ScenarioError, f"{where}: {eff['do']}")
            if "into" in eff:  # a call stores its callee's reply, a get the text it read
                reply = sigs[eff["component"], eff["service"]].response if eff["do"] == "call" else None
                kinds["eff"][eff["into"]] = "text" if reply is None else {f.name: f.kind for f in reply}
        cover(b.response, sig.response, ScenarioError, f"{where}: response must cover the declared response")
        for src in b.response.values():
            check_source(src, kinds, ScenarioError, f"{where}: response")
    processes = load_processes(model, definitions)
    for d in definitions:  # load_processes has resolved each step; a run also needs its binding
        for s in d.steps:
            if s.service is not None and (s.component, s.service) not in bound:
                raise ScenarioError(f"process {d.name} step {s.name}: {s.component}.{s.service} has no binding")
    tables = [load_table(_inline_or_file(t, base_dir, "broker table")) for t in doc.get("tables", ())]
    broker = MessageBroker()
    for adapter in endpoints:
        broker.register_adapter(adapter)
    for table in tables:
        broker.register_table(table)

    return Scenario(
        name=doc["name"],
        seed=doc.get("seed", 0),
        prepare_budget=doc.get("prepare_budget", DEFAULT_PREPARE_BUDGET),
        model=model,
        stores=stores,
        queues=queues,
        endpoints=endpoints,
        tables=tables,
        processes=processes,
        bindings=bindings,
        serve_queues=list(doc.get("serve_queues", ())),
        actions=actions,
        names=names,
    )


def load_scenario_file(path: str) -> Scenario:
    doc = read_json(path, ScenarioError, "scenario")
    return load_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)))
