"""Scenario files: declarative test worlds for the harness.

A scenario declares the world (component model, stores, queues, endpoints,
broker tables, process definitions, service bindings) and a script of
actions to run against it. Service bindings give exported services a small
effect list instead of real code: put/get/delete/send against resources,
plus nested calls into other components' exported services.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Mapping

from .broker import BrokerTable, load_table
from .errors import ScenarioError
from .faults import COORDINATOR_TARGET
from .process import ProcessDefinition, load_definition
from .source import parse

# action op (an assert by its kind) -> the fields its runner handler needs
ACTION_FIELDS = {
    "begin": ("txn",),
    "get": ("txn", "store", "key"),
    "put": ("txn", "store", "key", "value"),
    "delete": ("txn", "store", "key"),
    "send": ("txn", "queue", "message"),
    "receive": ("txn", "queue"),
    "propagate": ("txn", "component", "service"),
    "commit": ("txn",),
    "rollback": ("txn",),
    "crash": ("target",),
    "recover": (),
    "invoke": ("service",),
    "invoke_via_queue": ("txn", "queue", "service", "reply_to"),
    "run_process": ("process",),
    ("assert", "store"): ("store", "key"),
    ("assert", "queue"): ("queue",),
    ("assert", "txn"): ("txn", "status"),
    ("assert", "process"): ("process", "state"),
    ("assert", "process_var"): ("process", "var"),
}

# binding effect -> the fields its handler needs; key, value and message hold
# a source ("call" maps its optional request)
EFFECT_FIELDS = {
    "put": ("store", "key", "value"),
    "delete": ("store", "key"),
    "get": ("store", "key", "into"),
    "send": ("queue", "message"),
    "call": ("component", "service"),
}

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
    effects: list = field(default_factory=list)
    response: dict = field(default_factory=dict)


@dataclass
class Scenario:
    """A loaded scenario. `names` maps every declared name to its kind, and
    every field that names something has been checked against it."""

    name: str
    seed: int
    base_dir: str
    prepare_budget: int | None
    model_doc: dict | None
    stores: list[ResourceDecl]
    queues: list[ResourceDecl]
    endpoints: list[dict]
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


_TYPE_NAMES = {dict: "an object", list: "a list", int: "an integer"}


def _field(doc: Mapping, key: str, kind: type, default):
    """A top-level field, refused unless its JSON type is `kind` (so a bool
    is not an integer)."""
    if key not in doc:
        return default
    if type(doc[key]) is not kind:
        raise ScenarioError(f"{key} must be {_TYPE_NAMES[kind]}, got {doc[key]!r}")
    return doc[key]


def _resource_decls(raw, what: str) -> list[ResourceDecl]:
    """Stores start from an object of key -> value, queues from a list; both
    hold text, so the initial state is converted once here."""
    initial_type, shape = (dict, "an object") if what == "store" else (list, "a list")
    out = []
    for entry in raw:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, Mapping) or not isinstance(entry.get("name"), str):
            raise ScenarioError(f"{what} declaration must be a name or an object with one")
        decl = ResourceDecl(
            entry["name"], entry.get("initial", initial_type()), entry.get("prepare_delay", 0)
        )
        if not isinstance(decl.initial, initial_type):
            raise ScenarioError(f"{what} {decl.name}: initial state must be {shape}")
        if type(decl.prepare_delay) is not int:
            raise ScenarioError(f"{what} {decl.name}: prepare_delay must be an integer")
        if what == "store":
            decl.initial = {str(k): str(v) for k, v in decl.initial.items()}
        else:
            decl.initial = [str(m) for m in decl.initial]
        out.append(decl)
    return out


def _endpoint_decls(raw) -> list[dict]:
    out = []
    for entry in raw:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("endpoint_id"), str):
            raise ScenarioError("an endpoint must be an object with an endpoint_id")
        if type(entry.get("budget", 0)) is not int:
            raise ScenarioError(f"endpoint {entry['endpoint_id']}: budget must be an integer")
        out.append(dict(entry))
    return out


def _inline_or_file(entry, base_dir: str, what: str) -> dict:
    if isinstance(entry, str):
        path = os.path.join(base_dir, entry)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read {what} file {entry!r}: {exc}") from exc
        except ValueError as exc:
            raise ScenarioError(f"{what} file {entry!r} is not valid JSON: {exc}") from exc
    if isinstance(entry, Mapping):
        return dict(entry)
    raise ScenarioError(f"{what} must be an object, inline or in a file")


def _name_table(stores, queues, endpoints, processes) -> dict[str, str]:
    """Map every declared name to its kind. Stores, queues and endpoints
    register with the coordinator by name, and crash targets and fault
    targets are looked up by name, so one name means one thing."""
    names = {COORDINATOR_TARGET: "coordinator"}
    declared = (
        [(d.name, "store") for d in stores]
        + [(d.name, "queue") for d in queues]
        + [(e["endpoint_id"], "endpoint") for e in endpoints]
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
    kind = names.get(value) if isinstance(value, str) else None
    if kind not in kinds:
        wanted = "/".join(kinds)
        if kind is None:
            raise ScenarioError(f"{where}: no {wanted} is declared as {value!r}")
        raise ScenarioError(f"{where}: {value!r} is declared as {kind}, not as {wanted}")


def _check_fields(names: dict, fields: Mapping, where: str) -> None:
    """Check every field of an action or effect that names something."""
    for f, value in fields.items():
        if f in NAME_FIELDS:
            _check_name(names, value, NAME_FIELDS[f], f"{where} {f}")


def _sources(texts: Mapping, where: str) -> dict:
    """Parse a binding's {name: source} map."""
    if not isinstance(texts, Mapping):
        raise ScenarioError(f"{where}: a response or request must be an object")
    return {k: parse(v, ("req", "lit", "eff"), ScenarioError, where) for k, v in texts.items()}


def load_scenario(doc: Mapping, base_dir: str = ".") -> Scenario:
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise ScenarioError("scenario needs a name")

    model_doc = _field(doc, "model", dict, None)
    if model_doc is None and "manifest" in doc:
        model_doc = _inline_or_file(doc["manifest"], base_dir, "manifest")

    stores = _resource_decls(_field(doc, "stores", list, []), "store")
    queues = _resource_decls(_field(doc, "queues", list, []), "queue")
    endpoints = _endpoint_decls(_field(doc, "endpoints", list, []))
    processes = [
        _inline_or_file(p, base_dir, "process") for p in _field(doc, "processes", list, [])
    ]
    if any(not isinstance(p.get("name"), str) for p in processes):
        raise ScenarioError("a process must be an object with a name")
    if processes and model_doc is None:
        raise ScenarioError("processes need a component model")
    processes = [load_definition(p) for p in processes]
    names = _name_table(stores, queues, endpoints, processes)

    actions = []
    for i, action in enumerate(_field(doc, "actions", list, [])):
        if not isinstance(action, Mapping) or "op" not in action:
            raise ScenarioError(f"action {i}: not an object with an op")
        op, kind = action["op"], action.get("kind")
        key = ("assert", str(kind)) if op == "assert" else str(op)
        if key not in ACTION_FIELDS:
            what = f"assert kind {kind!r}" if op == "assert" else f"op {op!r}"
            raise ScenarioError(f"action {i}: unknown {what}")
        missing = [f for f in ACTION_FIELDS[key] if f not in action]
        if missing:
            raise ScenarioError(f"action {i}: {op} needs {missing}")
        _check_fields(names, {f: action[f] for f in ACTION_FIELDS[key]}, f"action {i} ({op})")
        actions.append(dict(action))

    bindings = []
    for raw in _field(doc, "bindings", list, []):
        if not isinstance(raw, Mapping):
            raise ScenarioError("a binding must be an object")
        try:
            where = f"binding {raw['component']}.{raw['service']}"
            effects = []
            for eff in raw.get("effects", ()):
                if not isinstance(eff, Mapping):
                    raise ScenarioError(f"{where}: effect {eff!r} is not an object")
                if eff.get("do") not in EFFECT_FIELDS:
                    raise ScenarioError(f"binding effect {eff.get('do')!r} unknown")
                fields = {k: eff[k] for k in EFFECT_FIELDS[eff["do"]]}
                _check_fields(names, fields, f"{where}: {eff['do']}")
                sources = {k: v for k, v in fields.items() if k in ("key", "value", "message")}
                eff = {**eff, **_sources(sources, where)}
                if eff["do"] == "call":
                    eff["request"] = _sources(eff.get("request", {}), where)
                effects.append(eff)
            bindings.append(
                BindingDecl(
                    component=raw["component"],
                    service=raw["service"],
                    effects=effects,
                    response=_sources(raw.get("response", {}), where),
                )
            )
        except KeyError as exc:
            raise ScenarioError(f"binding missing {exc}") from exc

    for listed, kinds in (("serve_queues", ("queue",)), ("sweep_targets", ("store", "queue"))):
        for value in _field(doc, listed, list, []):
            _check_name(names, value, kinds, listed)

    return Scenario(
        name=name,
        seed=_field(doc, "seed", int, 0),
        base_dir=base_dir,
        prepare_budget=_field(doc, "prepare_budget", int, None),
        model_doc=model_doc,
        stores=stores,
        queues=queues,
        endpoints=endpoints,
        tables=[
            load_table(_inline_or_file(t, base_dir, "broker table"))
            for t in _field(doc, "tables", list, [])
        ],
        processes=processes,
        bindings=bindings,
        serve_queues=list(_field(doc, "serve_queues", list, [])),
        sweep_targets=list(_field(doc, "sweep_targets", list, [])),
        actions=actions,
        names=names,
    )


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    return load_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)))
