"""Logical component model and layering validator.

A deployment is described by a manifest: logical components that own internal
components, each internal pinned to one of five layers, each offering typed
service signatures, with a per-component export list forming the external
interface. Declared call edges are checked against the layering rules; the
validator reports violations rather than raising, so a model can be linted as
a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import BindingError, EdgeError, ManifestError
from .records import KINDS
from .shape import BOOL, LIST, NAME, STR, Each, Obj, check, one_of, read_json


class LayerKind(Enum):
    """The five layers, ordered from the user boundary down to resources."""

    END_CLIENT = "end_client"
    BUSINESS_PROCESS = "business_process"
    BUSINESS_SERVICE = "business_service"
    RESOURCE_SERVICE = "sbrs"
    RESOURCE = "sbr"

    @property
    def depth(self) -> int:
        return _DEPTH[self]


_DEPTH = {
    LayerKind.END_CLIENT: 0,
    LayerKind.BUSINESS_PROCESS: 1,
    LayerKind.BUSINESS_SERVICE: 2,
    LayerKind.RESOURCE_SERVICE: 3,
    LayerKind.RESOURCE: 4,
}

# caller layer -> layers it may call within the same logical component
_ALLOWED_WITHIN = {
    LayerKind.END_CLIENT: {LayerKind.BUSINESS_PROCESS, LayerKind.BUSINESS_SERVICE},
    LayerKind.BUSINESS_PROCESS: {LayerKind.BUSINESS_PROCESS, LayerKind.BUSINESS_SERVICE},
    LayerKind.BUSINESS_SERVICE: {LayerKind.BUSINESS_SERVICE, LayerKind.RESOURCE_SERVICE},
    LayerKind.RESOURCE_SERVICE: {LayerKind.RESOURCE},
    LayerKind.RESOURCE: set(),
}

# layers that may initiate / receive cross-component calls
_CROSS_CALLERS = {LayerKind.BUSINESS_PROCESS, LayerKind.BUSINESS_SERVICE}
_CROSS_TARGETS = {LayerKind.BUSINESS_SERVICE, LayerKind.RESOURCE_SERVICE}


@dataclass(frozen=True)
class FieldDef:
    name: str
    kind: str


@dataclass(frozen=True)
class ServiceSignature:
    name: str
    request: tuple[FieldDef, ...]
    response: tuple[FieldDef, ...]
    transactional: bool


@dataclass
class InternalComponent:
    name: str
    layer: LayerKind
    provides: dict[str, ServiceSignature]


@dataclass
class LogicalComponent:
    """A component: its internals, and its external interface, `exports`,
    which maps each exported service name to the internal that provides it."""

    name: str
    internals: dict[str, InternalComponent]
    exports: dict[str, str]


@dataclass
class ComponentModel:
    components: dict[str, LogicalComponent]


_FIELDS = Each(LIST, Obj({"name": NAME, "kind": one_of(*KINDS)}))
# a service signature, as manifests and broker tables declare it
SIGNATURE = Obj({"name": NAME}, {"request": _FIELDS, "response": _FIELDS, "transactional": BOOL})
_LAYER = one_of(*(k.value for k in LayerKind))
_INTERNAL = Obj({"name": NAME, "layer": _LAYER}, {"provides": Each(LIST, SIGNATURE)})
MANIFEST = Obj({"components": Each(LIST, Obj(
    {"name": NAME}, {"internals": Each(LIST, _INTERNAL), "exports": Each(LIST, STR)}
))})


def _load_fields(raw: list, where: str, error: type[Exception]) -> tuple[FieldDef, ...]:
    fields: dict[str, FieldDef] = {}
    for fd in raw:
        if fd["name"] in fields:
            raise error(f"{where}: duplicate field {fd['name']}")
        fields[fd["name"]] = FieldDef(fd["name"], fd["kind"])
    return tuple(fields.values())


def load_signature(doc: dict, where: str, error: type[Exception]) -> ServiceSignature:
    """Parse a service signature whose shape was checked against SIGNATURE."""
    where = f"{where}.{doc['name']}"
    return ServiceSignature(
        name=doc["name"],
        request=_load_fields(doc.get("request", ()), f"{where} request", error),
        response=_load_fields(doc.get("response", ()), f"{where} response", error),
        transactional=doc.get("transactional", False),
    )


def load_manifest(doc: Mapping) -> ComponentModel:
    """Parse and validate a manifest document (already JSON-decoded)."""
    check(MANIFEST, doc, ManifestError, "manifest")
    components: dict[str, LogicalComponent] = {}
    for comp in doc["components"]:
        cname = comp["name"]
        if cname in components:
            raise ManifestError(f"duplicate component {cname}")
        internals: dict[str, InternalComponent] = {}
        for internal in comp.get("internals", ()):
            iname = internal["name"]
            if iname in internals:
                raise ManifestError(f"{cname}: duplicate internal {iname}")
            provides: dict[str, ServiceSignature] = {}
            for svc in internal.get("provides", ()):
                sig = load_signature(svc, f"{cname}.{iname}", ManifestError)
                if sig.name in provides:
                    raise ManifestError(f"{cname}.{iname}: duplicate service {sig.name}")
                provides[sig.name] = sig
            internals[iname] = InternalComponent(iname, LayerKind(internal["layer"]), provides)
        exports: dict[str, str] = {}
        for entry in comp.get("exports", ()):
            if "." not in entry:
                raise ManifestError(f"{cname}: export {entry!r} must be 'internal.service'")
            internal, service = entry.split(".", 1)
            if internal not in internals:
                raise ManifestError(f"{cname}: export {entry}: no internal {internal}")
            if service not in internals[internal].provides:
                raise ManifestError(f"{cname}: export {entry}: no such service")
            if service in exports:
                # The external interface is looked up by service name alone,
                # so a component cannot export two services with one name.
                raise ManifestError(f"{cname}: export {entry}: service name exported twice")
            exports[service] = internal
        components[cname] = LogicalComponent(cname, internals, exports)
    return ComponentModel(components)


def load_manifest_file(path: str) -> ComponentModel:
    return load_manifest(read_json(path, ManifestError, "manifest"))


def resolve_binding(
    model: ComponentModel, component: str, service: str
) -> tuple[LogicalComponent, InternalComponent, ServiceSignature]:
    """Resolve an externally visible service to its providing internal.

    Only exported services resolve; everything else is a BindingError, with
    the message distinguishing hidden from nonexistent services.
    """
    lc = model.components.get(component)
    if lc is None:
        raise BindingError(f"unknown component {component!r}")
    if service not in lc.exports:
        for internal in lc.internals.values():
            if service in internal.provides:
                raise BindingError(
                    f"{component}.{service} exists but is not exported"
                )
        raise BindingError(f"{component} provides no service {service!r}")
    internal = lc.internals[lc.exports[service]]
    return lc, internal, internal.provides[service]


def resolve_transactional(
    model: ComponentModel, component: str, service: str, where: str | None = None
) -> tuple[InternalComponent, ServiceSignature]:
    """Resolve a service that a transaction calls into: it must also be
    transactional. A refusal is prefixed with `where` it is named, if given."""
    try:
        _, internal, sig = resolve_binding(model, component, service)
        if not sig.transactional:
            raise BindingError(f"{component}.{service} is not transactional")
    except BindingError as exc:
        if where is None:
            raise
        raise BindingError(f"{where}: {exc}") from None
    return internal, sig


@dataclass(frozen=True)
class CallEdge:
    """A declared call from one internal component to another's service."""

    caller_component: str
    caller_internal: str
    callee_component: str
    callee_internal: str
    service: str

    def __post_init__(self):
        if (self.caller_component, self.caller_internal) == (
            self.callee_component,
            self.callee_internal,
        ):
            raise EdgeError(f"edge from {self.caller_component}.{self.caller_internal} to itself")

    def __str__(self) -> str:
        return (
            f"{self.caller_component}.{self.caller_internal} -> "
            f"{self.callee_component}.{self.callee_internal}.{self.service}"
        )


_END = {"component": NAME, "internal": NAME}
EDGES = Each(LIST, Obj({"caller": Obj(_END), "callee": Obj({**_END, "service": NAME})}, {"note": STR}))


def load_edges(doc: Sequence) -> list[CallEdge]:
    """Parse an edge list document: [{caller: {component, internal},
    callee: {component, internal, service}, note?}, ...]."""
    check(EDGES, doc, EdgeError, "edges")
    return [
        CallEdge(
            raw["caller"]["component"], raw["caller"]["internal"],
            raw["callee"]["component"], raw["callee"]["internal"], raw["callee"]["service"],
        )
        for raw in doc
    ]


def load_edges_file(path: str) -> list[CallEdge]:
    return load_edges(read_json(path, EdgeError, "edge list"))


@dataclass(frozen=True)
class Violation:
    edge: CallEdge
    rule: str
    reason: str


def _lookup(model: ComponentModel, edge: CallEdge):
    caller_lc = model.components.get(edge.caller_component)
    if caller_lc is None or edge.caller_internal not in caller_lc.internals:
        raise EdgeError(f"{edge}: caller does not exist in the model")
    callee_lc = model.components.get(edge.callee_component)
    if callee_lc is None or edge.callee_internal not in callee_lc.internals:
        raise EdgeError(f"{edge}: callee does not exist in the model")
    callee = callee_lc.internals[edge.callee_internal]
    if edge.service not in callee.provides:
        raise EdgeError(f"{edge}: callee provides no service {edge.service!r}")
    return caller_lc.internals[edge.caller_internal], callee_lc, callee


def check_edge(model: ComponentModel, edge: CallEdge) -> Violation | None:
    """Check one edge against the layering rules. None means permitted.
    Edges whose endpoints are missing raise EdgeError instead."""
    caller, callee_lc, callee = _lookup(model, edge)
    cl, el = caller.layer, callee.layer

    if edge.caller_component == edge.callee_component:
        if el in _ALLOWED_WITHIN[cl]:
            return None
        if el.depth < cl.depth:
            return Violation(edge, "upward-call", f"{cl.value} may not call up to {el.value}")
        if el.depth == cl.depth:
            return Violation(edge, "illegal-peer-call", f"{cl.value} may not call a peer {el.value}")
        if cl is LayerKind.END_CLIENT:
            return Violation(
                edge, "end-client-skip", f"end_client must go through {LayerKind.BUSINESS_PROCESS.value} or {LayerKind.BUSINESS_SERVICE.value}, not {el.value}"
            )
        if cl is LayerKind.BUSINESS_PROCESS:
            return Violation(
                edge, "process-skip", f"business_process must go through business_service, not {el.value}"
            )
        # Only BUSINESS_SERVICE -> RESOURCE remains.
        return Violation(
            edge, "resource-touch", "business_service must reach resources through an sbrs"
        )

    if cl not in _CROSS_CALLERS:
        return Violation(
            edge, "cross-component-caller", f"{cl.value} may not call across components"
        )
    if el not in _CROSS_TARGETS:
        return Violation(
            edge, "cross-component-target", f"{el.value} is not callable across components"
        )
    if callee_lc.exports.get(edge.service) != edge.callee_internal:
        return Violation(
            edge, "not-exported", f"{edge.callee_component} does not export {edge.service}"
        )


def validate_layering(model: ComponentModel, edges: Sequence[CallEdge]) -> list[Violation]:
    """Return the violating edges, in input order. Empty list means the edge
    set conforms to the layering rules."""
    out = []
    for edge in edges:
        v = check_edge(model, edge)
        if v is not None:
            out.append(v)
    return out
