"""Logical component model and layering validator.

A deployment is described by a manifest: logical components that own internal
components, each internal pinned to one of five layers, each offering typed
service signatures, with a per-component export list forming the external
interface. Declared call edges are checked against the layering rules; the
validator reports violations rather than raising, so a model can be linted as
a whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import BindingError, EdgeError, ManifestError
from .records import KINDS


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
    name: str
    internals: dict[str, InternalComponent]
    exports: tuple[str, ...]

    def exported_services(self) -> dict[str, str]:
        """Map exported service name -> providing internal name."""
        out = {}
        for entry in self.exports:
            internal, service = entry.split(".", 1)
            out[service] = internal
        return out


@dataclass
class ComponentModel:
    components: dict[str, LogicalComponent]


def _require_name(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ManifestError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _entries(doc: Mapping, key: str, where: str) -> list:
    """A manifest list (components, internals, provides, exports); absent is empty."""
    raw = doc.get(key, ())
    if not isinstance(raw, (list, tuple)):
        raise ManifestError(f"{where}: {key} must be a list, got {raw!r}")
    return raw


def _object(raw, what: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ManifestError(f"{what} {raw!r} is not an object")
    return raw


def _load_fields(raw, where: str) -> tuple[FieldDef, ...]:
    if not isinstance(raw, (list, tuple)):
        raise ManifestError(f"{where}: fields must be a list")
    fields: dict[str, FieldDef] = {}
    for fd in raw:
        if not isinstance(fd, dict):
            raise ManifestError(f"{where}: field {fd!r} is not an object")
        name = _require_name(fd.get("name"), f"{where}: field name")
        kind = fd.get("kind")
        if kind not in KINDS:
            raise ManifestError(f"{where}: field {name}: unknown kind {kind!r}")
        if name in fields:
            raise ManifestError(f"{where}: duplicate field {name}")
        fields[name] = FieldDef(name, kind)
    return tuple(fields.values())


def load_signature(doc, where: str) -> ServiceSignature:
    """Parse a service signature, as manifests and broker tables declare it."""
    if not isinstance(doc, dict):
        raise ManifestError(f"{where}: service {doc!r} is not an object")
    sname = _require_name(doc.get("name"), f"{where}: service name")
    transactional = doc.get("transactional", False)
    if not isinstance(transactional, bool):
        raise ManifestError(f"{where}.{sname}: transactional must be a bool")
    return ServiceSignature(
        name=sname,
        request=_load_fields(doc.get("request", ()), f"{where}.{sname} request"),
        response=_load_fields(doc.get("response", ()), f"{where}.{sname} response"),
        transactional=transactional,
    )


def load_manifest(doc: Mapping) -> ComponentModel:
    """Parse and validate a manifest document (already JSON-decoded)."""
    if not isinstance(doc, Mapping) or "components" not in doc:
        raise ManifestError("manifest must be an object with a components list")
    components: dict[str, LogicalComponent] = {}
    for comp in _entries(doc, "components", "manifest"):
        cname = _require_name(_object(comp, "component").get("name"), "component name")
        if cname in components:
            raise ManifestError(f"duplicate component {cname}")
        internals: dict[str, InternalComponent] = {}
        for internal in _entries(comp, "internals", cname):
            internal = _object(internal, f"{cname}: internal")
            iname = _require_name(internal.get("name"), f"{cname}: internal name")
            if iname in internals:
                raise ManifestError(f"{cname}: duplicate internal {iname}")
            layer_raw = internal.get("layer")
            try:
                layer = LayerKind(layer_raw)
            except ValueError:
                raise ManifestError(
                    f"{cname}.{iname}: unknown layer {layer_raw!r}"
                ) from None
            provides: dict[str, ServiceSignature] = {}
            for svc in _entries(internal, "provides", f"{cname}.{iname}"):
                sig = load_signature(svc, f"{cname}.{iname}")
                if sig.name in provides:
                    raise ManifestError(f"{cname}.{iname}: duplicate service {sig.name}")
                provides[sig.name] = sig
            internals[iname] = InternalComponent(iname, layer, provides)
        exports = []
        exported_names = set()
        for entry in _entries(comp, "exports", cname):
            if not isinstance(entry, str) or "." not in entry:
                raise ManifestError(f"{cname}: export {entry!r} must be 'internal.service'")
            internal, service = entry.split(".", 1)
            if internal not in internals:
                raise ManifestError(f"{cname}: export {entry}: no internal {internal}")
            if service not in internals[internal].provides:
                raise ManifestError(f"{cname}: export {entry}: no such service")
            if service in exported_names:
                # The external interface is looked up by service name alone,
                # so a component cannot export two services with one name.
                raise ManifestError(f"{cname}: export {entry}: service name exported twice")
            exported_names.add(service)
            exports.append(entry)
        components[cname] = LogicalComponent(cname, internals, tuple(exports))
    return ComponentModel(components)


def load_manifest_file(path: str) -> ComponentModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"manifest {path!r} is not valid JSON: {exc}") from exc
    return load_manifest(doc)


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
    exported = lc.exported_services()
    if service not in exported:
        for internal in lc.internals.values():
            if service in internal.provides:
                raise BindingError(
                    f"{component}.{service} exists but is not exported"
                )
        raise BindingError(f"{component} provides no service {service!r}")
    internal = lc.internals[exported[service]]
    return lc, internal, internal.provides[service]


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


def load_edges(doc: Sequence) -> list[CallEdge]:
    """Parse an edge list document: [{caller: {component, internal},
    callee: {component, internal, service}}, ...]. Extra keys (notes) are
    ignored."""
    if not isinstance(doc, (list, tuple)):
        raise EdgeError(f"an edge list must be a list, got {type(doc).__name__}")
    edges = []
    for i, raw in enumerate(doc):
        try:
            caller = raw["caller"]
            callee = raw["callee"]
            edges.append(
                CallEdge(
                    caller_component=_require_name(caller["component"], "caller component"),
                    caller_internal=_require_name(caller["internal"], "caller internal"),
                    callee_component=_require_name(callee["component"], "callee component"),
                    callee_internal=_require_name(callee["internal"], "callee internal"),
                    service=_require_name(callee["service"], "callee service"),
                )
            )
        except (KeyError, TypeError, ManifestError) as exc:
            raise EdgeError(f"edge {i}: {exc}") from exc
    return edges


def load_edges_file(path: str) -> list[CallEdge]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise EdgeError(f"edge list {path!r} is not valid JSON: {exc}") from exc
    return load_edges(doc)


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
    exported = callee_lc.exported_services()
    if exported.get(edge.service) != edge.callee_internal:
        return Violation(
            edge, "not-exported", f"{edge.callee_component} does not export {edge.service}"
        )
    return None


def validate_layering(model: ComponentModel, edges: Sequence[CallEdge]) -> list[Violation]:
    """Return the violating edges, in input order. Empty list means the edge
    set conforms to the layering rules."""
    out = []
    for edge in edges:
        v = check_edge(model, edge)
        if v is not None:
            out.append(v)
    return out
