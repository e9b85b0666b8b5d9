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
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import CodecError, InvokeError, StoreLimitError, TableError, TraError
from .model import SIGNATURE, ServiceSignature, load_signature
from .records import MESSAGE_SPEC, MessageSpec, decode_record, encode_record, typed
from .shape import BOOL, LIST, NAME, NULL, OBJECT, STR, UINT, Each, Either, Obj, check, read_json
from .sim import Tracer
from .source import Source, check_source, cover, parse, resolve
from .txn import TxnStatus

DEFAULT_REPLY_BUDGET = 100


@dataclass(frozen=True)
class LegacyCall:
    """One record exchange with one endpoint, with its request map's parsed sources.
    `replies`, internal and keyed by rule identity, keeps the fields each answering
    rule's reply decodes to; it lives as long as the table, shared by every broker."""

    call_id: str
    endpoint: str
    request_spec: MessageSpec
    request_map: Mapping[str, Source]
    response_spec: MessageSpec
    depends_on: frozenset[str]
    replies: dict[ScriptRule, dict] = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class BrokerTable:
    """A checked table, ready to run: its calls in declared order and in
    dependency stages, and the parsed source that answers each response field."""

    service: ServiceSignature
    calls: tuple[LegacyCall, ...]
    stages: tuple[tuple[LegacyCall, ...], ...]
    aggregate: dict[str, Source]


# request maps and aggregate lists hold sources, which load_table parses
TABLE = Obj({"service": SIGNATURE, "calls": Each(LIST, Obj(
    {"call_id": NAME, "endpoint": NAME, "request_spec": MESSAGE_SPEC, "request_map": OBJECT,
     "response_spec": MESSAGE_SPEC},
    {"depends_on": Each(LIST, NAME)},
))}, {"aggregate": Each(OBJECT, LIST)})


def _stages(name: str, calls: list[LegacyCall]) -> tuple[tuple[LegacyCall, ...], ...]:
    """Each call runs one stage after the last of its dependencies."""
    stages, done, left = [], set(), calls
    while left:
        ready = [c for c in left if c.depends_on <= done]
        if not ready:
            raise TableError(f"{name}: dependency cycle among {sorted(c.call_id for c in left)}")
        stages.append(tuple(sorted(ready, key=lambda c: c.call_id)))
        done |= {c.call_id for c in ready}
        left = [c for c in left if c.call_id not in done]
    return tuple(stages)


def load_table(doc: Mapping) -> BrokerTable:
    """Check a broker table document and build what dispatch runs. Every
    check that needs only the table is made here; registration checks only
    that the broker has an adapter for each endpoint."""
    check(TABLE, doc, TableError, "broker table")
    try:
        specs = [
            (MessageSpec.from_checked(c["request_spec"]), MessageSpec.from_checked(c["response_spec"]))
            for c in doc["calls"]
        ]
    except CodecError as exc:  # a record layout the codec cannot hold
        raise TableError(f"bad broker table: {exc}") from None
    service = load_signature(doc["service"], "service", TableError)
    name = service.name
    ids = [c["call_id"] for c in doc["calls"]]
    if len(set(ids)) != len(ids):
        raise TableError(f"{name}: duplicate call ids")
    # sources are checked by resolving them against the kinds of what they name
    kinds = {
        "req": {f.name: f.kind for f in service.request},
        "call": {cid: {f.name: f.kind for f in resp.fields} for cid, (_, resp) in zip(ids, specs)},
    }
    calls = []
    for c, (request_spec, response_spec) in zip(doc["calls"], specs):
        where = f"{name}.{c['call_id']}"
        depends_on = c.get("depends_on", ())
        for dep in depends_on:
            if dep not in kinds["call"]:
                raise TableError(f"{where}: unknown dependency {dep}")
        cover(c["request_map"], request_spec.fields, TableError, f"{where}: request map must cover the request spec")
        rmap = {}
        for fname, text in c["request_map"].items():
            src = parse(text, ("req", "lit", "call"), TableError, f"{where}.{fname}")
            if src.scope == "call" and src.path[0] not in depends_on:
                raise TableError(f"{where}: {src} must name a declared dependency")
            if src.scope != "lit":
                check_source(src, kinds, TableError, f"{where}.{fname}", request_spec.field(fname).kind)
            rmap[fname] = src
        calls.append(LegacyCall(
            c["call_id"], c["endpoint"], request_spec, rmap, response_spec, frozenset(depends_on)
        ))
    # every response field must be assembled from somewhere
    service_resp = {f.name: f.kind for f in service.response}
    texts_of = doc.get("aggregate", {})
    cover(texts_of, service.response, TableError, f"{name}: aggregation must cover the response")
    aggregate = {}
    for rfield, texts in texts_of.items():
        where = f"{name}.aggregate.{rfield}"
        if not texts:
            raise TableError(f"{where}: response field has no sources")
        sources = [parse(text, ("call",), TableError, where) for text in texts]
        for src in sources:
            check_source(src, kinds, TableError, where, service_resp[rfield])
        aggregate[rfield] = sources[0]  # the first listed source answers
    return BrokerTable(service, tuple(calls), _stages(name, calls), aggregate)


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
    "match": OBJECT, "delay": UINT, "reply": Either(OBJECT, NULL), "error": BOOL,
    "garbage": Either(STR, NULL),
}
# also a scenario's endpoint, whose `budget` its Adapter takes
ENDPOINT = Obj({"endpoint_id": NAME}, {"budget": UINT, "script": Each(LIST, Obj({}, _RULE, error=TableError))})


class LegacyEndpoint:
    """Scripted stand-in for a legacy application, shared by every broker that serves it."""

    def __init__(self, endpoint_id: str, script: list[ScriptRule] | None = None) -> None:
        self.endpoint_id = endpoint_id
        self.script = tuple(script or ())
        # each rule with its match values as text, built by the first `match`
        self._compiled: list[tuple[ScriptRule, tuple[tuple[str, str], ...]]] | None = None

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

    @classmethod
    def from_doc(cls, doc: Mapping) -> "LegacyEndpoint":
        check(ENDPOINT, doc, TableError, "endpoint")
        return cls.from_checked(doc)

    @classmethod
    def from_checked(cls, doc: Mapping) -> "LegacyEndpoint":
        """The endpoint of a document that ENDPOINT has passed."""
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


def _timeout(call: LegacyCall, budget: int, why: str) -> tuple[int, str, InvokeError]:
    return budget, "broker_timeout", InvokeError(f"call {call.call_id}: timeout ({why})")


class MessageBroker:
    """Routes service requests to legacy endpoints per registered tables."""

    def __init__(self, tracer: Tracer | None = None, rng: random.Random | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = rng if rng is not None else random.Random(0)
        self.adapters: dict[str, Adapter] = {}
        self.down: set[str] = set()  # ids of the endpoints that are down for this broker
        self._tables: dict[str, BrokerTable] = {}

    # -- registration -----------------------------------------------------

    def register_adapter(self, adapter: Adapter) -> None:
        self.adapters[adapter.endpoint_id] = adapter

    def register_table(self, table: BrokerTable) -> None:
        """Serve a loaded table, which `load_table` has checked: this refuses
        only a taken service name and an endpoint with no adapter."""
        name = table.service.name
        if name in self._tables:
            raise TableError(f"service {name} already registered")
        for call in table.calls:
            if call.endpoint not in self.adapters:
                raise TableError(f"{name}.{call.call_id}: no adapter for endpoint {call.endpoint}")
        self._tables[name] = table

    def interface(self) -> dict[str, ServiceSignature]:
        """The aggregated operations this broker exposes."""
        return {name: table.service for name, table in sorted(self._tables.items())}

    # -- dispatch -----------------------------------------------------------

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

    def _exchange(self, call: LegacyCall, record: str) -> tuple[int, str, dict | InvokeError]:
        """Simulated wire exchange: returns (delay, event, outcome), where
        event is the trace event that settles the call and outcome is the
        reply's fields or the error the call fails with. A reply record is
        encoded (or, for garbage, taken as it is) and decoded on its first
        use for this call, and its fields are kept in `call.replies`. One
        that cannot be encoded raises again on every use; one that cannot be
        decoded is not kept, and fails with its `CodecError` as the cause."""
        if call.endpoint in self.down:
            return 0, "broker_error", InvokeError(f"call {call.call_id}: endpoint down")
        adapter = self.adapters[call.endpoint]
        ep, budget = adapter.endpoint, adapter.budget
        rule = ep.match(decode_record(call.request_spec, record))
        if rule is None:
            return _timeout(call, budget, "no script rule matched")
        if rule.error:
            event, outcome = "broker_error", InvokeError(f"call {call.call_id}: endpoint error")
        elif rule.garbage is not None or rule.reply is not None:
            event, outcome = "broker_reply", call.replies.get(rule)
            if outcome is None:
                rec = rule.garbage if rule.reply is None else self._encode_reply(call, rule.reply)
                try:
                    outcome = call.replies[rule] = decode_record(call.response_spec, rec)
                except CodecError as exc:
                    event = "broker_bad_reply"
                    outcome = InvokeError(f"call {call.call_id}: undecodable reply: {exc}")
                    outcome.__cause__ = exc
        else:
            return _timeout(call, budget, "endpoint never replied")
        if rule.delay > budget:
            return _timeout(call, budget, f"no reply within {budget}")
        return rule.delay, event, outcome

    def _encode_reply(self, call: LegacyCall, reply: Mapping) -> str:
        names = call.response_spec.field_names
        for name in names:
            if name not in reply:
                raise InvokeError(f"call {call.call_id}: script reply missing field {name}")
        try:
            return encode_record(call.response_spec, {name: reply[name] for name in names})
        except CodecError as exc:
            raise InvokeError(f"call {call.call_id}: script reply: {exc}") from exc

    def invoke(self, service: str, request: Mapping) -> dict:
        """Dispatch with per-stage parallelism (the default mode)."""
        return self._dispatch(service, request, staged=True)

    def invoke_sequential(self, service: str, request: Mapping) -> dict:
        """Dispatch the same calls one at a time in topological order."""
        return self._dispatch(service, request, staged=False)

    def _dispatch(self, service: str, request: Mapping, staged: bool) -> dict:
        table = self._tables.get(service)
        if table is None:
            raise InvokeError(f"no broker table for service {service!r}")
        scopes = {"req": self._typed_request(table.service, request), "call": {}}
        results, tracer, emit = scopes["call"], self.tracer, self.tracer.emit
        mode = "staged" if staged else "sequential"
        stages = table.stages if staged else [(call,) for stage in table.stages for call in stage]
        for stage in stages:
            t0 = tracer.now
            exchanges = []
            for call in stage:
                record = self._encode_request(call, scopes)
                emit("broker_dispatch", call.call_id, call.endpoint, mode)
                delay, event, outcome = self._exchange(call, record)
                tie = self.rng.random() if staged else 0.0
                exchanges.append((t0 + delay, tie, call, event, outcome))
            # settle in completion order: the first failure fails the invoke
            for at, _, call, event, outcome in sorted(exchanges, key=lambda x: (x[0], x[1])):
                tracer.now = max(tracer.now, at)  # simultaneous completions share a tick
                emit(event, call.call_id, call.endpoint, at)
                if event != "broker_reply":
                    raise outcome
                # the kept fields are shared by every invoke, so nothing downstream writes to them
                results[call.call_id] = outcome
        # every call's reply is decoded in full by now, so each checked source resolves
        return {f.name: resolve(table.aggregate[f.name], scopes) for f in table.service.response}

    def _encode_request(self, call: LegacyCall, scopes: dict) -> str:
        values = {fname: resolve(src, scopes) for fname, src in call.request_map.items()}
        try:
            return encode_record(call.request_spec, values)
        except CodecError as exc:
            raise InvokeError(f"call {call.call_id}: request encode: {exc}") from exc

    # -- transactional access path ---------------------------------------------

    # a queued request, as invoke_via_queue stages it; drain consumes any other message as poison
    REQUEST_MESSAGE = Obj({"service": NAME, "request": OBJECT, "reply_to": STR})

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
        self.tracer.emit("broker_staged", ctx.id, service, queue.rm_id)

    def drain(self, coordinator, queue, resolve_queue: Callable[[str], object]) -> int:
        """Serve committed request messages: each one is consumed, invoked,
        and answered in its own transaction, exactly one reply per request
        (failed invocations reply ok=false rather than losing the request).
        A pass stops at the first of these transactions that cannot receive
        or reply because a queue is down (it is rolled back) or that does not
        commit. A pass begins no transaction while the queue is empty, so a
        pass over an empty queue logs nothing."""
        processed = 0
        while queue.depth():
            ctx = coordinator.begin("broker")
            try:
                self._answer(ctx, queue, queue.receive(ctx), resolve_queue)
            except TraError:  # e.g. a queue is down: the request waits for a later pass
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
            check(self.REQUEST_MESSAGE, doc, InvokeError, "queued request")
            service, request = doc["service"], doc["request"]
            reply_queue = resolve_queue(doc["reply_to"])
        except (ValueError, KeyError, RecursionError, TraError):
            # Junk, a wrongly shaped request or an unknown reply queue: consume
            # it so it cannot wedge the queue.
            self.tracer.emit("broker_poison", queue.rm_id)
            return
        try:
            response = self.invoke(service, request)
            payload = {"service": service, "ok": True, "response": response}
        except InvokeError as exc:
            payload = {"service": service, "ok": False, "error": str(exc)}
        try:
            reply_queue.send(ctx, json.dumps(payload, sort_keys=True, default=str))
        except StoreLimitError as exc:  # e.g. an error quoting a large request: refused on every pass
            reply_queue.send(ctx, json.dumps({"service": service, "ok": False, "error": f"reply: {exc}"}, sort_keys=True))
