"""Broker dispatch over scripted endpoints, both modes, and queue serving."""

import json
import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

import tra
from tra.broker import (
    Adapter,
    LegacyEndpoint,
    MessageBroker,
    ScriptRule,
    load_table,
    load_table_file,
)
from tra.errors import CodecError, InvokeError, TableError
from tra.records import FieldSpec, MessageSpec, decode_record, encode_record
from tra.sim import SimClock, Tracer


def profile_doc(aggregate=None):
    return {
        "service": {
            "name": "profile",
            "request": [{"name": "userId", "kind": "text"}],
            "response": [
                {"name": "segment", "kind": "text"},
                {"name": "limit", "kind": "integer"},
            ],
        },
        "calls": [
            {
                "call_id": "dir",
                "endpoint": "DIR",
                "request_spec": {
                    "record_length": 8,
                    "fields": [{"name": "uid", "offset": 0, "length": 8, "kind": "text"}],
                },
                "request_map": {"uid": "req.userId"},
                "response_spec": {
                    "record_length": 8,
                    "fields": [
                        {"name": "acct", "offset": 0, "length": 6, "kind": "text"},
                        {"name": "rc", "offset": 6, "length": 2, "kind": "text"},
                    ],
                },
            },
            {
                "call_id": "seg",
                "endpoint": "SEG",
                "request_spec": {
                    "record_length": 6,
                    "fields": [{"name": "acct", "offset": 0, "length": 6, "kind": "text"}],
                },
                "request_map": {"acct": "call:dir.acct"},
                "response_spec": {
                    "record_length": 8,
                    "fields": [
                        {"name": "segment", "offset": 0, "length": 4, "kind": "text"},
                        {"name": "limit", "offset": 4, "length": 4, "kind": "integer"},
                    ],
                },
                "depends_on": ["dir"],
            },
        ],
        "aggregate": aggregate
        or {"segment": ["call:seg.segment"], "limit": ["call:seg.limit"]},
    }


def profile_table(aggregate=None):
    return load_table(profile_doc(aggregate))


def make_broker(script_overrides=None, budget=100):
    broker = MessageBroker(tracer=Tracer(SimClock()), rng=random.Random(7))
    scripts = {
        "DIR": [ScriptRule(match={"uid": "U1"}, delay=3, reply={"acct": "A42", "rc": "OK"})],
        "SEG": [ScriptRule(match={"acct": "A42"}, delay=1, reply={"segment": "GOLD", "limit": 9})],
    }
    if script_overrides:
        scripts.update(script_overrides)
    for ep_id, script in scripts.items():
        broker.register_adapter(Adapter(LegacyEndpoint(ep_id, script), budget=budget))
    return broker


def test_dependent_call_chain_feeds_fields_forward():
    broker = make_broker()
    broker.register_table(profile_table())
    assert broker.invoke("profile", {"userId": "U1"}) == {"segment": "GOLD", "limit": 9}


def test_staged_and_sequential_agree():
    broker = make_broker()
    broker.register_table(profile_table())
    a = broker.invoke("profile", {"userId": "U1"})
    b = broker.invoke_sequential("profile", {"userId": "U1"})
    assert a == b


def test_bundled_table_round_trip():
    broker = MessageBroker(tracer=Tracer(SimClock()), rng=random.Random(1))
    broker.register_adapter(
        Adapter(
            LegacyEndpoint(
                "POLADM",
                [ScriptRule(match={}, delay=2, reply={"name": "N", "policies": 2, "rc": "OK"})],
            )
        )
    )
    broker.register_adapter(
        Adapter(
            LegacyEndpoint(
                "BILLSYS",
                [ScriptRule(match={}, delay=5, reply={"balance": "10.25", "rc": "OK"})],
            )
        )
    )
    broker.register_table(load_table_file(tra.fixture_path("broker_table.json")))
    out = broker.invoke("getCustomer360", {"custId": "C1"})
    assert out == {"name": "N", "policyCount": 2, "balance": Decimal("10.25")}
    assert broker.invoke_sequential("getCustomer360", {"custId": "C1"}) == out
    assert list(broker.interface()) == ["getCustomer360"]


def test_no_matching_rule_times_out():
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={"uid": "someone-else"})]})
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="timeout"):
        broker.invoke("profile", {"userId": "U1"})


def test_slow_reply_times_out_at_budget():
    broker = make_broker(
        script_overrides={
            "DIR": [ScriptRule(match={}, delay=101, reply={"acct": "A42", "rc": "OK"})]
        }
    )
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="timeout"):
        broker.invoke("profile", {"userId": "U1"})


def test_silent_rule_times_out():
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, delay=1)]})
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="timeout"):
        broker.invoke("profile", {"userId": "U1"})


def test_error_and_down_endpoints():
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, error=True)]})
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="endpoint error"):
        broker.invoke("profile", {"userId": "U1"})

    broker2 = make_broker()
    broker2.register_table(profile_table())
    broker2.adapters["SEG"].endpoint.crash()
    with pytest.raises(InvokeError, match="endpoint down"):
        broker2.invoke("profile", {"userId": "U1"})
    broker2.adapters["SEG"].endpoint.recover()
    assert broker2.invoke("profile", {"userId": "U1"})["segment"] == "GOLD"


def test_garbage_reply_is_an_error_not_a_result():
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, garbage="?!")]})
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="undecodable"):
        broker.invoke("profile", {"userId": "U1"})


def test_script_reply_must_cover_response_spec():
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, reply={"acct": "A42"})]})
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="missing field"):
        broker.invoke("profile", {"userId": "U1"})


def test_request_typing():
    broker = make_broker()
    broker.register_table(profile_table())
    with pytest.raises(InvokeError, match="missing field"):
        broker.invoke("profile", {})
    with pytest.raises(InvokeError, match="expected text"):
        broker.invoke("profile", {"userId": 42})
    with pytest.raises(InvokeError, match="no broker table"):
        broker.invoke("ghost", {})


def _drop_request_field(doc):
    doc["calls"][0]["request_map"].pop("uid")


def _map_from_undeclared_call(doc):
    doc["calls"][1]["request_map"]["acct"] = "call:other.acct"


def _depend_in_a_cycle(doc):
    doc["calls"][0]["depends_on"] = ["seg"]


@pytest.mark.parametrize(
    "mutate, aggregate, message",
    [
        (_drop_request_field, None, "cover the request spec"),
        (_map_from_undeclared_call, None, "must name a declared dependency"),
        (None, {"segment": ["call:seg.limit"], "limit": ["call:seg.limit"]}, "kind mismatch"),
        (None, {"segment": ["call:seg.segment"]}, "cover the response exactly"),
        (None, {"segment": ["call:seg.segment"], "limit": ["call:dir.limit"]}, "does not exist"),
        (_depend_in_a_cycle, None, "cycle"),
        (lambda doc: doc["calls"][1].update(call_id="dir"), None, "profile: duplicate call ids"),
        (lambda doc: doc["calls"][1].update(depends_on=["ghost"]), None, "profile.seg: unknown dependency ghost"),
        (None, {"segment": [], "limit": ["call:seg.limit"]}, "profile.aggregate.segment: response field has no sources"),
    ],
    ids=["request-coverage", "undeclared-dependency", "kind-mismatch", "response-coverage",
         "missing-source", "cycle", "duplicate-call-id", "unknown-dependency", "no-aggregate-source"],
)
def test_load_table_checks_every_reference_in_the_table(mutate, aggregate, message):
    doc = profile_doc(aggregate)
    if mutate:
        mutate(doc)
    with pytest.raises(TableError, match=message):
        load_table(doc)


def test_a_script_rule_refuses_a_negative_delay():
    # a scenario's script shape refuses it first; a library caller meets this check
    with pytest.raises(TableError, match="script delay must be >= 0"):
        ScriptRule(delay=-1)


def test_registration_checks_only_the_adapters_and_the_service_name():
    broker = make_broker()
    doc = profile_doc()
    doc["calls"][0]["endpoint"] = "NOPE"
    table = load_table(doc)  # the table itself is sound
    with pytest.raises(TableError, match="no adapter"):
        broker.register_table(table)
    assert broker.interface() == {}

    broker.register_table(profile_table())
    with pytest.raises(TableError, match="already registered"):
        broker.register_table(profile_table())


def _outcome(broker, mode, request):
    """What an invoke answers or fails with, and the event that settled it."""
    try:
        answer = getattr(broker, mode)("profile", request)
    except InvokeError as exc:
        answer = str(exc)
    return answer, broker.tracer.events[-1]


def test_one_loaded_table_serves_two_brokers_alike():
    table = profile_table()
    first, second = make_broker(), make_broker()
    first.register_table(table)
    second.register_table(table)
    outcomes = []
    for mode in ("invoke", "invoke_sequential"):
        for user in ("U1", "U2", "U1"):
            outcomes.append(_outcome(first, mode, {"userId": user}))
            assert _outcome(second, mode, {"userId": user}) == outcomes[-1]
    assert outcomes[0][0] == {"segment": "GOLD", "limit": 9}
    assert outcomes[1][0] == "call dir: timeout (no script rule matched)"
    assert outcomes[1][1]["ev"] == "broker_timeout"


@pytest.mark.parametrize(
    "sources, answer", [(["call:seg.segment", "call:dir.rc"], "GOLD"), (["call:dir.rc", "call:seg.segment"], "OK")]
)
def test_the_first_listed_aggregate_source_answers(sources, answer):
    # every call's reply is decoded in full, so the first source always resolves
    broker = make_broker()
    broker.register_table(profile_table(aggregate={"segment": sources, "limit": ["call:seg.limit"]}))
    assert broker.invoke("profile", {"userId": "U1"}) == {"segment": answer, "limit": 9}


def test_drain_serves_committed_requests_one_reply_each(rig):
    coord, _, queue = rig
    tracer = coord.tracer
    broker = make_broker()
    broker.tracer = tracer
    broker.register_table(profile_table())

    from tra.resources import TxnQueue

    replies = TxnQueue("replies", queue.log_path + ".r", tracer=tracer)
    coord.register(replies)

    t = coord.begin("client")
    broker.invoke_via_queue(t, queue, "profile", {"userId": "U1"}, reply_to="replies")
    # staged request is not served before commit
    assert broker.drain(coord, queue, lambda name: replies) == 0
    coord.commit(t)

    t2 = coord.begin("client")
    queue.send(t2, "this is not json")
    broker.invoke_via_queue(t2, queue, "ghost", {"x": 1}, reply_to="replies")
    coord.commit(t2)

    assert broker.drain(coord, queue, lambda name: replies) == 3
    assert queue.depth() == 0

    seen = []
    t3 = coord.begin("client")
    while True:
        m = replies.receive(t3)
        if m is None:
            break
        seen.append(json.loads(m))
    coord.commit(t3)

    # the junk message was consumed without a reply; both real requests
    # produced exactly one reply each, in order
    assert len(seen) == 2
    assert seen[0]["ok"] is True
    assert seen[0]["response"] == {"segment": "GOLD", "limit": 9}
    assert seen[1]["ok"] is False
    assert "no broker table" in seen[1]["error"]
    assert queue.conservation_holds() and replies.conservation_holds()


def test_drain_begins_a_transaction_per_request_and_none_on_an_empty_queue(rig, tmp_path):
    coord, _, queue = rig
    tracer = coord.tracer
    broker = make_broker()
    broker.tracer = tracer
    broker.register_table(profile_table())

    from tra.resources import TxnQueue

    replies = TxnQueue("replies", queue.log_path + ".r", tracer=tracer)
    coord.register(replies)

    def logs():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    before, events = logs(), len(tracer.events)
    assert broker.drain(coord, queue, lambda name: replies) == 0
    assert logs() == before and len(tracer.events) == events

    t = coord.begin("client")
    for user in ("U1", "U2", "U3"):
        broker.invoke_via_queue(t, queue, "profile", {"userId": user}, reply_to="replies")
    coord.commit(t)
    events = len(tracer.events)
    assert broker.drain(coord, queue, lambda name: replies) == 3
    begun = [e for e in tracer.events[events:] if e["ev"] == "begin"]
    assert [e["originator"] for e in begun] == ["broker"] * 3
    assert replies.depth() == 3 and queue.depth() == 0


def _set_request_source(call_idx, fname, text):
    def mutate(doc):
        doc["calls"][call_idx]["request_map"][fname] = text

    return mutate


def _set_aggregate(texts):
    def mutate(doc):
        doc["aggregate"]["limit"] = texts

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set_request_source(0, "uid", "var:userId"),  # scope a request map does not allow
        _set_request_source(0, "uid", "userId"),  # no prefix at all
        _set_request_source(1, "acct", "call:dir"),  # call source without a field
        _set_request_source(0, "uid", 7),  # not text
        _set_aggregate(["req.userId"]),  # scope an aggregation does not allow
        _set_aggregate(["call:seg.limit", "call:seg"]),  # malformed fallback source
    ],
    ids=["map-var", "map-bare", "map-call-no-field", "map-int", "agg-req", "agg-malformed"],
)
def test_bad_sources_are_refused_at_load(mutate):
    doc = profile_doc()
    mutate(doc)
    with pytest.raises(TableError, match="bad source"):
        load_table(doc)


def test_drain_pass_stops_when_the_reply_cannot_commit(rig):
    coord, _, queue = rig
    broker = make_broker()
    broker.tracer = coord.tracer
    broker.register_table(profile_table())

    from tra.resources import TxnQueue
    from tra.coordinator import LOG_SCHEMA
    from tra.wal import read_records

    # the reply queue's vote arrives after the coordinator's prepare budget
    replies = TxnQueue("replies", queue.log_path + ".r", tracer=coord.tracer, prepare_delay=5000)
    coord.register(replies)
    t = coord.begin("client")
    broker.invoke_via_queue(t, queue, "profile", {"userId": "U1"}, reply_to="replies")
    coord.commit(t)

    lookups = []

    def resolve_queue(name):
        lookups.append(name)
        assert len(lookups) < 5, "drain keeps retrying the same request"
        return replies

    assert broker.drain(coord, queue, resolve_queue) == 0
    assert broker.drain(coord, queue, resolve_queue) == 0
    assert lookups == ["replies", "replies"]
    # the request is still queued for a later pass, and nothing was lost
    assert queue.depth() == 1
    assert replies.depth() == 0
    assert queue.conservation_holds() and replies.conservation_holds()
    # every drain transaction ended with an END record
    begun = {r[1] for r in read_records(coord.log_path, LOG_SCHEMA) if r[0] == "BEGIN"}
    ended = {r[1] for r in read_records(coord.log_path, LOG_SCHEMA) if r[0] == "END"}
    assert begun == ended


def quote_broker(reply_total="1.50"):
    broker = MessageBroker(tracer=Tracer(SimClock()), rng=random.Random(1))
    rule = ScriptRule(match={}, delay=1, reply={"total": reply_total})
    broker.register_adapter(Adapter(LegacyEndpoint("Q", [rule])))
    decimal_field = {"name": "v", "offset": 0, "length": 8, "kind": "decimal", "scale": 2}
    broker.register_table(
        load_table(
            {
                "service": {
                    "name": "quote",
                    "request": [{"name": "amount", "kind": "decimal"}, {"name": "n", "kind": "integer"}],
                    "response": [{"name": "total", "kind": "decimal"}],
                },
                "calls": [
                    {
                        "call_id": "q",
                        "endpoint": "Q",
                        "request_spec": {
                            "record_length": 16,
                            "fields": [
                                {**decimal_field, "name": "amount"},
                                {"name": "n", "offset": 8, "length": 8, "kind": "integer"},
                            ],
                        },
                        "request_map": {"amount": "req.amount", "n": "req.n"},
                        "response_spec": {"record_length": 8, "fields": [{**decimal_field, "name": "total"}]},
                    }
                ],
                "aggregate": {"total": ["call:q.total"]},
            }
        )
    )
    return broker


@pytest.mark.parametrize("value", ["Infinity", "-inf", "NaN", "sNaN"])
def test_non_finite_decimals_are_refused_in_requests_and_script_replies(value):
    assert quote_broker().invoke("quote", {"amount": "2.25", "n": 1}) == {"total": Decimal("1.50")}
    with pytest.raises(InvokeError, match="quote request: field amount: expected decimal"):
        quote_broker().invoke("quote", {"amount": value, "n": 1})
    with pytest.raises(InvokeError, match="call q: script reply: field total: expected decimal"):
        quote_broker(reply_total=value).invoke("quote", {"amount": "2.25", "n": 1})


@pytest.mark.parametrize("value", ["1_000", "١٢"])
def test_request_typing_refuses_what_the_codec_refuses(value):
    spec = MessageSpec(record_length=8, fields=(FieldSpec("n", 0, 8, "integer"),))
    with pytest.raises(CodecError) as codec:
        encode_record(spec, {"n": value})
    with pytest.raises(InvokeError) as broker:
        quote_broker().invoke("quote", {"amount": "2.25", "n": value})
    assert str(broker.value) == f"quote request: {codec.value}"


_FIELD = {"name": "f", "offset": 0, "length": 2, "kind": "text"}
_CALL = {
    "call_id": "c",
    "endpoint": "E",
    "request_spec": {"record_length": 2, "fields": [_FIELD]},
    "request_map": {"f": "lit:x"},
    "response_spec": {"record_length": 0},
}


def _spec_field(**changes):
    return {**_CALL, "request_spec": {"record_length": 2, "fields": [{**_FIELD, **changes}]}}


@pytest.mark.parametrize(
    "service, table, message",
    [
        (
            {"request": [{"name": "x", "kind": "float"}]},
            {},
            r"service.request\[0\].kind must be one of 'text', 'integer', 'decimal', got 'float'",
        ),
        ({"request": [{"name": "x", "kind": "text"}] * 2}, {}, "duplicate field x"),
        ({"response": ["x"]}, {}, r"service.response\[0\] must be an object, got 'x'"),
        ({"transactional": "yes"}, {}, "transactional must be a bool"),
        ({}, {"calls": [{**_CALL, "call_id": ["x"]}]}, r"calls\[0\]\.call_id must be a name .*, got \['x'\]"),
        ({}, {"aggregate": [1]}, r"aggregate must be an object, got \[1\]"),
        (
            {},
            {"calls": [_spec_field(offset=1.9)]},
            r"calls\[0\]\.request_spec\.fields\[0\]\.offset must be an integer, got 1\.9",
        ),
        (
            {},
            {"calls": [_spec_field(offset=True)]},
            r"calls\[0\]\.request_spec\.fields\[0\]\.offset must be an integer, got True",
        ),
        ({}, {"calls": [{**_CALL, "depends_on": "abc"}]}, r"calls\[0\]\.depends_on must be a list, got 'abc'"),
    ],
    ids=[
        "unknown-kind", "duplicate-field", "field-not-object", "transactional-not-bool",
        "call-id-a-list", "aggregate-a-list", "offset-a-float", "offset-a-bool", "depends-on-a-string",
    ],
)
def test_load_table_checks_the_service_signature(service, table, message):
    doc = {"service": {"name": "s", **service}, "calls": [], **table}
    with pytest.raises(TableError, match=message):
        load_table(doc)


@pytest.mark.parametrize(
    "call, message",
    [
        ({**_CALL, "request_spec": {"record_length": -1}}, "record_length must be >= 0"),
        (_spec_field(offset=-1), "field f: bad extent"),
        (_spec_field(length=0), "field f: bad extent"),
    ],
    ids=["negative-record-length", "negative-offset", "zero-length"],
)
def test_a_record_layout_the_codec_cannot_hold_is_a_table_error(call, message):
    with pytest.raises(TableError, match=f"^bad broker table: {message}$"):
        load_table({"service": {"name": "s"}, "calls": [call]})


def test_load_table_file_refuses_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "table.json"
    path.write_text("{bad", encoding="utf-8")
    with pytest.raises(TableError, match="broker table .* is not valid JSON"):
        load_table_file(str(path))
    assert load_table({"service": {"name": "s"}, "calls": [_CALL]}).calls[0].call_id == "c"


@pytest.mark.parametrize(
    "request_change, reply_total, message",
    [
        ({"amount": "1e999999999"}, "1.50", "call q: .*field amount: 1E\\+999999999 overflows width 8"),
        ({"n": "9" * 5000}, "1.50", "quote request: field n: integer has too many digits"),
        ({}, "1e999999999", "call q: script reply: field total: 1E\\+999999999 overflows width 8"),
    ],
    ids=["huge-decimal-request", "huge-integer-request", "huge-decimal-reply"],
)
def test_oversized_numbers_fail_the_invoke(request_change, reply_total, message):
    request = {"amount": "2.25", "n": 1, **request_change}
    with pytest.raises(InvokeError, match=message):
        quote_broker(reply_total=reply_total).invoke("quote", request)


def trio_broker():
    """Three calls, one per endpoint: two in the first stage and one that
    takes the first call's reply, so an invoke encodes three requests and
    meets three script replies."""
    text8 = {"record_length": 8, "fields": [{"name": "v", "offset": 0, "length": 8, "kind": "text"}]}
    broker = MessageBroker(tracer=Tracer(SimClock()), rng=random.Random(3))
    for ep_id in ("E0", "E1", "E2"):
        script = [
            ScriptRule(match={"v": "U1"}, delay=2, reply={"v": f"{ep_id}-U1"}),
            ScriptRule(match={"v": "E0-U1"}, delay=1, reply={"v": f"{ep_id}-E0"}),
            ScriptRule(match={}, delay=3, reply={"v": f"{ep_id}-any"}),
        ]
        broker.register_adapter(Adapter(LegacyEndpoint(ep_id, script)))
    calls = [
        {"call_id": "c0", "endpoint": "E0", "request_map": {"v": "req.userId"}},
        {"call_id": "c1", "endpoint": "E1", "request_map": {"v": "req.userId"}},
        {"call_id": "c2", "endpoint": "E2", "request_map": {"v": "call:c0.v"}, "depends_on": ["c0"]},
    ]
    broker.register_table(load_table({
        "service": {
            "name": "trio",
            "request": [{"name": "userId", "kind": "text"}],
            "response": [{"name": f"r{i}", "kind": "text"} for i in range(3)],
        },
        "calls": [{**c, "request_spec": text8, "response_spec": text8} for c in calls],
        "aggregate": {f"r{i}": [f"call:c{i}.v"] for i in range(3)},
    }))
    return broker


@pytest.fixture
def encodes(monkeypatch):
    """Count the broker's calls of the record encoder."""
    import tra.broker

    calls = []

    def counting(spec, values):
        calls.append(dict(values))
        return encode_record(spec, values)

    monkeypatch.setattr(tra.broker, "encode_record", counting)
    return calls


def test_each_script_reply_is_encoded_once_per_call(encodes):
    broker = trio_broker()
    first = broker.invoke("trio", {"userId": "U1"})
    assert first == {"r0": "E0-U1", "r1": "E1-U1", "r2": "E2-E0"}
    assert len(encodes) == 6  # three requests, three replies
    del encodes[:]
    assert broker.invoke("trio", {"userId": "U1"}) == first
    assert len(encodes) == 3  # the requests only
    del encodes[:]
    # the sequential mode runs the same plan, so it reuses the same records
    assert broker.invoke_sequential("trio", {"userId": "U1"}) == first
    assert len(encodes) == 3
    del encodes[:]
    # another rule answers a new request, and its reply is encoded once too
    other = {"r0": "E0-any", "r1": "E1-any", "r2": "E2-any"}
    assert broker.invoke("trio", {"userId": "U2"}) == other
    assert len(encodes) == 6
    del encodes[:]
    assert broker.invoke("trio", {"userId": "U2"}) == other
    assert len(encodes) == 3


def test_staged_and_sequential_agree_on_repeated_invokes():
    broker = trio_broker()
    for user in ("U1", "U2", "U1", "U3"):
        staged = broker.invoke("trio", {"userId": user})
        assert broker.invoke_sequential("trio", {"userId": user}) == staged
        assert trio_broker().invoke_sequential("trio", {"userId": user}) == staged


@pytest.mark.parametrize(
    "reply, text",
    [
        ({"total": "NaN"}, "call q: script reply: field total: expected decimal"),
        ({}, "call q: script reply missing field total"),
    ],
    ids=["unencodable", "missing-field"],
)
def test_a_failing_script_reply_fails_the_same_way_on_every_invoke(encodes, reply, text):
    broker = quote_broker()
    broker.adapters["Q"].endpoint = LegacyEndpoint("Q", [ScriptRule(match={}, delay=1, reply=reply)])
    errors = []
    for _ in range(3):
        with pytest.raises(InvokeError) as exc:
            broker.invoke("quote", {"amount": "2.25", "n": 1})
        errors.append(str(exc.value))
    assert errors[0].startswith(text)
    assert errors == [errors[0]] * 3
    # nothing was kept: the encoder is tried again on every invoke
    assert len(encodes) == 3 * (2 if reply else 1)


def test_script_rules_are_immutable_and_hash_by_identity():
    a = ScriptRule(match={"k": 1}, reply={"v": "x"})
    b = ScriptRule(match={"k": 1}, reply={"v": "x"})
    with pytest.raises(AttributeError):
        a.delay = 5
    assert a != b and len({a, b}) == 2


def _old_match(script, request):
    """The match rule as first written, a generator per rule."""
    for rule in script:
        if all(str(request.get(k)) == str(v) for k, v in rule.match.items()):
            return rule
    return None


_VALUES = st.sampled_from(
    [0, 1, 10, "1", "01", "x", "", None, "None", Decimal("1"), Decimal("1.0"), Decimal("2.250"), "2.250"]
)
_KEYS = st.sampled_from(["a", "b", "c"])


@given(
    matches=st.lists(st.dictionaries(_KEYS, _VALUES, max_size=3), max_size=6),
    requests=st.lists(st.dictionaries(_KEYS, _VALUES, max_size=3), min_size=1, max_size=5),
)
def test_compiled_match_picks_the_rule_the_plain_predicate_picks(matches, requests):
    script = [ScriptRule(match=m) for m in matches]
    ep = LegacyEndpoint("E", script)
    for request in requests:  # compiled by the first, reused by the rest
        assert ep.match(request) is _old_match(script, request)


def test_first_matching_rule_wins():
    general, specific = ScriptRule(match={}), ScriptRule(match={"a": 1})
    assert LegacyEndpoint("E", [general, specific]).match({"a": 1}) is general
    assert LegacyEndpoint("E", [specific, general]).match({"a": "1"}) is specific
    assert LegacyEndpoint("E", [specific, general]).match({}) is general
    assert LegacyEndpoint("E", [ScriptRule(match={"a": None})]).match({}) is not None
    assert LegacyEndpoint("E", []).match({"a": 1}) is None


@pytest.fixture
def decodes(monkeypatch):
    """Count the broker's calls of the record decoder."""
    import tra.broker

    calls = []

    def counting(spec, record):
        calls.append(record)
        return decode_record(spec, record)

    monkeypatch.setattr(tra.broker, "decode_record", counting)
    return calls


def test_each_kept_reply_is_decoded_once_per_call(decodes):
    broker = trio_broker()
    first = broker.invoke("trio", {"userId": "U1"})
    assert len(decodes) == 6  # three requests, three replies
    del decodes[:]
    assert broker.invoke("trio", {"userId": "U1"}) == first
    assert len(decodes) == 3  # the requests only: the endpoint sees the wire record
    del decodes[:]
    assert broker.invoke_sequential("trio", {"userId": "U1"}) == first
    assert len(decodes) == 3
    del decodes[:]
    # another rule answers a new request, and its reply is decoded once too
    assert broker.invoke("trio", {"userId": "U2"}) == {"r0": "E0-any", "r1": "E1-any", "r2": "E2-any"}
    assert len(decodes) == 6
    del decodes[:]
    broker.invoke("trio", {"userId": "U2"})
    assert len(decodes) == 3


def test_a_garbage_reply_that_decodes_is_decoded_once(decodes):
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, delay=3, garbage="A42   OK")]})
    broker.register_table(profile_table())
    answers = [broker.invoke("profile", {"userId": "U1"}) for _ in range(3)]
    assert answers == [{"segment": "GOLD", "limit": 9}] * 3
    # two requests per invoke, and each call's reply on the first invoke only
    assert len(decodes) == 2 * 3 + 2


def test_an_undecodable_reply_fails_the_same_way_on_every_invoke(decodes):
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, garbage="?!")]})
    broker.register_table(profile_table())
    errors = []
    for _ in range(3):
        with pytest.raises(InvokeError) as exc:
            broker.invoke("profile", {"userId": "U1"})
        assert isinstance(exc.value.__cause__, CodecError)
        errors.append(str(exc.value))
    assert errors == ["call dir: undecodable reply: record length 2 != spec length 8"] * 3
    assert [e["ev"] for e in broker.tracer.events].count("broker_bad_reply") == 3
    # nothing was kept: the request and the reply are decoded on every invoke
    assert decodes == ["U1      ", "?!"] * 3


def test_a_mutated_response_does_not_change_the_next_answer():
    broker = trio_broker()
    first = broker.invoke("trio", {"userId": "U1"})
    expected = dict(first)
    first["r0"] = "changed"
    first.clear()
    assert broker.invoke("trio", {"userId": "U1"}) == expected
    seq = broker.invoke_sequential("trio", {"userId": "U1"})
    seq["r2"] = "changed"
    assert broker.invoke("trio", {"userId": "U1"}) == expected


@pytest.mark.parametrize("first", ["invoke", "invoke_sequential"])
def test_staged_and_sequential_agree_with_kept_replies(first):
    # whichever mode runs first decodes the replies, and the other reuses them
    second = "invoke_sequential" if first == "invoke" else "invoke"
    broker = make_broker(script_overrides={"DIR": [ScriptRule(match={}, delay=3, garbage="A42   OK")]})
    broker.register_table(profile_table())
    answers = [getattr(broker, mode)("profile", {"userId": "U1"}) for mode in (first, second) * 2]
    assert answers == [{"segment": "GOLD", "limit": 9}] * 4
    staged, sequential = quote_broker(), quote_broker()
    for amount in ("2.25", "0.5", "2.25"):
        request = {"amount": amount, "n": 1}
        assert getattr(staged, first)("quote", request) == getattr(sequential, second)("quote", request)
