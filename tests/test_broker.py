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
from tra.records import FieldSpec, MessageSpec, encode_record
from tra.sim import SimClock, Tracer


def profile_table(aggregate=None):
    return load_table(
        {
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
    )


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


def test_registration_validation():
    broker = make_broker()

    with pytest.raises(TableError, match="no adapter"):
        doc = profile_table()
        doc.calls[0] = doc.calls[0].__class__(**{**doc.calls[0].__dict__, "endpoint": "NOPE"})
        broker.register_table(doc)

    with pytest.raises(TableError, match="cover the request spec"):
        t = profile_table()
        t.calls[0].request_map.pop("uid")
        broker.register_table(t)

    with pytest.raises(TableError, match="must name a declared dependency"):
        t = profile_table()
        t.calls[1].request_map["acct"] = "call:other.acct"
        broker.register_table(t)

    with pytest.raises(TableError, match="kind mismatch"):
        t = profile_table(aggregate={"segment": ["call:seg.limit"], "limit": ["call:seg.limit"]})
        broker.register_table(t)

    with pytest.raises(TableError, match="cover the response exactly"):
        t = profile_table(aggregate={"segment": ["call:seg.segment"]})
        broker.register_table(t)

    with pytest.raises(TableError, match="does not exist"):
        t = profile_table(aggregate={"segment": ["call:seg.segment"], "limit": ["call:dir.limit"]})
        broker.register_table(t)

    with pytest.raises(TableError, match="cycle"):
        t = profile_table()
        object.__setattr__(t.calls[0], "depends_on", frozenset({"seg"}))
        t.calls[0].request_map["uid"] = "req.userId"
        broker.register_table(t)

    ok = profile_table()
    broker.register_table(ok)
    with pytest.raises(TableError, match="already registered"):
        broker.register_table(profile_table())


def test_aggregate_falls_back_across_sources():
    # both sources exist; first missing at runtime is impossible here, so
    # instead check precedence: the first listed source wins.
    t = profile_table(
        aggregate={
            "segment": ["call:seg.segment"],
            "limit": ["call:seg.limit", "call:seg.limit"],
        }
    )
    broker = make_broker()
    broker.register_table(t)
    assert broker.invoke("profile", {"userId": "U1"})["limit"] == 9


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


def _set_request_source(call_idx, fname, text):
    def mutate(t):
        t.calls[call_idx].request_map[fname] = text

    return mutate


def _set_aggregate(texts):
    def mutate(t):
        t.aggregate["limit"] = texts

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
def test_bad_sources_are_refused_at_registration(mutate):
    broker = make_broker()
    t = profile_table()
    mutate(t)
    with pytest.raises(TableError, match="bad source"):
        broker.register_table(t)
    assert broker.interface() == {}
    with pytest.raises(InvokeError, match="no broker table"):
        broker.invoke("profile", {"userId": "U1"})


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
