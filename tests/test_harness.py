"""Scenario runner, fault injection, the sweep, and the CLI."""

import json
import re
import signal

import pytest

import tra
from tra.cli import main
from tra.errors import ScenarioError, TableError, TraError
from tra.faults import FaultSpec
from tra.harness import Runner, crash_sweep, render_report, run_scenario
from tra.scenario import load_scenario, load_scenario_file


def transfer_path():
    return tra.fixture_path("transfer.json")


def test_clean_run_passes_all_asserts():
    report = run_scenario(transfer_path())
    assert report["ok"] is True
    assert report["errors"] == []
    assert all(a["ok"] for a in report["asserts"])
    assert report["transactions"]["t1"]["status"] == "committed"
    assert report["stores"]["accounts-a"] == {"alice": "60"}
    assert report["queues"]["audit-q"] == ["transfer 40 alice->bob"]
    assert report["stopped_by_fault"] is False
    assert report["recovery"] is None


def test_identical_inputs_identical_reports():
    a = render_report(run_scenario(transfer_path()), mode="structured")
    b = render_report(run_scenario(transfer_path()), mode="structured")
    assert a.encode() == b.encode()
    # a different seed is a different input, and it shows in the report
    c = render_report(run_scenario(transfer_path(), seed=99), mode="structured")
    assert a != c


def test_coordinator_fault_aborts_and_recovers():
    report = run_scenario(
        transfer_path(), faults=[FaultSpec.parse("coordinator@before_prepare")]
    )
    assert report["stopped_by_fault"] is True
    assert report["fired"] == ["coordinator@before_prepare"]
    assert report["transactions"]["t1"]["status"] == "aborted"
    assert report["stores"]["accounts-a"] == {"alice": "100"}
    assert report["stores"]["accounts-b"] == {"bob": "10"}
    assert report["queues"]["audit-q"] == []
    assert report["recovery"]["presumed_aborted"] == 1
    assert all(report["queue_conservation"].values())


def test_store_fault_after_decision_still_commits():
    report = run_scenario(
        transfer_path(),
        faults=[FaultSpec.parse("accounts-a@after_commit_record_before_phase2")],
    )
    assert report["fired"] == ["accounts-a@after_commit_record_before_phase2"]
    assert report["transactions"]["t1"]["status"] == "committed"
    assert report["stores"]["accounts-a"] == {"alice": "60"}
    assert report["stores"]["accounts-b"] == {"bob": "50"}
    assert report["queues"]["audit-q"] == ["transfer 40 alice->bob"]
    assert report["recovery"]["recommitted"] == 1


def test_endpoint_fault_targets_are_rejected(tmp_path):
    scenario = load_scenario_file(tra.fixture_path("broker_demo.json"))
    with pytest.raises(ScenarioError, match="scripted"):
        Runner(
            scenario,
            str(tmp_path),
            faults=[FaultSpec.parse("POLADM@before_prepare")],
        )


def test_unknown_fault_spec_rejected():
    with pytest.raises(ScenarioError):
        FaultSpec.parse("no-separator")
    with pytest.raises(ScenarioError):
        FaultSpec.parse("coordinator@bogus_point")


def test_expect_error_actions():
    doc = {
        "name": "errors",
        "stores": ["s"],
        "actions": [
            {"op": "begin", "txn": "t"},
            {
                "op": "put",
                "txn": "t",
                "store": "s",
                "key": "",
                "value": "v",
                "expect_error": "non-empty",
            },
            {"op": "rollback", "txn": "t"},
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report["ok"] is True
    assert report["asserts"][0]["ok"] is True

    # the same action without expect_error is a run error
    doc2 = json.loads(json.dumps(doc))
    del doc2["actions"][1]["expect_error"]
    report2 = run_scenario(load_scenario(doc2))
    assert report2["ok"] is False
    assert report2["errors"]


def test_scripted_crash_and_recover_ops():
    doc = {
        "name": "mid-script-crash",
        "stores": [{"name": "s", "initial": {"k": "v0"}}],
        "actions": [
            {"op": "begin", "txn": "t1"},
            {"op": "put", "txn": "t1", "store": "s", "key": "k", "value": "v1"},
            {"op": "commit", "txn": "t1", "expect": "committed"},
            {"op": "crash", "target": "s"},
            {"op": "recover"},
            {"op": "begin", "txn": "t2"},
            {"op": "get", "txn": "t2", "store": "s", "key": "k", "expect": "v1"},
            {"op": "commit", "txn": "t2", "expect": "committed"},
            {"op": "assert", "kind": "store", "store": "s", "key": "k", "value": "v1"},
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report["ok"] is True
    assert report["recovery"] is not None


def test_sweep_on_bundled_transfer():
    result = crash_sweep(transfer_path())
    assert result["ok"] is True
    assert len(result["combinations"]) == 15
    assert all(row["ok"] for row in result["combinations"])
    outcomes = {(r["target"], r["point"]): r["outcome"] for r in result["combinations"]}
    # decision-side faults abort; post-decision faults must still commit
    assert outcomes[("coordinator", "before_prepare")] == "aborted"
    assert outcomes[("coordinator", "after_commit_record_before_phase2")] == "committed"
    assert outcomes[("accounts-a", "before_prepare")] == "aborted"
    assert outcomes[("accounts-a", "mid_phase2_one_committed")] == "committed"


def test_sweep_requires_a_commit():
    doc = {
        "name": "no-commit",
        "stores": ["s"],
        "actions": [{"op": "begin", "txn": "t"}, {"op": "rollback", "txn": "t"}],
    }
    result = crash_sweep(load_scenario(doc))
    assert result["ok"] is False
    assert "no commit" in result["error"]


def test_scenario_validation():
    with pytest.raises(ScenarioError, match=r"actions\[0\]\.op must be one of .*, got 'frobnicate'"):
        load_scenario({"name": "x", "actions": [{"op": "frobnicate"}]})
    with pytest.raises(ScenarioError, match=r"actions\[0\]\.kind must be one of .*, got 'magic'"):
        load_scenario({"name": "x", "actions": [{"op": "assert", "kind": "magic"}]})
    with pytest.raises(ScenarioError, match="effect"):
        load_scenario(
            {
                "name": "x",
                "bindings": [
                    {
                        "component": "A",
                        "service": "s",
                        "effects": [{"do": "explode"}],
                    }
                ],
                "actions": [],
            }
        )
    with pytest.raises(ScenarioError, match="name"):
        load_scenario({"actions": []})
    put_no_store = {"do": "put", "key": "req.k", "value": "req.v"}
    get_no_into = {"do": "get", "store": "s", "key": "req.k"}
    for binding, message in [
        ({"component": "A", "service": "s", "effects": ["put"]}, r"bindings\[0\]\.effects\[0\] must be an object, got 'put'"),
        ({"component": "A", "service": "s", "response": ["lit:x"]}, "must be an object"),
        ({"component": "A", "service": "s", "effects": [put_no_store]}, "missing 'store'"),
        ({"component": "A", "service": "s", "effects": [get_no_into]}, "missing 'into'"),
    ]:
        with pytest.raises(ScenarioError, match=message):
            load_scenario({"name": "x", "bindings": [binding], "actions": []})
    put = {"op": "put", "txn": "t", "store": "s", "key": "k"}
    with pytest.raises(ScenarioError, match=r"actions\[0\]: missing 'value'"):
        load_scenario({"name": "x", "actions": [put]})
    assert_store = {"op": "assert", "kind": "store", "store": "s", "value": "v"}
    with pytest.raises(ScenarioError, match=r"actions\[0\]: missing 'key'"):
        load_scenario({"name": "x", "actions": [assert_store]})
    for resources, message in [
        ({"stores": ["a"], "queues": ["a"]}, "'a' is declared twice"),
        ({"queues": ["a"], "endpoints": [{"endpoint_id": "a"}]}, "'a' is declared twice"),
        ({"stores": [{"name": "a", "prepare_delay": "5x"}]}, "prepare_delay must be an integer"),
        ({"stores": [{"name": "a", "initial": ["k"]}]}, r"stores\[0\]\.initial must be an object, got \['k'\]"),
        ({"queues": [{"name": "a", "initial": {"k": "v"}}]}, r"queues\[0\]\.initial must be a list, got \{'k': 'v'\}"),
        ({"endpoints": ["a"]}, r"endpoints\[0\] must be an object, got 'a'"),
    ]:
        with pytest.raises(ScenarioError, match=message):
            load_scenario({"name": "x", **resources, "actions": []})


def test_cli_run_sweep_validate(capsys):
    assert main(["run", transfer_path()]) == 0
    out = capsys.readouterr().out
    assert "result: OK" in out

    assert main(["run", transfer_path(), "--report", "structured"]) == 0
    structured = json.loads(capsys.readouterr().out)
    assert structured["ok"] is True

    assert main(["sweep", transfer_path()]) == 0
    out = capsys.readouterr().out
    assert "15/15 combinations atomic" in out

    assert (
        main(["validate", tra.fixture_path("model.json"), tra.fixture_path("edges.json")])
        == 1
    )
    out = capsys.readouterr().out
    assert "6 violation(s)" in out
    assert "end-client-skip" in out

    assert main(["run", "/nonexistent/scenario.json"]) == 2


def test_cli_fault_flag(capsys):
    rc = main(["run", transfer_path(), "--fault", "coordinator@before_prepare"])
    out = capsys.readouterr().out
    assert rc == 0  # no assertion failed before the crash stopped the script
    assert "fired: coordinator@before_prepare" in out


def test_cli_failing_scenario_exits_one(tmp_path, capsys):
    doc = {
        "name": "bad-expectation",
        "stores": [{"name": "s", "initial": {"k": "v"}}],
        "actions": [
            {"op": "assert", "kind": "store", "store": "s", "key": "k", "value": "other"}
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(p)]) == 1
    assert "result: FAILED" in capsys.readouterr().out


def test_process_and_broker_demo_scenarios():
    assert run_scenario(tra.fixture_path("process_demo.json"))["ok"] is True
    report = run_scenario(tra.fixture_path("broker_demo.json"))
    assert report["ok"] is True
    assert report["queues"]["requests"] == []
    assert report["queues"]["replies"] == []


def test_cross_component_sweep_commits_or_aborts_both_stores():
    result = crash_sweep(tra.fixture_path("cross_component.json"))
    assert result["ok"] is True
    assert len(result["combinations"]) == 15
    for row in result["combinations"]:
        assert row["outcome"] in ("committed", "aborted")
    # both stores moved together in every combination
    commit = result["commit_state"]["stores"]
    abort = result["abort_state"]["stores"]
    assert commit["customer-db"] == {"cust-9": "NEW"}
    assert commit["contract-db"] == {"ctr-77": "gold"}
    assert abort["customer-db"] == {"cust-9": "OLD"}
    assert abort["contract-db"] == {}


def _cross_component(**binding_changes):
    with open(tra.fixture_path("cross_component.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for path, text in binding_changes.items():
        target = doc["bindings"][0]
        *keys, last = path.split("__")
        for key in keys:
            target = target[int(key)] if key.isdigit() else target[key]
        target[last] = text
    return doc


@pytest.mark.parametrize(
    "change",
    [
        {"effects__0__key": "call:x.id"},  # scope a binding does not allow
        {"effects__1__request__terms": "var:terms"},
        {"response__status": "resp.status"},
        {"effects__0__value": "data"},  # no prefix at all
        {"response__status": 42},  # not text
    ],
    ids=["put-key-call", "call-request-var", "response-resp", "put-value-bare", "response-int"],
)
def test_bad_binding_sources_are_refused_at_load(change):
    with pytest.raises(ScenarioError, match="binding Customer.updateCustomer: bad source"):
        load_scenario(_cross_component(**change), base_dir=tra.fixture_path(""))


@pytest.mark.parametrize(
    "source, message",
    [
        ("eff.contract_reply.nope", "binding source 'eff.contract_reply.nope' is unset"),
        ("eff.nothing", "binding source 'eff.nothing' is unset"),
        ("req.ghost", "binding wants missing request field 'ghost'"),
    ],
)
def test_binding_source_misses_fail_the_call_at_run_time(source, message):
    scenario = load_scenario(
        _cross_component(response__status=source), base_dir=tra.fixture_path("")
    )
    report = run_scenario(scenario)
    assert report["ok"] is False
    assert report["errors"] == [f"action 1 (propagate): {message}"]


def _broker_demo(reply_to="replies", replies_delay=0):
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["queues"] = [{"name": "requests"}, {"name": "replies", "prepare_delay": replies_delay}]
    doc["actions"][2]["reply_to"] = reply_to
    return load_scenario(doc, base_dir=tra.fixture_path(""))


def test_unknown_reply_to_is_consumed_and_every_transaction_settles():
    report = run_scenario(_broker_demo(reply_to="nowhere"))
    assert report["errors"] == []
    assert set(report["log"].values()) <= {"committed", "aborted"}
    assert any(e["ev"] == "broker_poison" for e in report["events"])
    assert report["queues"] == {"requests": [], "replies": []}
    assert all(report["queue_conservation"].values())


def test_crashed_reply_queue_rolls_the_drain_back_and_every_transaction_settles():
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["actions"].insert(0, {"op": "crash", "target": "replies"})
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    assert set(report["log"].values()) <= {"committed", "aborted"}
    # the serving pass after t1's commit is not blamed on the commit
    assert not any("(commit)" in e for e in report["errors"])
    assert report["transactions"]["t1"]["status"] == "committed"
    # the request stays queued for a later pass; nothing is lost
    assert len(report["queues"]["requests"]) == 1
    assert all(report["queue_conservation"].values())


def test_crashed_request_queue_rolls_the_drain_back_and_every_transaction_settles():
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["actions"].insert(0, {"op": "crash", "target": "requests"})
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    assert set(report["log"].values()) <= {"committed", "aborted"}
    # the serving passes after each commit are not blamed on the commit
    assert not any("(commit)" in e for e in report["errors"])
    assert all(report["queue_conservation"].values())


def test_script_reply_with_an_infinite_decimal_is_an_action_error(tmp_path, capsys):
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["endpoints"][1]["script"][0]["reply"]["balance"] = "Infinity"
    doc["tables"] = [tra.fixture_path("broker_table.json")]
    path = tmp_path / "infinity.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    assert "error: action 0 (invoke): call bil: script reply: field balance: expected decimal" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "change, error, message",
    [
        (lambda ep: ep["script"].__setitem__(0, "reply"), TableError, "script[0] must be an object, got 'reply'"),
        (lambda ep: ep["script"][0].update(match="custId"), TableError, "script[0].match must be an object, got 'custId'"),
        (lambda ep: ep["script"][0].update(reply="OK"), TableError, "script[0].reply must be an object or null, got 'OK'"),
        (lambda ep: ep["script"][0].update(delay="4"), TableError, "script[0].delay must be an integer, got '4'"),
        (lambda ep: ep["script"][0].update(reply=None, garbage=7), TableError, "script[0].garbage must be a string or null, got 7"),
        (lambda ep: ep.update(budget="50"), ScenarioError, "budget must be an integer, got '50'"),
    ],
    ids=[
        "rule-not-object", "match-not-object", "reply-not-object", "delay-not-int",
        "garbage-not-text", "budget-not-int",
    ],
)
def test_malformed_endpoint_documents_are_refused(change, error, message):
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc["endpoints"][0])
    with pytest.raises(error, match=re.escape(f"endpoints[0].{message}")):
        load_scenario(doc, base_dir=tra.fixture_path(""))


def test_reply_queue_that_never_commits_does_not_hang_the_run():
    def give_up(*_):
        raise TimeoutError("the run did not finish")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        report = run_scenario(_broker_demo(replies_delay=5000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report["errors"] == []
    assert set(report["log"].values()) <= {"committed", "aborted"}
    # the request stays queued for a later pass; nothing is lost
    assert len(report["queues"]["requests"]) == 1
    assert report["queues"]["replies"] == []
    assert all(report["queue_conservation"].values())


def test_binding_reads_effect_registers_and_nested_replies():
    doc = _cross_component(response__status="eff.contract_reply.status")
    binding = doc["bindings"][0]
    get_old = {"do": "get", "store": "customer-db", "key": "req.id", "into": "old"}
    binding["effects"].insert(0, get_old)
    binding["response"]["before"] = "eff.old"
    doc["actions"][1]["expect"] = {"status": "written", "before": "OLD"}
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    assert report["errors"] == []
    assert report["ok"] is True


def _world(**changes):
    doc = {
        "name": "names",
        "stores": [{"name": "s", "initial": {"k": "v"}}],
        "queues": ["q"],
        "endpoints": [{"endpoint_id": "ep", "script": []}],
        "actions": [],
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            {"actions": [{"op": "put", "txn": "t", "store": "ghost", "key": "k", "value": "v"}]},
            r"action 0 \(put\) store: no store is declared as 'ghost'",
        ),
        (
            {"actions": [{"op": "send", "txn": "t", "queue": "s", "message": "m"}]},
            r"action 0 \(send\) queue: 's' is declared as store, not as queue",
        ),
        (
            {"actions": [{"op": "assert", "kind": "queue", "queue": "ghost"}]},
            r"action 0 \(assert\) queue: no queue is declared as 'ghost'",
        ),
        (
            {"actions": [{"op": "crash", "target": "ghost"}]},
            r"action 0 \(crash\) target: no coordinator/store/queue/endpoint is declared",
        ),
        (
            {"actions": [{"op": "run_process", "process": "ghost"}]},
            r"action 0 \(run_process\) process: no process is declared as 'ghost'",
        ),
        (
            {"actions": [{"op": "assert", "kind": "process", "process": "q", "state": "x"}]},
            r"action 0 \(assert\) process: 'q' is declared as queue, not as process",
        ),
        (
            {"bindings": [{"component": "A", "service": "s", "effects": [
                {"do": "put", "store": "ghost", "key": "req.k", "value": "req.v"}
            ]}]},
            r"binding A.s: put store: no store is declared as 'ghost'",
        ),
        (
            {"bindings": [{"component": "A", "service": "s", "effects": [
                {"do": "send", "queue": "ghost", "message": "req.m"}
            ]}]},
            r"binding A.s: send queue: no queue is declared as 'ghost'",
        ),
        ({"serve_queues": ["ghost"]}, "serve_queues: no queue is declared as 'ghost'"),
        ({"sweep_targets": ["ghost"]}, "sweep_targets: no store/queue is declared as 'ghost'"),
        ({"sweep_targets": ["ep"]}, "sweep_targets: 'ep' is declared as endpoint, not as store/queue"),
        ({"sweep_targets": ["coordinator"]}, "'coordinator' is declared as coordinator"),
        ({"stores": ["coordinator"]}, "store name 'coordinator' is reserved for the coordinator"),
        (
            {"endpoints": [{"endpoint_id": "coordinator"}]},
            "endpoint name 'coordinator' is reserved",
        ),
        ({"processes": [{"name": "p", "steps": []}]}, "processes need a component model"),
        ({"processes": [{"steps": []}], "model": {}}, r"processes\[0\]: missing 'name'"),
        (
            {"processes": [{"name": "s", "steps": []}], "model": {"components": []}},
            "process name 's' is declared twice",
        ),
        ({"stores": ["a\tb"]}, r"stores\[0\] must be a name .*, got 'a\\tb'"),
        ({"queues": ["a\nb"]}, r"queues\[0\] must be a name .*, got 'a\\nb'"),
        ({"stores": [""]}, r"stores\[0\] must be a name .*, got ''"),
        ({"stores": [{"name": "a/b"}]}, r"stores\[0\]\.name must be a name .*, got 'a/b'"),
        ({"endpoints": [{"endpoint_id": "e\tp"}]}, r"endpoints\[0\]\.endpoint_id must be a name .*, got 'e\\tp'"),
    ],
    ids=[
        "put-undeclared-store", "send-to-a-store", "assert-undeclared-queue",
        "crash-undeclared", "run-undeclared-process", "assert-process-names-a-queue",
        "effect-undeclared-store", "effect-undeclared-queue", "serve-undeclared-queue",
        "sweep-undeclared", "sweep-an-endpoint", "sweep-the-coordinator",
        "store-named-coordinator", "endpoint-named-coordinator", "processes-without-model",
        "process-without-name", "process-shares-a-store-name", "store-name-with-a-tab",
        "queue-name-with-a-newline", "store-name-empty", "store-name-with-a-slash",
        "endpoint-name-with-a-tab",
    ],
)
def test_every_name_a_scenario_uses_is_checked_at_load(changes, message):
    with pytest.raises(ScenarioError, match=message):
        load_scenario(_world(**changes))


def test_sweep_with_an_undeclared_target_fails_before_any_run(tmp_path, monkeypatch):
    with open(transfer_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["sweep_targets"].append("ghost")
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = []
    monkeypatch.setattr(Runner, "run", lambda self: runs.append(self))
    with pytest.raises(ScenarioError, match="sweep_targets: no store/queue is declared as 'ghost'"):
        crash_sweep(str(path))
    assert runs == []


@pytest.mark.parametrize("target", ["ghost", "ep"])
def test_fault_targets_read_the_name_table(tmp_path, target):
    scenario = load_scenario(_world())
    with pytest.raises(ScenarioError, match=f"fault target '{target}'"):
        Runner(scenario, str(tmp_path), faults=[FaultSpec.parse(f"{target}@before_prepare")])
    assert list(tmp_path.iterdir()) == []  # refused before any log is opened


def test_every_crash_target_kind_is_crashed_by_name():
    doc = _world(
        actions=[
            {"op": "crash", "target": "s"},
            {"op": "crash", "target": "q"},
            {"op": "crash", "target": "ep"},
            {"op": "crash", "target": "coordinator"},
            {"op": "recover"},
        ]
    )
    report = run_scenario(load_scenario(doc))
    assert report["errors"] == []
    assert [e["who"] for e in report["events"] if e["ev"] == "crash"] == [
        "s", "q", "ep", "coordinator"
    ]
    assert report["recovery"] is not None


def test_expect_is_one_rule_over_what_each_op_observed():
    doc = _world(
        actions=[
            {"op": "begin", "txn": "t1"},
            {"op": "send", "txn": "t1", "queue": "q", "message": "m"},
            {"op": "commit", "txn": "t1", "expect": "committed"},
            {"op": "begin", "txn": "t2"},
            {"op": "get", "txn": "t2", "store": "s", "key": "k", "expect": "v"},
            {"op": "receive", "txn": "t2", "queue": "q", "expect": "other"},
            {"op": "commit", "txn": "t2", "expect": "aborted"},
        ]
    )
    report = run_scenario(load_scenario(doc))
    assert report["errors"] == []
    assert report["asserts"] == [
        {"desc": "commit t1 -> committed", "ok": True},
        {"desc": "get s[k] == 'v'", "ok": True},
        {"desc": "receive q == 'other'", "ok": False},
        {"desc": "commit t2 -> aborted", "ok": False},
    ]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"model": "abc"}, "model must be an object, got 'abc'"),
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"prepare_budget": 1.5}, "prepare_budget must be an integer, got 1.5"),
        ({"stores": "ab"}, "stores must be a list, got 'ab'"),
        ({"queues": {"q": []}}, "queues must be a list"),
        ({"actions": "ab"}, "actions must be a list"),
        ({"model": {}, "processes": [{"name": "p", "steps": "ab"}]}, "steps must be a list"),
        ({"bindings": [{"component": [1], "service": "s"}]}, "bindings[0].component must be a name"),
        ({"bindings": [{"component": "A", "service": "s", "effects": 5}]}, "bindings[0].effects must be a list, got 5"),
        ({"actions": [{"op": "begin", "txn": ["t"]}]}, "actions[0].txn must be a string, got ['t']"),
        ({"endpoints": [{"endpoint_id": "ep", "script": 5}]}, "endpoints[0].script must be a list, got 5"),
        (
            {"actions": [{"op": "run_process", "process": "p", "variables": [1]}]},
            "actions[0].variables must be an object, got [1]",
        ),
        (
            {"actions": [{"op": "begin", "txn": "t", "expect_error": 5}]},
            "actions[0].expect_error must be a string, got 5",
        ),
        (
            {"endpoints": [{"endpoint_id": "ep", "script": [{"error": "no"}]}]},
            "endpoints[0].script[0].error must be a bool, got 'no'",
        ),
    ],
    ids=[
        "model-a-string", "seed-a-string", "seed-a-bool", "budget-a-float",
        "stores-a-string", "queues-an-object", "actions-a-string", "process-steps-a-string",
        "binding-component-a-list", "binding-effects-an-int", "begin-txn-a-list",
        "endpoint-script-an-int", "process-variables-a-list", "expect-error-an-int",
        "script-error-a-string",
    ],
)
def test_wrongly_typed_scenario_fields_end_in_exit_2(tmp_path, capsys, changes, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_world(**changes)), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(TraError, match=re.escape(message)):  # refused at load, not mid-run
        load_scenario_file(str(path))


def test_processes_and_tables_are_parsed_once_at_load():
    from tra.broker import BrokerTable
    from tra.process import ProcessDefinition

    for fixture, parsed, kind in [
        ("process_demo.json", "processes", ProcessDefinition),
        ("broker_demo.json", "tables", BrokerTable),
    ]:
        scenario = load_scenario_file(tra.fixture_path(fixture))
        objects = getattr(scenario, parsed)
        assert objects and all(isinstance(o, kind) for o in objects)
        # runs share the parsed objects, so a second run must report the same
        first = run_scenario(scenario)
        assert first["ok"] and run_scenario(scenario) == first


def test_the_manifest_is_parsed_once_at_load(monkeypatch):
    import tra.harness
    import tra.model

    with pytest.raises(TraError, match=re.escape("components must be a list, got 5")):
        load_scenario({"name": "x", "model": {"components": 5}})

    scenario = load_scenario_file(tra.fixture_path("cross_component.json"))
    assert isinstance(scenario.model, tra.model.ComponentModel)
    parsed = []
    for module in (tra.model, tra.harness):
        monkeypatch.setattr(module, "load_manifest", lambda doc: parsed.append(doc))
    result = crash_sweep(scenario)
    assert result["ok"] and len(result["combinations"]) == 15
    assert parsed == []  # every run of the sweep shares the model built at load


def test_cli_writes_a_lone_surrogate_as_an_escape(tmp_path, capsys):
    # valid JSON, but not encodable as UTF-8 once decoded
    path = tmp_path / "surrogate.json"
    path.write_text(
        '{"name": "s", "stores": ["s"], "actions": ['
        '{"op": "begin", "txn": "\\ud800"}, {"op": "commit", "txn": "\\ud800"}]}',
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 0
    assert "txn \\ud800 (id 1): committed" in capsys.readouterr().out
    main(["sweep", str(path)])
    assert "sweep s" in capsys.readouterr().out
    path.write_text('{"name": "s", "stores": ["\\ud800"]}', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "\\ud800" in capsys.readouterr().err
