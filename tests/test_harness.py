"""Scenario runner, fault injection, the sweep, and the CLI."""

import json
import os
import re
import signal

import pytest

import tra
from tra.cli import main
from tra.errors import BindingError, ProcessError, ScenarioError, StoreLimitError, TableError, TraError
from tra.faults import FaultSpec
from tra.harness import Runner, crash_sweep, render_report, render_sweep, run_scenario
from tra.scenario import load_scenario, load_scenario_file
from tra.sim import EVENTS, Tracer


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
    with pytest.raises(ScenarioError, match="empty target"):
        FaultSpec.parse("@before_prepare")


def test_unknown_arm_policies_and_report_modes_are_refused(tmp_path):
    scenario = load_scenario_file(transfer_path())
    with pytest.raises(ScenarioError, match="unknown arm policy 'sometimes'"):
        Runner(scenario, str(tmp_path), arm="sometimes")
    with pytest.raises(ScenarioError, match="unknown report mode 'xml'"):
        render_report(run_scenario(scenario), mode="xml")


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
    assert "  error: scenario has no commit action to sweep\n" in render_sweep(result)


@pytest.mark.parametrize(
    "actions, error",
    [
        (
            [
                {"op": "begin", "txn": "t"},
                {"op": "put", "txn": "t", "store": "s", "key": "k", "value": "v"},
                {"op": "commit", "txn": "t"},
                {"op": "assert", "kind": "store", "store": "s", "key": "k", "value": "other"},
            ],
            "baseline (no-fault) run failed its own assertions",
        ),
        (
            # the swept commit is expected to fail, so its rollback fails unexpected
            [
                {"op": "begin", "txn": "t"},
                {"op": "commit", "txn": "t"},
                {"op": "commit", "txn": "t", "expect_error": "requires an active transaction"},
            ],
            "abort baseline errored: ['action 2 (rollback): txn 1: rollback requires an active "
            "transaction, status is committed']",
        ),
    ],
    ids=["failing-baseline", "erroring-abort-baseline"],
)
def test_a_sweep_whose_baseline_fails_runs_no_fault(actions, error):
    result = crash_sweep(load_scenario({"name": "s", "stores": ["s"], "actions": actions}))
    assert (result["ok"], result["error"], result["combinations"]) == (False, error, [])


TWO_COMMITS = {
    "name": "two-commits",
    "stores": ["a", "b"],
    "sweep_targets": ["a", "b"],
    "actions": [
        {"op": "begin", "txn": "t0"},
        {"op": "put", "txn": "t0", "store": "a", "key": "k", "value": "0"},
        {"op": "commit", "txn": "t0"},
        {"op": "begin", "txn": "t1"},
        {"op": "put", "txn": "t1", "store": "a", "key": "k", "value": "1"},
        {"op": "put", "txn": "t1", "store": "b", "key": "k", "value": "1"},
        {"op": "commit", "txn": "t1"},
    ],
}


def test_the_sweep_aims_every_fault_at_the_last_commit():
    result = crash_sweep(load_scenario(TWO_COMMITS))
    assert result["commit_state"]["stores"] == {"a": {"k": "1"}, "b": {"k": "1"}}
    assert result["abort_state"]["stores"] == {"a": {"k": "0"}, "b": {}}
    assert len(result["combinations"]) == 15
    assert all(row["fired"] and row["ok"] for row in result["combinations"])
    assert result["ok"] is True


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
        ({"stores": [{"name": "a", "prepare_delay": "5x"}]}, "prepare_delay must be a non-negative integer, got '5x'"),
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


def test_a_process_the_coordinator_crashed_inside_is_reported_running(capsys):
    # the crash lands after the step's COMMIT record: recovery commits it, and
    # the process, which never learned that, is still in the report
    rc = main([
        "run", tra.fixture_path("process_demo.json"),
        "--fault", "coordinator@after_commit_record_before_phase2", "--report", "structured",
    ])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["log"] == {"1": "committed"}
    assert report["processes"]["onboarding"]["state"] == "running"
    assert report["processes"]["onboarding"]["failed_step"] is None


def _bundled_doc(name):
    with open(tra.fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_declared_event_kind_is_emitted_with_its_declared_fields(monkeypatch):
    """The bundled scenarios, run and swept, emit every declared kind but five
    failure kinds, which variants of two of them add; every event emitted
    holds one value per declared field."""
    emitted = []
    emit = Tracer.emit

    def recording(self, ev, *values):
        emitted.append((ev, values))
        emit(self, ev, *values)

    monkeypatch.setattr(Tracer, "emit", recording)
    reports = []
    for name in ("transfer.json", "cross_component.json", "process_demo.json", "broker_demo.json"):
        reports.append(run_scenario(tra.fixture_path(name)))
        crash_sweep(tra.fixture_path(name))
    assert set(EVENTS) - {ev for ev, _ in emitted} == {
        "broker_bad_reply", "broker_error", "broker_timeout", "broker_poison", "process_failed",
    }

    broker = _bundled_doc("broker_demo.json")
    broker["endpoints"][0]["script"][:0] = [
        {"match": {"custId": "C0000007"}, "garbage": "?!"},
        {"match": {"custId": "C0000008"}, "error": True},
    ]
    broker["actions"] += [
        {"op": "invoke", "service": "getCustomer360", "request": {"custId": cust}, "expect_error": error}
        for cust, error in (
            ("C0000007", "undecodable reply"), ("C0000008", "endpoint error"), ("C0000009", "timeout"),
        )
    ] + [
        {"op": "begin", "txn": "t3"},
        {"op": "send", "txn": "t3", "queue": "requests", "message": "junk"},
        {"op": "commit", "txn": "t3", "expect": "committed"},
    ]
    process = _bundled_doc("process_demo.json")
    process["actions"] = [{"op": "run_process", "process": "onboarding", "variables": {}, "expect": "failed"}]
    base_dir = os.path.dirname(tra.fixture_path("process_demo.json"))
    for doc in (broker, process):
        reports.append(run_scenario(load_scenario(doc, base_dir)))
    assert all(report["ok"] for report in reports)
    assert {ev for ev, _ in emitted} == set(EVENTS)
    for ev, values in emitted:
        assert len(values) == len(EVENTS[ev]), (ev, values)
    for event in (event for report in reports for event in report["events"]):
        assert list(event)[2:] == list(EVENTS[event["ev"]])


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


def test_a_transaction_left_open_reports_active():
    doc = {
        "name": "open",
        "stores": ["s"],
        "actions": [
            {"op": "begin", "txn": "t"},
            {"op": "put", "txn": "t", "store": "s", "key": "k", "value": "v"},
            {"op": "assert", "kind": "txn", "txn": "t", "status": "active"},
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report["ok"] is True
    assert report["transactions"]["t"]["status"] == "active"


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
        (lambda ep: ep["script"][0].update(delay="4"), TableError, "script[0].delay must be a non-negative integer, got '4'"),
        (lambda ep: ep["script"][0].update(reply=None, garbage=7), TableError, "script[0].garbage must be a string or null, got 7"),
        (lambda ep: ep.update(budget="50"), ScenarioError, "budget must be a non-negative integer, got '50'"),
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


def test_an_endpoint_rule_with_two_actions_is_refused_at_load():
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["endpoints"][0]["script"][0]["error"] = True  # it already replies
    with pytest.raises(TableError, match="endpoint POLADM: script rule has more than one action"):
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


@pytest.mark.parametrize(
    "message",
    [
        json.dumps({"service": ["s"], "request": {}, "reply_to": "replies"}),
        json.dumps({"service": "getCustomer360", "request": "custId", "reply_to": "replies"}),
        json.dumps({"service": "getCustomer360", "request": ["custId"], "reply_to": "replies"}),
        "[" * 5000 + "]" * 5000,  # nested deeper than json.loads recurses
    ],
    ids=["service-a-list", "request-a-string", "request-a-list", "nested-too-deep"],
)
def test_a_wrongly_typed_queued_request_is_poison_and_every_transaction_settles(message):
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["actions"] = [
        {"op": "begin", "txn": "t"},
        {"op": "send", "txn": "t", "queue": "requests", "message": message},
        {"op": "commit", "txn": "t", "expect": "committed"},
    ]
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    assert report["errors"] == []
    assert set(report["log"].values()) <= {"committed", "aborted"}
    assert [e["ev"] for e in report["events"]].count("broker_poison") == 1
    assert report["queues"] == {"requests": [], "replies": []}
    assert all(report["queue_conservation"].values())


def test_a_script_delete_removes_the_key_at_commit():
    doc = {
        "name": "delete",
        "stores": [{"name": "s", "initial": {"k": "v", "other": "w"}}],
        "actions": [
            {"op": "begin", "txn": "t"},
            {"op": "delete", "txn": "t", "store": "s", "key": "k"},
            {"op": "commit", "txn": "t", "expect": "committed"},
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report["ok"] is True
    assert report["stores"] == {"s": {"other": "w"}}


def test_binding_delete_and_send_effects_run_the_script_ops():
    doc = _cross_component()
    doc["queues"] = ["audit"]
    doc["bindings"][0]["effects"][0] = {"do": "delete", "store": "customer-db", "key": "req.id"}
    doc["bindings"][0]["effects"].append({"do": "send", "queue": "audit", "message": "req.data"})
    doc["actions"] = doc["actions"][:3]
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    assert report["ok"] is True
    assert report["stores"] == {"customer-db": {}, "contract-db": {"ctr-77": "gold"}}
    assert report["queues"] == {"audit": ["NEW"]}
    assert all(report["queue_conservation"].values())


def test_effect_fields_its_do_does_not_declare_are_ignored():
    doc = _cross_component(response__before="eff.old")
    put = doc["bindings"][0]["effects"][0]
    put.update(into="old", message="not a source", request={"x": "req.nope"})
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    # the put stores nothing under `into`, so the response source is unset
    assert report["errors"] == ["action 1 (propagate): binding source 'eff.old' is unset"]


def test_every_op_naming_a_transaction_needs_one_that_began():
    doc = {
        "name": "names",
        "stores": ["s"],
        "actions": [
            {"op": "put", "txn": "ghost", "store": "s", "key": "k", "value": "v"},
            {"op": "begin", "txn": "t"},
            {"op": "begin", "txn": "t"},
            {"op": "assert", "kind": "txn", "txn": "ghost", "status": "committed"},
            {"op": "rollback", "txn": "t"},
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report["errors"] == [
        "action 0 (put): unknown transaction name 'ghost'",
        "action 2 (begin): begin needs a fresh transaction name, got 't'",
        "action 3 (assert): unknown transaction name 'ghost'",
    ]
    assert report["transactions"]["t"]["status"] == "aborted"


def test_an_expected_error_that_is_not_raised_is_a_failed_assert():
    doc = {
        "name": "no-error",
        "stores": ["s"],
        "actions": [
            {"op": "begin", "txn": "t"},
            {"op": "put", "txn": "t", "store": "s", "key": "k", "value": "v", "expect_error": "non-empty"},
            {"op": "commit", "txn": "t"},
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report["ok"] is False
    assert report["errors"] == []
    assert report["asserts"] == [{"desc": "action 1 (put) raises 'non-empty'", "ok": False}]
    assert report["stores"] == {"s": {"k": "v"}}


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
        ({"prepare_budget": 1.5}, "prepare_budget must be a non-negative integer, got 1.5"),
        ({"stores": [{"name": "s", "prepare_delay": -5}]}, "stores[0].prepare_delay must be a non-negative integer, got -5"),
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
        "model-a-string", "seed-a-string", "seed-a-bool", "budget-a-float", "prepare-delay-negative",
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


def test_a_lone_surrogate_value_is_refused_like_an_over_long_key(tmp_path, capsys):
    message = "values must be valid Unicode text, with no lone surrogates"
    path = tmp_path / "initial.json"
    path.write_text(json.dumps(_world(stores=[{"name": "s", "initial": {"k": "\ud800"}}])), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

    actions = [
        {"op": "begin", "txn": "t"},
        {"op": "put", "txn": "t", "store": "s", "key": "k", "value": "\ud800"},
        {"op": "put", "txn": "t", "store": "s", "key": "k" * 300, "value": "v"},
        {"op": "commit", "txn": "t"},
    ]
    path = tmp_path / "put.json"
    path.write_text(json.dumps(_world(actions=actions)), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"error: action 1 (put): {message}\n" in out
    assert "error: action 2 (put): key longer than 256 characters\n" in out


SURROGATE = "values must be valid Unicode text, with no lone surrogates"
TOO_LARGE = "v" * (64 * 1024 + 1)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"stores": [{"name": "s", "initial": {"k" * 300: "v"}}]}, "key longer than 256 characters"),
        ({"stores": [{"name": "s", "initial": {"": "v"}}]}, "keys must be non-empty strings"),
        ({"stores": [{"name": "s", "initial": {"k": "\ud800"}}]}, SURROGATE),
        ({"stores": [{"name": "s", "initial": {"k": TOO_LARGE}}]}, "value larger than 65536 bytes"),
        ({"queues": [{"name": "q", "initial": ["m", "\udfff"]}]}, SURROGATE),
        ({"queues": [{"name": "q", "initial": [TOO_LARGE]}]}, "value larger than 65536 bytes"),
    ],
    ids=[
        "store-key-300-chars", "store-key-empty", "store-value-surrogate", "store-value-over-64k",
        "queue-message-surrogate", "queue-message-over-64k",
    ],
)
def test_initial_entries_over_the_store_limits_are_refused_at_load(changes, message):
    with pytest.raises(StoreLimitError, match=f"^{re.escape(message)}$"):
        load_scenario(_world(**changes))


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


def _cycle(table):
    table["calls"][0]["depends_on"] = ["bil"]
    table["calls"][1]["depends_on"] = ["pol"]


@pytest.mark.parametrize(
    "change, message",
    [
        (_cycle, "getCustomer360: dependency cycle among ['bil', 'pol']"),
        (lambda t: t["calls"][0]["request_map"].update(func="POLQ"), "getCustomer360.pol.func: bad source 'POLQ'"),
        (lambda t: t["aggregate"].update(name=["req.custId"]), "getCustomer360.aggregate.name: bad source 'req.custId'"),
    ],
    ids=["cycle", "bad-request-source", "bad-aggregate-source"],
)
def test_a_bad_inline_table_is_refused_at_load(change, message):
    with open(tra.fixture_path("broker_demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(tra.fixture_path("broker_table.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    change(table)
    doc["tables"] = [table]
    with pytest.raises(TableError, match=re.escape(message)):
        load_scenario(doc)


def _fixture(name):
    with open(tra.fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _process_demo(change):
    doc = _fixture("process_demo.json")
    doc["processes"] = [_fixture("onboarding_process.json")]
    change(doc["processes"][0])
    return doc


def _non_transactional(doc, service):
    """doc, with an inline copy of the bundled model in which `service` is not transactional."""
    model = _fixture("model.json")
    for component in model["components"]:
        for internal in component["internals"]:
            for sig in internal["provides"]:
                if sig["name"] == service:
                    sig["transactional"] = False
    doc.pop("manifest")
    doc["model"] = model
    return doc


def _changed(fixture, change):
    doc = _fixture(fixture)
    change(doc)
    return doc


def _table_with_endpoint(endpoint):
    table = _fixture("broker_table.json")
    table["calls"][0]["endpoint"] = endpoint
    return table


@pytest.mark.parametrize(
    "doc, error, message",
    [
        (
            _process_demo(lambda p: p["steps"][0]["input"].update(id="bogus")),
            ProcessError, "step record-customer: bad source 'bogus'",
        ),
        (
            _process_demo(lambda p: p["steps"][0].update(service="ghost")),
            BindingError, "Customer provides no service 'ghost'",
        ),
        (
            _process_demo(lambda p: p["steps"].append({"name": "again", "subprocess": "onboarding"})),
            ProcessError, "subprocess cycle: onboarding -> onboarding",
        ),
        (
            _process_demo(lambda p: p["steps"].append({"name": "g", "subprocess": "ghost"})),
            ScenarioError, "process onboarding subprocess: no process is declared as 'ghost'",
        ),
        (
            _process_demo(lambda p: p["steps"][1].update(name="record-customer")),
            ProcessError, "onboarding: duplicate step names",
        ),
        (
            _changed("broker_demo.json", lambda d: d.update(tables=[_table_with_endpoint("ghost")])),
            TableError, "getCustomer360.pol: no adapter for endpoint ghost",
        ),
        (
            _changed("broker_demo.json", lambda d: d.update(tables=["broker_table.json"] * 2)),
            TableError, "service getCustomer360 already registered",
        ),
        (
            _changed("cross_component.json", lambda d: d["bindings"].append(dict(d["bindings"][1]))),
            ScenarioError, "binding Contract.writeContract is declared twice",
        ),
        (
            _changed("cross_component.json", lambda d: d["bindings"].append(
                {"component": "Customer", "service": "ghost"}
            )),
            BindingError, "binding Customer.ghost: Customer provides no service 'ghost'",
        ),
        (
            _changed("cross_component.json", lambda d: d["bindings"][0]["effects"][1].update(
                component="Nobody"
            )),
            BindingError, "binding Customer.updateCustomer: call: unknown component 'Nobody'",
        ),
        (
            _changed("cross_component.json", lambda d: d["actions"][1].update(service="ghost")),
            BindingError, "action 1 (propagate): Customer provides no service 'ghost'",
        ),
        (
            _changed("cross_component.json", lambda d: d.pop("manifest")),
            ScenarioError, "action 1 (propagate): services need a component model",
        ),
        (
            _non_transactional(_fixture("cross_component.json"), "updateCustomer"),
            BindingError, "action 1 (propagate): Customer.updateCustomer is not transactional",
        ),
        (
            _non_transactional(_fixture("cross_component.json"), "writeContract"),
            BindingError, "binding Customer.updateCustomer: call: Contract.writeContract is not transactional",
        ),
        (
            _non_transactional(
                _changed("cross_component.json", lambda d: d["bindings"][0]["effects"].pop(1)),
                "writeContract",
            ),
            BindingError, "binding Contract.writeContract: Contract.writeContract is not transactional",
        ),
        (
            _non_transactional(_process_demo(lambda p: None), "createContract"),
            BindingError, "Contract.createContract is not transactional",
        ),
    ],
    ids=[
        "step-bogus-source", "step-unknown-service", "self-subprocess", "undeclared-subprocess",
        "repeated-step-name",
        "table-undeclared-endpoint", "two-tables-one-service", "second-binding",
        "binding-unknown-service", "call-effect-unknown-component", "propagate-unknown-service",
        "propagate-without-model", "propagate-not-transactional", "call-effect-not-transactional",
        "binding-not-transactional", "step-not-transactional",
    ],
)
def test_every_cross_reference_is_resolved_at_load(doc, error, message):
    with pytest.raises(error, match=re.escape(message)):
        load_scenario(doc, base_dir=tra.fixture_path(""))


@pytest.mark.parametrize(
    "changes, error, message",
    [
        ({"stores": [{"name": "s", "prepare_delay": -5}]}, ScenarioError, "stores[0].prepare_delay"),
        ({"prepare_budget": -1}, ScenarioError, "prepare_budget"),
        ({"endpoints": [{"endpoint_id": "ep", "budget": -1}]}, ScenarioError, "endpoints[0].budget"),
        (
            {"endpoints": [{"endpoint_id": "ep", "script": [{"delay": -1, "error": True}]}]},
            TableError, "endpoints[0].script[0].delay",
        ),
    ],
    ids=["prepare-delay", "prepare-budget", "endpoint-budget", "script-delay"],
)
def test_negative_counts_are_refused_at_load(changes, error, message):
    with pytest.raises(error, match=re.escape(f"{message} must be a non-negative integer, got -")):
        load_scenario(_world(**changes))


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


READ_ONLY_SWEEP = {
    "name": "s",
    "stores": ["s"],
    "sweep_targets": ["s"],
    "actions": [
        {"op": "begin", "txn": "t"},
        {"op": "get", "txn": "t", "store": "s", "key": "k"},
        {"op": "commit", "txn": "t"},
    ],
}


def test_a_sweep_of_a_read_only_commit_is_classified_by_the_log(tmp_path, capsys):
    # commit and abort leave the same state, so the log's decision tells them apart
    path = tmp_path / "read_only.json"
    path.write_text(json.dumps(READ_ONLY_SWEEP), encoding="utf-8")
    assert main(["sweep", str(path)]) == 0
    out = capsys.readouterr().out
    assert "result: OK (10/10 combinations atomic)" in out
    result = crash_sweep(str(path))
    assert result["commit_state"] == result["abort_state"]
    outcomes = {(r["target"], r["point"]): r["outcome"] for r in result["combinations"]}
    assert outcomes[("coordinator", "before_prepare")] == "aborted"
    assert outcomes[("coordinator", "after_commit_record_before_phase2")] == "committed"
    assert all(r["log_matches_outcome"] for r in result["combinations"])


def test_a_swept_transaction_the_log_leaves_undecided_fails_its_row(monkeypatch):
    import tra.harness

    run_once = tra.harness._run_once

    def undecided(scenario, workdir, **kwargs):
        report = run_once(scenario, workdir, **kwargs)
        if kwargs.get("faults"):
            report["log"] = {k: "active" for k in report["log"]}
        return report

    monkeypatch.setattr(tra.harness, "_run_once", undecided)
    result = crash_sweep(load_scenario(READ_ONLY_SWEEP))
    assert result["ok"] is False
    assert {r["outcome"] for r in result["combinations"]} == {"undecided"}
    assert not any(r["ok"] or r["log_matches_outcome"] for r in result["combinations"])


ONBOARDING_VARIABLES = _fixture("process_demo.json")["actions"][0]["variables"]


@pytest.mark.parametrize(
    "policy, stores, outputs, failed",
    [
        ("spanning", {"contract-db": {}, "customer-db": {}}, {}, "failed"),
        (
            "per_step", {"contract-db": {}, "customer-db": {"cust-1": "ADA LOVELACE"}},
            {"update_status": "ok"}, "failed at record-contract",
        ),
    ],
)
def test_a_failed_process_keeps_no_output_of_an_aborted_transaction(policy, stores, outputs, failed):
    doc = _process_demo(lambda p: p.update(policy=policy))
    fault = FaultSpec.parse("contract-db@before_prepare")
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")), faults=[fault])
    assert report["fired"] == [str(fault)]
    assert report["stores"] == stores
    assert report["processes"]["onboarding"]["variables"] == {**ONBOARDING_VARIABLES, **outputs}
    assert f"process onboarding: {failed}\n" in render_report(report, mode="text")


def test_a_process_assert_reads_the_instance_state():
    doc = _process_demo(lambda p: None)
    doc["actions"].insert(0, {"op": "assert", "kind": "process", "process": "onboarding", "state": "never-ran"})
    doc["actions"].append({"op": "assert", "kind": "process", "process": "onboarding", "state": "completed"})
    report = run_scenario(load_scenario(doc, base_dir=tra.fixture_path("")))
    assert report["ok"] is True
    descs = [a["desc"] for a in report["asserts"]]
    assert descs[0] == "process onboarding is never-ran" and descs[-1] == "process onboarding is completed"
    assert "process onboarding: completed\n" in render_report(report, mode="text")


def test_a_state_that_is_neither_commit_nor_abort_is_a_split_row(monkeypatch):
    import tra.harness

    run_once = tra.harness._run_once

    def torn(scenario, workdir, **kwargs):
        report = run_once(scenario, workdir, **kwargs)
        if kwargs.get("faults"):
            report["stores"] = {"a": {"k": "1"}, "b": {}}  # half of t1 applied
        return report

    monkeypatch.setattr(tra.harness, "_run_once", torn)
    result = crash_sweep(load_scenario(TWO_COMMITS))
    assert result["ok"] is False
    assert {r["outcome"] for r in result["combinations"]} == {"split"}
    assert not any(r["ok"] for r in result["combinations"])
