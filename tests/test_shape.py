"""The document shape checker: shapes no bundled loader checks at the top,
and the undeclared key every loader refuses."""

import json

import pytest

import tra
from tra.broker import ENDPOINT, LegacyEndpoint, load_table
from tra.errors import CodecError, EdgeError, ManifestError, ProcessError, ScenarioError, TableError
from tra.harness import EXPECT_DESC
from tra.model import load_edges, load_manifest
from tra.process import PROCESS, load_definition
from tra.records import MessageSpec
from tra.scenario import ACTION, load_scenario, load_scenario_file
from tra.shape import OBJECT, STR, Either, check, read_json


def test_a_top_level_either_refuses_a_value_of_none_of_its_types():
    check(Either(STR, OBJECT), "file.json", ScenarioError, "entry")
    with pytest.raises(ScenarioError, match=r"^entry must be a string or an object, got 5$"):
        check(Either(STR, OBJECT), 5, ScenarioError, "entry")


def test_a_file_that_cannot_be_read_is_named_in_the_loader_error(tmp_path):
    path = str(tmp_path / "missing.json")
    with pytest.raises(ScenarioError, match=f"^cannot read scenario {path!r}: "):
        read_json(path, ScenarioError, "scenario")


def _table_with(**extra):
    with open(tra.fixture_path("broker_table.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["calls"][1].update(extra)
    return doc


_SPEC_FIELD = {"name": "a", "offset": 0, "length": 4, "kind": "text"}
_END = {"component": "C", "internal": "i"}


@pytest.mark.parametrize(
    "load, doc, error, message",
    [
        (load_scenario, {"name": "x", "stores": ["s"], "sweep_target": ["s"]},
         ScenarioError, "scenario: unknown key 'sweep_target'"),
        (load_scenario, {"name": "x", "model": "model.json"}, ScenarioError, "scenario: unknown key 'model'"),
        (load_scenario, {"name": "x", "actions": [
            {"op": "begin", "txn": "t"}, {"op": "commit", "txn": "t", "expected": "committed"}
        ]}, ScenarioError, "actions[1]: unknown key 'expected'"),
        (load_scenario, {"name": "x", "bindings": [{"component": "A", "service": "s", "effects": [
            {"do": "put", "store": "s", "key": "req.k", "value": "req.v", "into": "old"}
        ]}]}, ScenarioError, "bindings[0].effects[0]: unknown key 'into'"),
        (load_manifest, {"components": [{"name": "C", "internals": [{"name": "i", "layer": "sbr", "provide": []}]}]},
         ManifestError, "components[0].internals[0]: unknown key 'provide'"),
        (load_table, _table_with(depends=["pol"]), TableError, "calls[1]: unknown key 'depends'"),
        (LegacyEndpoint.from_doc, {"endpoint_id": "E", "script": [{"delay": 1, "wait": 3}]},
         TableError, "script[0]: unknown key 'wait'"),
        (load_definition, {"name": "p", "steps": [{"name": "s", "component": "C", "service": "v", "inputs": {}}]},
         ProcessError, "steps[0]: unknown key 'inputs'"),
        (MessageSpec.from_dict, {"record_length": 4, "fields": [{**_SPEC_FIELD, "padding": "zero"}]},
         CodecError, "fields[0]: unknown key 'padding'"),
        (load_edges, [{"caller": _END, "callee": {**_END, "service": "v"}, "notes": "n"}],
         EdgeError, "edges[0]: unknown key 'notes'"),
    ],
    ids=[
        "scenario-sweep-target", "scenario-model", "action-expected", "effect-into", "manifest-internal",
        "table-call", "endpoint-rule", "process-step", "message-spec-field", "edge",
    ],
)
def test_every_loader_refuses_a_key_its_shape_does_not_declare(load, doc, error, message):
    with pytest.raises(error) as exc:
        load(doc)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_an_unknown_key_is_refused_after_a_missing_one_and_before_a_wrong_type():
    doc = {"name": "x", "actions": [{"op": "put", "txn": 1, "store": "s", "key": "k", "extra": 0}]}
    with pytest.raises(ScenarioError, match=r"^actions\[0\]: missing 'value'$"):
        load_scenario(doc)
    doc["actions"][0].update(value="v")
    with pytest.raises(ScenarioError, match=r"^actions\[0\]: unknown key 'extra'$"):
        load_scenario(doc)
    del doc["actions"][0]["extra"]
    with pytest.raises(ScenarioError, match=r"^actions\[0\]\.txn must be a string, got 1$"):
        load_scenario(doc)


def test_expect_is_declared_on_exactly_the_ops_the_runner_compares():
    declared = {op for op in ACTION.shapes if op != "assert" and "expect" in ACTION.shapes[op].keys}
    assert declared == set(EXPECT_DESC)
    assert all("expect" not in shape.keys for shape in ACTION.shapes["assert"].shapes.values())


@pytest.mark.parametrize(
    "action, message",
    [
        (5, r"actions\[0\] must be an object, got 5"),
        ({"txn": "t", "extra": 0}, r"actions\[0\]: missing 'op'"),
        ({"op": "frob", "extra": 0}, r"actions\[0\]\.op must be one of 'begin', .*, got 'frob'"),
        ({"op": "assert", "kind": "store", "store": "s", "key": "k", "extra": 0}, r"actions\[0\]: unknown key 'extra'"),
    ],
    ids=["not-an-object", "no-op", "unknown-op", "nested-kind"],
)
def test_a_tag_is_checked_before_the_keys_of_the_shape_it_picks(action, message):
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        load_scenario({"name": "x", "stores": ["s"], "actions": [action]})


def test_a_scenario_checks_each_endpoint_and_inline_process_once(monkeypatch):
    checked = {"endpoint": 0, "process": 0}
    for name, shape in (("endpoint", ENDPOINT), ("process", PROCESS)):
        def counting(value, name=name, check=shape._check):
            checked[name] += 1
            check(value)
        monkeypatch.setattr(shape, "_check", counting)

    load_scenario_file(tra.fixture_path("broker_demo.json"))  # two endpoints
    assert checked == {"endpoint": 2, "process": 0}

    checked.update(endpoint=0)
    doc = read_json(tra.fixture_path("process_demo.json"), ScenarioError, "scenario")
    inline = {**read_json(tra.fixture_path("onboarding_process.json"), ProcessError, "process"), "name": "inline"}
    doc.update(manifest=tra.fixture_path("model.json"), processes=[inline, tra.fixture_path("onboarding_process.json")])
    assert sorted(load_scenario(doc).processes) == ["inline", "onboarding"]
    assert checked == {"endpoint": 0, "process": 2}  # the inline one by the scenario, the file by its loader


def test_a_process_file_is_checked_by_its_own_loader(tmp_path):
    path = tmp_path / "process.json"
    path.write_text(json.dumps({"name": "p", "steps": [{"name": "s", "subprocess": "q", "inputs": {}}]}))
    doc = {"name": "x", "manifest": tra.fixture_path("model.json"), "processes": [str(path)]}
    with pytest.raises(ProcessError) as exc:
        load_scenario(doc)
    assert str(exc.value) == "steps[0]: unknown key 'inputs'"  # the path from the top of the file
