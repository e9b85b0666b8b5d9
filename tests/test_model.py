"""Layering rules, checked against an independently written rule table."""

import functools
import json
import re

import pytest

import tra
from tra.cli import main
from tra.errors import BindingError, EdgeError, ManifestError
from tra.model import (
    CallEdge,
    LayerKind,
    check_edge,
    load_edges_file,
    load_manifest,
    load_manifest_file,
    resolve_binding,
    validate_layering,
)

# Restated from the architecture description rather than imported from the
# implementation, so the test fails if the tables drift.
ALLOWED_WITHIN = {
    "end_client": {"business_process", "business_service"},
    "business_process": {"business_process", "business_service"},
    "business_service": {"business_service", "sbrs"},
    "sbrs": {"sbr"},
    "sbr": set(),
}
CROSS_CALLERS = {"business_process", "business_service"}
CROSS_TARGETS = {"business_service", "sbrs"}


@pytest.fixture(scope="module")
def model():
    return load_manifest_file(tra.fixture_path("model.json"))


@functools.cache
def _exports_in_fixture():
    """(component, 'internal.service') export entries, read from model.json itself."""
    with open(tra.fixture_path("model.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {(c["name"], entry) for c in doc["components"] for entry in c.get("exports", ())}


def _expected_legal(model, edge):
    caller = model.components[edge.caller_component].internals[edge.caller_internal]
    callee = model.components[edge.callee_component].internals[edge.callee_internal]
    if edge.caller_component == edge.callee_component:
        return callee.layer.value in ALLOWED_WITHIN[caller.layer.value]
    return (
        caller.layer.value in CROSS_CALLERS
        and callee.layer.value in CROSS_TARGETS
        and (edge.callee_component, f"{edge.callee_internal}.{edge.service}") in _exports_in_fixture()
    )


def test_every_possible_edge_agrees_with_rule_table(model):
    """Exhaustive check over the bundled model: the validator's verdict must
    match the rule table for every (caller, callee, service) triple."""
    checked = 0
    for c_lc in model.components.values():
        for caller in c_lc.internals.values():
            for e_lc in model.components.values():
                for callee in e_lc.internals.values():
                    if c_lc.name == e_lc.name and caller.name == callee.name:
                        continue
                    for svc in callee.provides:
                        edge = CallEdge(
                            caller_component=c_lc.name,
                            caller_internal=caller.name,
                            callee_component=e_lc.name,
                            callee_internal=callee.name,
                            service=svc,
                        )
                        verdict = check_edge(model, edge)
                        assert (verdict is None) == _expected_legal(model, edge), edge
                        checked += 1
    assert checked == 84  # 8 callers x every other internal's services


def test_bundled_edges_yield_exactly_the_annotated_violations(model):
    edges = load_edges_file(tra.fixture_path("edges.json"))
    assert len(edges) == 12
    violations = validate_layering(model, edges)
    assert [v.rule for v in violations] == [
        "end-client-skip",
        "resource-touch",
        "upward-call",
        "cross-component-caller",
        "not-exported",
        "cross-component-caller",
    ]
    # Violations come back in input order and point at the offending edges.
    assert [v.edge for v in violations] == edges[6:]


def test_peer_and_skip_rules(model):
    v = check_edge(
        model,
        CallEdge("Customer", "customer_data", "Contract", "contract_data", "writeContract"),
    )
    assert v is not None and v.rule == "cross-component-caller"

    v = check_edge(
        model,
        CallEdge("Customer", "customer_process", "Customer", "customer_db", "write"),
    )
    assert v is not None and v.rule == "process-skip"

    v = check_edge(
        model,
        CallEdge("Customer", "customer_service", "Contract", "contract_db", "write"),
    )
    assert v is not None and v.rule == "cross-component-target"


def test_self_edge_rejected():
    with pytest.raises(EdgeError):
        CallEdge("A", "x", "A", "x", "svc")


def test_unknown_endpoints_raise(model):
    with pytest.raises(EdgeError):
        check_edge(model, CallEdge("Nope", "x", "Customer", "customer_db", "write"))
    with pytest.raises(EdgeError):
        check_edge(
            model, CallEdge("Customer", "customer_ui", "Customer", "customer_db", "mangle")
        )
    with pytest.raises(EdgeError, match="callee does not exist in the model"):
        check_edge(model, CallEdge("Customer", "customer_ui", "Nope", "x", "write"))


def test_resolve_binding(model):
    lc, internal, sig = resolve_binding(model, "Customer", "updateCustomer")
    assert lc.name == "Customer"
    assert internal.name == "customer_service"
    assert sig.transactional
    assert [f.name for f in sig.request] == ["id", "data", "contract", "terms"]

    with pytest.raises(BindingError, match="export"):
        resolve_binding(model, "Contract", "readContract")
    with pytest.raises(BindingError):
        resolve_binding(model, "Contract", "noSuchService")
    with pytest.raises(BindingError):
        resolve_binding(model, "Nowhere", "x")


def test_layer_depths():
    assert [k.depth for k in LayerKind] == [0, 1, 2, 3, 4]


def test_manifest_validation_errors():
    def doc(**overrides):
        base = {
            "components": [
                {
                    "name": "A",
                    "internals": [
                        {"name": "svc", "layer": "business_service", "provides": [
                            {"name": "s", "transactional": True,
                             "request": [], "response": []},
                        ]},
                    ],
                    "exports": ["svc.s"],
                }
            ]
        }
        base.update(overrides)
        return base

    load_manifest(doc())  # baseline is valid

    bad = doc()
    bad["components"][0]["internals"][0]["layer"] = "middleware"
    with pytest.raises(ManifestError):
        load_manifest(bad)

    bad = doc()
    bad["components"][0]["exports"] = ["svc.missing"]
    with pytest.raises(ManifestError):
        load_manifest(bad)

    bad = doc()
    bad["components"].append(json.loads(json.dumps(bad["components"][0])))
    with pytest.raises(ManifestError):
        load_manifest(bad)

    bad = doc()
    bad["components"][0]["internals"][0]["provides"][0]["request"] = [
        {"name": "x", "kind": "blob"}
    ]
    with pytest.raises(ManifestError):
        load_manifest(bad)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda svc: svc["request"].append("x"), r"provides\[0\]\.request\[0\] must be an object, got 'x'"),
        (lambda svc: svc.update(response="x"), "must be a list"),
    ],
    ids=["field-not-object", "fields-not-a-list"],
)
def test_manifest_refuses_malformed_signature_fields(mutate, message):
    svc = {"name": "s", "request": [], "response": []}
    mutate(svc)
    doc = {"components": [{"name": "A", "internals": [
        {"name": "svc", "layer": "business_service", "provides": [svc]},
    ]}]}
    with pytest.raises(ManifestError, match=message):
        load_manifest(doc)


def test_manifest_refuses_a_service_that_is_not_an_object():
    doc = {"components": [{"name": "A", "internals": [
        {"name": "svc", "layer": "business_service", "provides": ["s"]},
    ]}]}
    with pytest.raises(ManifestError, match=r"provides\[0\] must be an object, got 's'"):
        load_manifest(doc)


def _one_internal(**changes):
    internal = {"name": "svc", "layer": "business_service", "provides": []}
    internal.update(changes)
    return {"components": [{"name": "A", "internals": [internal]}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"components": ["x"]}, r"components\[0\] must be an object, got 'x'"),
        ({"components": [{"name": "A", "internals": ["x"]}]}, r"components\[0\]\.internals\[0\] must be an object, got 'x'"),
        ({"components": {"A": {}}}, r"components must be a list, got \{'A': \{\}\}"),
        ({"components": [{"name": "A", "internals": {}}]}, r"components\[0\]\.internals must be a list, got \{\}"),
        (_one_internal(provides={"s": {}}), r"components\[0\]\.internals\[0\]\.provides must be a list, got \{'s': \{\}\}"),
        ({"components": [{"name": "A", "exports": "svc.s"}]}, r"components\[0\]\.exports must be a list, got 'svc.s'"),
    ],
    ids=[
        "component-not-object", "internal-not-object", "components-not-a-list",
        "internals-not-a-list", "provides-not-a-list", "exports-not-a-list",
    ],
)
def test_manifest_refuses_entries_of_the_wrong_shape(doc, message):
    with pytest.raises(ManifestError, match=message):
        load_manifest(doc)


def _two_internals(first_layer="business_service", second_layer="business_service", **component):
    """A component whose internals svc and other both provide a service s."""
    provides = [{"name": "s"}]
    internals = [
        {"name": "svc", "layer": first_layer, "provides": provides},
        {"name": "other", "layer": second_layer, "provides": provides},
    ]
    return {"components": [{"name": "A", "internals": internals, **component}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_two_internals(exports=["svcs"]), "A: export 'svcs' must be 'internal.service'"),
        (_two_internals(exports=["nope.s"]), "A: export nope.s: no internal nope"),
        (_two_internals(exports=["svc.s", "other.s"]), "A: export other.s: service name exported twice"),
        (
            {"components": [{"name": "A", "internals": [
                {"name": "svc", "layer": "sbr"}, {"name": "svc", "layer": "sbrs"},
            ]}]},
            "A: duplicate internal svc",
        ),
        (_one_internal(provides=[{"name": "s"}, {"name": "s"}]), "A.svc: duplicate service s"),
    ],
    ids=["export-without-a-dot", "export-of-an-unknown-internal", "service-exported-twice",
         "duplicate-internal", "duplicate-service"],
)
def test_manifest_refuses_bad_exports_and_duplicates(doc, message):
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(doc)


def test_exports_map_each_exported_service_to_its_internal():
    model = load_manifest(_two_internals(exports=["other.s"]))
    assert model.components["A"].exports == {"s": "other"}


def test_an_sbrs_calling_a_peer_sbrs_is_an_illegal_peer_call():
    model = load_manifest(_two_internals("sbrs", "sbrs"))
    v = check_edge(model, CallEdge("A", "svc", "A", "other", "s"))
    assert (v.rule, v.reason) == ("illegal-peer-call", "sbrs may not call a peer sbrs")


@pytest.mark.parametrize(
    "manifest, edges, message",
    [
        ("{bad", "[]", "manifest .* is not valid JSON"),
        ('{"components": ["x"]}', "[]", r"components\[0\] must be an object, got 'x'"),
        (None, "{bad", "edge list .* is not valid JSON"),
        (None, "{}", r"edges must be a list, got \{\}"),
    ],
    ids=["manifest-not-json", "component-not-object", "edges-not-json", "edges-not-a-list"],
)
def test_cli_validate_exits_two_on_malformed_files(tmp_path, capsys, manifest, edges, message):
    model_path = tmp_path / "model.json"
    if manifest is None:
        model_path = tra.fixture_path("model.json")
    else:
        model_path.write_text(manifest, encoding="utf-8")
    edges_path = tmp_path / "edges.json"
    edges_path.write_text(edges, encoding="utf-8")
    assert main(["validate", str(model_path), str(edges_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert re.search(message, captured.err)
