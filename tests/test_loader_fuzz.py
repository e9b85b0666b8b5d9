"""Loader fuzzing: every loader ends in a parsed value or a TraError.

Hypothesis mutates each bundled fixture (drops a key or an item, retypes a
value, wraps a value in a list, or puts a random JSON value in its place) and
also feeds raw JSON values to each loader. A mutated scenario that loads must
also run to a report or a TraError, and `tra validate` must exit 0, 1 or 2.
"""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import tra
from tra.broker import LegacyEndpoint, load_table
from tra.cli import main
from tra.errors import TraError
from tra.harness import run_scenario
from tra.model import load_edges, load_manifest
from tra.process import load_definition
from tra.records import MessageSpec
from tra.scenario import load_scenario

DATA = tra.fixture_path("")

LOADERS = {
    "scenario": lambda doc: load_scenario(doc, base_dir=DATA),
    "table": load_table,
    "manifest": load_manifest,
    "edges": load_edges,
    "process": load_definition,
    "endpoint": LegacyEndpoint.from_doc,
    "message spec": MessageSpec.from_dict,
}

FIXTURES = {
    "transfer.json": "scenario",
    "cross_component.json": "scenario",
    "process_demo.json": "scenario",
    "broker_demo.json": "scenario",
    "broker_table.json": "table",
    "model.json": "manifest",
    "edges.json": "edges",
    "onboarding_process.json": "process",
}

# text from every Unicode category, lone surrogates and control characters included
TEXT = st.text(st.characters(categories=("L", "M", "N", "P", "S", "Z", "C")), max_size=12)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
# one value of each JSON type, for retyping
RETYPED = [None, True, 7, 1.5, "x", ["x"], {"x": "x"}]


def _fixture(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def _paths(value, at=()):
    yield at
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, at + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one to three of its nodes dropped, retyped, wrapped or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        *parent_path, key = path or (None,)
        parent = doc
        for step in parent_path:
            parent = parent[step]
        old = doc if not path else parent[key]
        how = draw(st.sampled_from(["drop", "retype", "wrap", "replace"]))
        if how == "drop" and path:
            del parent[key]
            continue
        if how == "retype":
            new = copy.deepcopy(draw(st.sampled_from([v for v in RETYPED if type(v) is not type(old)])))
        elif how == "wrap":
            new = [old]
        else:
            new = draw(JSON)
        if not path:
            doc = new
        else:
            parent[key] = new
    return doc


def _load(kind, doc):
    try:
        return LOADERS[kind](doc)
    except TraError:
        return None


@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=40)
@given(data=st.data())
def test_mutated_fixtures_load_or_end_in_a_tra_error(name, data):
    kind = FIXTURES[name]
    loaded = _load(kind, data.draw(mutated(_fixture(name))))
    if kind == "scenario" and loaded is not None:
        try:
            assert isinstance(run_scenario(loaded), dict)
        except TraError:
            pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=50)
@given(doc=JSON)
def test_raw_json_loads_or_ends_in_a_tra_error(kind, doc):
    _load(kind, doc)


@settings(max_examples=40)
@given(data=st.data())
def test_validate_exits_0_1_or_2_on_mutated_files(data):
    docs = {"model.json": _fixture("model.json"), "edges.json": _fixture("edges.json")}
    which = data.draw(st.sampled_from(sorted(docs)))
    docs[which] = data.draw(mutated(docs[which]))
    with tempfile.TemporaryDirectory() as wd:
        for name, doc in docs.items():
            with open(os.path.join(wd, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        paths = [os.path.join(wd, name) for name in ("model.json", "edges.json")]
        assert main(["validate", *paths]) in (0, 1, 2)
