"""Process engine: policies, subprocess composition, failure shapes."""

import pytest

import tra
from tra.coordinator import LOG_SCHEMA, Coordinator
from tra.errors import ProcessError
from tra.model import load_manifest_file
from tra.process import (
    InstanceState,
    ProcessDefinition,
    ProcessEngine,
    Step,
    TxnPolicy,
    load_definition,
)
from tra.resources import ManagedStore
from tra.sim import SimClock, Tracer
from tra.wal import read_records


@pytest.fixture
def world(tmp_path):
    tracer = Tracer(SimClock())
    model = load_manifest_file(tra.fixture_path("model.json"))
    coord = Coordinator(str(tmp_path / "c.log"), tracer=tracer, model=model)
    store = ManagedStore("db", str(tmp_path / "db.log"), tracer=tracer)
    coord.register(store)

    def update_customer(ctx, request):
        store.put(ctx, request["id"], request["data"])
        return {"status": "ok"}

    def create_contract(ctx, request):
        if request["terms"] == "poison":
            raise ProcessError("refused terms")
        store.put(ctx, request["contract"], request["terms"])
        return {"status": "created"}

    coord.bind_service("Customer", "updateCustomer", update_customer)
    coord.bind_service("Contract", "createContract", create_contract)
    engine = ProcessEngine(model, coord)
    return engine, coord, store


def two_step(policy):
    return ProcessDefinition(
        name="onboard",
        policy=policy,
        steps=[
            Step(
                name="customer",
                component="Customer",
                service="updateCustomer",
                input_map={
                    "id": "var:id",
                    "data": "var:data",
                    "contract": "var:contract",
                    "terms": "var:terms",
                },
                output_map={"cust_status": "resp.status"},
            ),
            Step(
                name="contract",
                component="Contract",
                service="createContract",
                input_map={"contract": "var:contract", "terms": "var:terms"},
                output_map={"ctr_status": "resp.status"},
            ),
        ],
    )


VARS = {"id": "c1", "data": "D", "contract": "k1", "terms": "basic"}


def test_per_step_runs_each_step_in_its_own_transaction(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.PER_STEP))
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.COMPLETED
    assert inst.completed_steps == 2
    assert inst.variables["cust_status"] == "ok"
    assert inst.variables["ctr_status"] == "created"
    assert store.committed_value("c1") == "D"
    kinds = [r[0] for r in read_records(coord.log_path, LOG_SCHEMA)]
    assert kinds.count("BEGIN") == 2 and kinds.count("COMMIT") == 2


def test_spanning_runs_one_transaction(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.COMPLETED
    kinds = [r[0] for r in read_records(coord.log_path, LOG_SCHEMA)]
    assert kinds.count("BEGIN") == 1 and kinds.count("COMMIT") == 1


def test_per_step_failure_keeps_earlier_steps(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.PER_STEP))
    inst = engine.execute(engine.start("onboard", {**VARS, "terms": "poison"}))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "contract"
    assert inst.completed_steps == 1
    assert store.committed_value("c1") == "D"  # step 1 committed alone
    assert store.committed_value("k1") is None


def test_spanning_failure_rolls_everything_back(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", {**VARS, "terms": "poison"}))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "contract"
    assert store.committed_value("c1") is None
    assert store.committed_value("k1") is None


def test_spanning_commit_refusal_fails_with_no_step(world):
    engine, coord, store = world
    store.seed({"c1": "orig"})
    engine.define(two_step(TxnPolicy.SPANNING))

    # every step succeeds but the commit itself is refused
    inst = engine.start("onboard", VARS)

    from tra.txn import TxnStatus

    orig_commit = coord.commit

    def refuse(ctx):
        coord.rollback(ctx)
        return TxnStatus.ABORTED

    coord.commit = refuse
    try:
        inst = engine.execute(inst)
    finally:
        coord.commit = orig_commit
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step is None
    assert inst.reason == "transaction aborted"
    assert store.committed_value("c1") == "orig"
    assert inst.variables == VARS  # neither step's output outlives the aborted transaction


def test_composition_flattening_and_cycle_guard(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.PER_STEP))
    engine.define(
        ProcessDefinition(
            name="outer",
            policy=TxnPolicy.PER_STEP,
            steps=[
                Step(
                    name="pre",
                    component="Customer",
                    service="updateCustomer",
                    input_map={
                        "id": "lit:pre",
                        "data": "lit:P",
                        "contract": "lit:x",
                        "terms": "lit:y",
                    },
                ),
                Step(name="run_onboard", subprocess="onboard"),
            ],
        )
    )
    flat = [s.name for s in engine.flatten("outer")]
    assert flat == ["pre", "customer", "contract"]

    inst = engine.execute(engine.start("outer", VARS))
    assert inst.state is InstanceState.COMPLETED
    # trace order matches flattened order
    steps = [e["step"] for e in coord.tracer.events if e["ev"] == "step"]
    assert steps == flat
    assert store.committed_value("pre") == "P"

    with pytest.raises(ProcessError, match="cycle"):
        engine.define(ProcessDefinition("self", TxnPolicy.PER_STEP, [Step("again", subprocess="self")]))
    assert sorted(engine.definitions) == ["onboard", "outer"]


def test_cyclic_define_leaves_nothing_registered(world):
    engine, _, _ = world

    def calls(name, child):
        return ProcessDefinition(name, TxnPolicy.PER_STEP, [Step(name="s", subprocess=child)])

    engine.define(calls("a", "b"))
    with pytest.raises(ProcessError, match="cycle"):
        engine.define(calls("b", "a"))
    assert "b" not in engine.definitions
    # the name is free again, and a sound definition under it registers
    engine.define(ProcessDefinition("b", TxnPolicy.PER_STEP, []))
    assert [s.name for s in engine.flatten("a")] == []


def test_empty_process_completes_without_transactions(world):
    engine, coord, _ = world
    engine.define(ProcessDefinition(name="noop", policy=TxnPolicy.SPANNING, steps=[]))
    inst = engine.execute(engine.start("noop"))
    assert inst.state is InstanceState.COMPLETED
    assert read_records(coord.log_path, LOG_SCHEMA) == []


def test_definition_validation(world):
    engine, _, _ = world
    with pytest.raises(ProcessError, match="exactly one"):
        Step(name="bad")
    with pytest.raises(ProcessError, match="exactly one"):
        Step(name="bad", component="Customer", service="getCustomer", subprocess="x")
    with pytest.raises(ProcessError, match="go together"):
        Step(name="bad", component="Customer")
    from tra.errors import BindingError

    with pytest.raises(BindingError):
        engine.define(
            ProcessDefinition(
                name="broken",
                policy=TxnPolicy.PER_STEP,
                steps=[
                    Step(name="s", component="Contract", service="readContract")
                ],
            )
        )
    engine.define(two_step(TxnPolicy.PER_STEP))
    with pytest.raises(ProcessError, match="already defined"):
        engine.define(two_step(TxnPolicy.PER_STEP))


def test_unset_variable_fails_cleanly(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.PER_STEP))
    inst = engine.execute(engine.start("onboard", {"id": "c1"}))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "customer"
    assert "unset variable" in inst.reason
    assert store.committed_value("c1") is None


def test_undefined_subprocess_fails_at_execute(world):
    engine, coord, _ = world
    engine.define(
        ProcessDefinition(
            name="outer",
            policy=TxnPolicy.PER_STEP,
            steps=[Step(name="go", subprocess="ghost")],
        )
    )
    inst = engine.execute(engine.start("outer"))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step is None


def test_load_definition_matches_bundled_fixture():
    doc_based = load_definition(
        {
            "name": "onboarding",
            "policy": "spanning",
            "steps": [
                {
                    "name": "s1",
                    "component": "Customer",
                    "service": "updateCustomer",
                    "input": {"id": "var:id"},
                    "output": {"st": "resp.status"},
                }
            ],
        }
    )
    assert doc_based.policy is TxnPolicy.SPANNING
    assert doc_based.steps[0].input_map == {"id": "var:id"}
    with pytest.raises(ProcessError, match="policy"):
        load_definition({"name": "x", "policy": "both"})
    with pytest.raises(ProcessError, match="name"):
        load_definition({"policy": "per_step"})


@pytest.mark.parametrize(
    "input_map, output_map",
    [
        ({"id": "eff.id"}, {}),  # scope a step input does not allow
        ({"id": "resp.id"}, {}),
        ({}, {"st": "var:status"}),  # scope a step output does not allow
        ({"id": "id"}, {}),  # no prefix at all
        ({"id": 42}, {}),  # not text
    ],
    ids=["input-eff", "input-resp", "output-var", "input-bare", "input-int"],
)
def test_bad_sources_are_refused_when_the_step_is_built(input_map, output_map):
    with pytest.raises(ProcessError, match="step s: bad source"):
        Step(
            name="s",
            component="Customer",
            service="updateCustomer",
            input_map=input_map,
            output_map=output_map,
        )


def test_a_step_holds_its_sources_parsed():
    step = Step(name="s", subprocess="p", input_map={"id": "var:id"}, output_map={"st": "resp.st"})
    assert [(src.scope, src.path) for src in step.input_map.values()] == [("var", ("id",))]
    assert [(src.scope, src.path) for src in step.output_map.values()] == [("resp", ("st",))]


def test_duplicate_step_names_are_refused_when_the_definition_is_built():
    steps = [Step(name="s", subprocess="a"), Step(name="s", subprocess="b")]
    with pytest.raises(ProcessError, match="p: duplicate step names"):
        ProcessDefinition("p", TxnPolicy.PER_STEP, steps)


def test_a_refused_define_leaves_the_registered_definitions_unchanged(world):
    engine, _, _ = world
    engine.define(two_step(TxnPolicy.PER_STEP))
    engine.define(ProcessDefinition("outer", TxnPolicy.PER_STEP, [Step("go", subprocess="onboard")]))
    registered = dict(engine.definitions)
    steps = {name: list(defn.steps) for name, defn in registered.items()}
    with pytest.raises(ProcessError, match="cycle"):
        engine.define(ProcessDefinition("outer2", TxnPolicy.PER_STEP, [Step("x", subprocess="outer2")]))
    with pytest.raises(ProcessError, match="already defined"):
        engine.define(ProcessDefinition("onboard", TxnPolicy.PER_STEP, []))
    assert engine.definitions == registered
    for name, defn in registered.items():
        assert engine.definitions[name] is defn
        assert defn.steps == steps[name]


def test_missing_response_field_fails_the_step(world):
    engine, _, store = world
    step = Step(
        name="s",
        component="Customer",
        service="updateCustomer",
        input_map={"id": "lit:c9", "data": "lit:D", "contract": "lit:k", "terms": "lit:t"},
        output_map={"st": "resp.nope"},
    )
    engine.define(ProcessDefinition(name="p", policy=TxnPolicy.PER_STEP, steps=[step]))
    inst = engine.execute(engine.start("p"))
    assert inst.state is InstanceState.FAILED
    assert inst.reason == "step s: response has no field 'nope'"
    assert "st" not in inst.variables
    assert store.committed_value("c9") is None


def _refusing_second_commit(coord):
    from tra.txn import TxnStatus

    orig_commit = coord.commit
    commits = []

    def commit(ctx):
        commits.append(ctx.id)
        if len(commits) == 2:
            coord.rollback(ctx)
            return TxnStatus.ABORTED
        return orig_commit(ctx)

    return commit


def test_per_step_commit_refusal_names_the_step(world):
    engine, coord, store = world
    engine.define(two_step(TxnPolicy.PER_STEP))
    coord.commit = _refusing_second_commit(coord)
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "contract"
    assert inst.reason == "transaction aborted"
    assert inst.completed_steps == 1
    assert store.committed_value("c1") == "D"
    assert store.committed_value("k1") is None
    assert inst.variables == {**VARS, "cust_status": "ok"}  # only the committed step's output


def test_a_step_reads_an_earlier_output_of_its_own_transaction(world):
    engine, _, store = world
    defn = two_step(TxnPolicy.SPANNING)
    contract = defn.steps[1]
    defn.steps[1] = Step(
        contract.name, contract.component, contract.service,
        input_map={"contract": "var:contract", "terms": "var:cust_status"},
        output_map={"ctr_status": "resp.status"},
    )
    engine.define(defn)
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.COMPLETED
    assert store.committed_value("k1") == "ok"
    assert inst.variables == {**VARS, "cust_status": "ok", "ctr_status": "created"}


def test_a_step_that_takes_the_coordinator_down_fails_the_instance(world):
    engine, coord, store = world

    def crash_first(ctx, request):
        coord.crash()
        return coord.propagate(ctx, "Contract", "createContract", request)

    coord.bind_service("Customer", "updateCustomer", crash_first)
    engine.define(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", VARS))  # its rollback is refused too
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "customer"
    assert inst.reason == "coordinator is crashed"


def test_only_a_defined_process_starts(world):
    engine, _, _ = world
    with pytest.raises(ProcessError, match="no process 'ghost'"):
        engine.start("ghost")


def test_spanning_step_failure_completes_no_steps(world):
    # completed_steps counts committed steps, and the spanning rollback undid both
    engine, coord, _ = world
    engine.define(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", {**VARS, "terms": "poison"}))
    assert inst.failed_step == "contract"
    assert inst.completed_steps == 0


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"name": "p", "steps": "ab"}, "steps must be a list"),
        ({"name": "p", "steps": ["s1"]}, r"steps\[0\] must be an object, got 's1'"),
        ({"name": "p", "steps": [{"name": "s", "input": ["id"]}]}, r"steps\[0\]\.input must be an object, got \['id'\]"),
        ({"name": "p", "steps": [{"name": "s", "output": "x"}]}, r"steps\[0\]\.output must be an object, got 'x'"),
        ({"name": "p", "steps": [{"name": ["s"]}]}, r"steps\[0\]\.name must be a name .*, got \['s'\]"),
    ],
    ids=["steps-a-string", "step-a-string", "input-a-list", "output-a-string", "step-name-a-list"],
)
def test_load_definition_refuses_wrong_shapes(doc, message):
    with pytest.raises(ProcessError, match=message):
        load_definition(doc)
