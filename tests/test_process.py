"""Process engine: policies, subprocess composition, failure shapes."""

import re
import time

import pytest

import tra
from tra.coordinator import LOG_SCHEMA, Coordinator
from tra.errors import BindingError, ProcessError
from tra.model import load_manifest_file
from tra.process import (
    MAX_PLAN_STEPS,
    MAX_TOTAL_PLAN_STEPS,
    InstanceState,
    ProcessDefinition,
    ProcessEngine,
    Step,
    TxnPolicy,
    load_definition,
    load_processes,
)
from tra.resources import ManagedStore
from tra.sim import Tracer
from tra.txn import TxnStatus
from tra.wal import read_records


@pytest.fixture
def world(tmp_path):
    tracer = Tracer()
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

    def load(*definitions):
        return ProcessEngine(coord, load_processes(model, definitions))

    return load, coord, store


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
    load, coord, store = world
    engine = load(two_step(TxnPolicy.PER_STEP))
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.COMPLETED
    assert inst.completed_steps == 2
    assert inst.variables["cust_status"] == "ok"
    assert inst.variables["ctr_status"] == "created"
    assert store.committed_value("c1") == "D"
    kinds = [r[0] for r in read_records(coord.log_path, LOG_SCHEMA)]
    assert kinds.count("BEGIN") == 2 and kinds.count("COMMIT") == 2


def test_spanning_runs_one_transaction(world):
    load, coord, store = world
    engine = load(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.COMPLETED
    kinds = [r[0] for r in read_records(coord.log_path, LOG_SCHEMA)]
    assert kinds.count("BEGIN") == 1 and kinds.count("COMMIT") == 1


def test_per_step_failure_keeps_earlier_steps(world):
    load, coord, store = world
    engine = load(two_step(TxnPolicy.PER_STEP))
    inst = engine.execute(engine.start("onboard", {**VARS, "terms": "poison"}))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "contract"
    assert inst.completed_steps == 1
    assert store.committed_value("c1") == "D"  # step 1 committed alone
    assert store.committed_value("k1") is None


def test_spanning_failure_rolls_everything_back(world):
    load, coord, store = world
    engine = load(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", {**VARS, "terms": "poison"}))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "contract"
    assert store.committed_value("c1") is None
    assert store.committed_value("k1") is None
    # the failed step's transaction is rolled back, not left open
    assert [r[0] for r in read_records(coord.log_path, LOG_SCHEMA)][-2:] == ["ABORT", "END"]
    assert coord.contexts == {}


def test_spanning_commit_refusal_fails_with_no_step(world):
    load, coord, store = world
    store.seed({"c1": "orig"})
    engine = load(two_step(TxnPolicy.SPANNING))

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
    load, coord, store = world
    outer = ProcessDefinition(
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
    engine = load(outer, two_step(TxnPolicy.PER_STEP))  # a parent may come before its child
    flat = [s.name for s in engine.plans["outer"].steps]
    assert flat == ["pre", "customer", "contract"]
    assert engine.plans["outer"].steps[1:] == engine.plans["onboard"].steps

    inst = engine.execute(engine.start("outer", VARS))
    assert inst.state is InstanceState.COMPLETED
    # trace order matches the plan's order
    steps = [e["step"] for e in coord.tracer.events if e["ev"] == "step"]
    assert steps == flat
    assert store.committed_value("pre") == "P"

    with pytest.raises(ProcessError, match="^subprocess cycle: self -> self$"):
        load(ProcessDefinition("self", TxnPolicy.PER_STEP, [Step("again", subprocess="self")]))


def _calls(name, *children):
    return ProcessDefinition(name, TxnPolicy.PER_STEP, [Step(f"s{i}", subprocess=c) for i, c in enumerate(children)])


def test_a_cycle_is_named_from_the_first_process_on_it(world):
    load, _, _ = world
    with pytest.raises(ProcessError, match="^subprocess cycle: a -> b -> a$"):
        load(_calls("root", "a"), _calls("a", "b"), _calls("b", "a"))
    with pytest.raises(ProcessError, match="^subprocess cycle: b -> a -> b$"):
        load(_calls("b", "a"), _calls("a", "b"))


def test_empty_process_completes_without_transactions(world):
    load, coord, _ = world
    engine = load(ProcessDefinition(name="noop", policy=TxnPolicy.SPANNING, steps=[]))
    inst = engine.execute(engine.start("noop"))
    assert inst.state is InstanceState.COMPLETED
    assert list(read_records(coord.log_path, LOG_SCHEMA)) == []


def test_definition_validation(world):
    load, _, _ = world
    with pytest.raises(ProcessError, match="exactly one"):
        Step(name="bad")
    with pytest.raises(ProcessError, match="exactly one"):
        Step(name="bad", component="Customer", service="getCustomer", subprocess="x")
    with pytest.raises(ProcessError, match="go together"):
        Step(name="bad", component="Customer")
    broken = ProcessDefinition(
        name="broken",
        policy=TxnPolicy.PER_STEP,
        steps=[Step(name="s", component="Contract", service="readContract")],
    )
    with pytest.raises(BindingError, match="^process broken step s: Contract.readContract exists but is not exported$"):
        load(broken)
    with pytest.raises(ProcessError, match="^process onboard already defined$"):
        load(two_step(TxnPolicy.PER_STEP), two_step(TxnPolicy.SPANNING))


def test_unset_variable_fails_cleanly(world):
    load, coord, store = world
    engine = load(two_step(TxnPolicy.PER_STEP))
    inst = engine.execute(engine.start("onboard", {"id": "c1"}))
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "customer"
    assert "unset variable" in inst.reason
    assert store.committed_value("c1") is None


def test_undefined_subprocess_is_refused_when_the_set_loads(world):
    load, _, _ = world
    with pytest.raises(ProcessError, match="^process outer subprocess: no process 'ghost'$"):
        load(_calls("outer", "ghost"))


def test_a_subprocess_step_takes_no_maps():
    for maps in ({"input_map": {"id": "var:id"}}, {"output_map": {"x": "resp.x"}}):
        with pytest.raises(ProcessError, match="^step go: a subprocess step takes no input or output$"):
            Step(name="go", subprocess="onboard", **maps)


LEAF_INPUT = {"id": "lit:c9", "data": "lit:D", "contract": "lit:k", "terms": "lit:t"}  # updateCustomer's request
LEAF = ProcessDefinition("leaf", TxnPolicy.PER_STEP, [Step("s", "Customer", "updateCustomer", input_map=LEAF_INPUT)])


def test_a_plan_holds_at_most_max_plan_steps(world):
    load, _, _ = world
    engine = load(LEAF, _calls("wide", *["leaf"] * MAX_PLAN_STEPS))
    assert len(engine.plans["wide"].steps) == MAX_PLAN_STEPS
    message = f"^process wider: its plan has {MAX_PLAN_STEPS + 1} steps, over the limit of {MAX_PLAN_STEPS}$"
    with pytest.raises(ProcessError, match=message):
        load(LEAF, _calls("wider", *["leaf"] * (MAX_PLAN_STEPS + 1)))


def test_a_diamond_is_refused_at_its_first_process_over_the_limit(world):
    # d{i} runs d{i+1} twice, so d{i}'s plan has 2 ** (29 - i) steps
    load, _, _ = world
    diamond = [_calls(f"d{i}", f"d{i + 1}", f"d{i + 1}") for i in range(29)]
    diamond.append(ProcessDefinition("d29", TxnPolicy.PER_STEP, LEAF.steps))
    started = time.perf_counter()
    with pytest.raises(ProcessError, match=f"^process d15: its plan has 16384 steps, over the limit of {MAX_PLAN_STEPS}$"):
        load(*diamond)
    assert time.perf_counter() - started < 1.0


def _growing_chain(depth):
    # c{i} runs one service step, then c{i+1}: c{i}'s plan has depth - i steps
    chain = [
        ProcessDefinition(f"c{i}", TxnPolicy.PER_STEP, [*LEAF.steps, Step("next", subprocess=f"c{i + 1}")])
        for i in range(depth - 1)
    ]
    return [*chain, ProcessDefinition(f"c{depth - 1}", TxnPolicy.PER_STEP, LEAF.steps)]


def test_the_plans_of_a_set_hold_at_most_max_total_plan_steps(world):
    load, _, _ = world
    engine = load(*_growing_chain(446))  # 446 * 447 / 2 = 99,681 steps in all
    assert sum(len(plan.steps) for plan in engine.plans.values()) == 99_681 <= MAX_TOTAL_PLAN_STEPS
    # 500 levels would hold 125,250; plans are built leaf first, and the 447th, c53, crosses the limit
    message = f"^process c53: the plans hold 100128 steps in all, over the limit of {MAX_TOTAL_PLAN_STEPS}$"
    with pytest.raises(ProcessError, match=message):
        load(*_growing_chain(500))


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
    step = Step("s", "Customer", "updateCustomer", input_map={"id": "var:id"}, output_map={"st": "resp.st"})
    assert [(src.scope, src.path) for src in step.input_map.values()] == [("var", ("id",))]
    assert [(src.scope, src.path) for src in step.output_map.values()] == [("resp", ("st",))]


def test_duplicate_step_names_are_refused_when_the_definition_is_built():
    steps = [Step(name="s", subprocess="a"), Step(name="s", subprocess="b")]
    with pytest.raises(ProcessError, match="p: duplicate step names"):
        ProcessDefinition("p", TxnPolicy.PER_STEP, steps)


@pytest.mark.parametrize(
    "maps, message",
    [
        (
            {"output_map": {"st": "resp.nope"}},
            "process p step s: output: source resp.nope does not exist",
        ),
        (
            {"input_map": {k: v for k, v in LEAF_INPUT.items() if k != "terms"}},
            r"process p step s: input must cover the request of Customer.updateCustomer exactly "
            r"\(missing \['terms'\], extra \[\]\)",
        ),
        (
            {"input_map": {**LEAF_INPUT, "bogus": "lit:x"}},
            r"process p step s: input must cover the request of Customer.updateCustomer exactly "
            r"\(missing \[\], extra \['bogus'\]\)",
        ),
    ],
    ids=["output-undeclared", "input-missing", "input-extra"],
)
def test_a_step_that_breaks_its_signature_is_refused_when_the_set_loads(world, maps, message):
    load, _, _ = world
    step = Step(name="s", component="Customer", service="updateCustomer", **{"input_map": LEAF_INPUT, **maps})
    with pytest.raises(ProcessError, match=f"^{message}$"):
        load(ProcessDefinition(name="p", policy=TxnPolicy.PER_STEP, steps=[step]))


@pytest.mark.parametrize("error", [ProcessError("refused"), KeyError("id")], ids=["tra-error", "other-error"])
def test_a_handler_that_raises_dooms_its_transaction(world, error):
    load, coord, store = world

    def update_customer(ctx, request):
        store.put(ctx, request["id"], request["data"])
        raise error

    coord.bind_service("Customer", "updateCustomer", update_customer)
    ctx = coord.begin("t")
    with pytest.raises(type(error)):
        coord.propagate(ctx, "Customer", "updateCustomer", {"id": "c9", "data": "D", "contract": "k", "terms": "t"})
    assert ctx.rollback_only == str(error)
    assert coord.commit(ctx) is TxnStatus.ABORTED
    assert store.committed_value("c9") is None

    # a process step ends its transaction, then fails on a TraError and re-raises any other
    engine = load(LEAF)
    inst = engine.start("leaf")
    if isinstance(error, ProcessError):
        assert (engine.execute(inst).failed_step, inst.reason) == ("s", str(error))
    else:
        with pytest.raises(KeyError):
            engine.execute(inst)
    assert coord.contexts == {}
    assert [r[0] for r in read_records(coord.log_path, LOG_SCHEMA)][-2:] == ["ABORT", "END"]
    assert store.committed_value("c9") is None


@pytest.mark.parametrize(
    "answer, reason",
    [
        ({}, "Customer.updateCustomer: response missing fields ['status']"),
        (None, "Customer.updateCustomer: response is not an object"),
    ],
    ids=["empty-object", "not-an-object"],
)
def test_a_handler_whose_response_breaks_the_signature_fails_the_call(world, answer, reason):
    load, coord, store = world

    def update_customer(ctx, request):
        store.put(ctx, request["id"], request["data"])
        return answer

    coord.bind_service("Customer", "updateCustomer", update_customer)
    ctx = coord.begin("t")
    with pytest.raises(BindingError, match=re.escape(reason)):
        coord.propagate(ctx, "Customer", "updateCustomer", {"id": "c9", "data": "D", "contract": "k", "terms": "t"})
    assert ctx.rollback_only == reason
    assert coord.commit(ctx) is TxnStatus.ABORTED

    step = Step("s", "Customer", "updateCustomer", input_map=LEAF_INPUT, output_map={"st": "resp.status"})
    engine = load(ProcessDefinition(name="p", policy=TxnPolicy.PER_STEP, steps=[step]))
    inst = engine.execute(engine.start("p"))
    assert inst.state is InstanceState.FAILED
    assert (inst.failed_step, inst.reason) == ("s", reason)
    assert inst.variables == {}
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
    load, coord, store = world
    engine = load(two_step(TxnPolicy.PER_STEP))
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
    load, _, store = world
    defn = two_step(TxnPolicy.SPANNING)
    contract = defn.steps[1]
    defn.steps[1] = Step(
        contract.name, contract.component, contract.service,
        input_map={"contract": "var:contract", "terms": "var:cust_status"},
        output_map={"ctr_status": "resp.status"},
    )
    engine = load(defn)
    inst = engine.execute(engine.start("onboard", VARS))
    assert inst.state is InstanceState.COMPLETED
    assert store.committed_value("k1") == "ok"
    assert inst.variables == {**VARS, "cust_status": "ok", "ctr_status": "created"}


def test_a_step_that_takes_the_coordinator_down_fails_the_instance(world):
    load, coord, store = world

    def crash_first(ctx, request):
        coord.crash()
        return coord.propagate(ctx, "Contract", "createContract", request)

    coord.bind_service("Customer", "updateCustomer", crash_first)
    engine = load(two_step(TxnPolicy.SPANNING))
    inst = engine.execute(engine.start("onboard", VARS))  # its rollback is refused too
    assert inst.state is InstanceState.FAILED
    assert inst.failed_step == "customer"
    assert inst.reason == "coordinator is crashed"


def test_only_a_defined_process_starts(world):
    load, _, _ = world
    with pytest.raises(ProcessError, match="no process 'ghost'"):
        load(LEAF).start("ghost")


def test_spanning_step_failure_completes_no_steps(world):
    # completed_steps counts committed steps, and the spanning rollback undid both
    load, coord, _ = world
    engine = load(two_step(TxnPolicy.SPANNING))
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
