"""Two-phase commit, the decision log, and recovery."""

import gc
import json
import os
import types

import pytest

from tra.coordinator import LOG_SCHEMA, Coordinator, replay_log
from tra.errors import (
    BindingError,
    CoordinatorDown,
    LogCorruptError,
    TxnStateError,
    UnknownResourceError,
)
from tra.faults import CoordinatorCrash, CrashPoint, FaultInjector, FaultSpec
from tra.model import load_manifest, load_manifest_file
from tra.resources import ManagedStore, TxnQueue
from tra.sim import Tracer
from tra.txn import TxnStatus
from tra.wal import read_records

import tra


def kinds(path):
    return [rec[0] for rec in read_records(path, LOG_SCHEMA)]


def test_zero_participant_commit_logs_no_enlist(rig):
    coord, _, _ = rig
    t = coord.begin("c")
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert list(read_records(coord.log_path, LOG_SCHEMA)) == [
        ("BEGIN", 1),
        ("COMMIT", 1),
        ("END", 1),
    ]


def test_log_sequence_for_a_full_commit(rig):
    coord, store, queue = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    queue.send(t, "m")
    coord.commit(t)
    assert list(read_records(coord.log_path, LOG_SCHEMA)) == [
        ("BEGIN", 1),
        ("ENLIST", 1, "store"),
        ("ENLIST", 1, "queue"),
        ("COMMIT", 1),
        ("END", 1),
    ]


def test_abort_path_rolls_back_earlier_yes_votes(rig):
    coord, store, queue = rig
    store.seed({"k": "0"})

    spoiler = coord.begin("spoiler")
    victim = coord.begin("victim")
    assert store.get(victim, "k") == "0"
    store.put(victim, "k", "v")
    queue.send(victim, "m")
    store.put(spoiler, "k", "s")
    assert coord.commit(spoiler) is TxnStatus.COMMITTED

    # victim's store prepare fails validation; queue never prepared or the
    # queue prepared then must be rolled back, depending on enlist order.
    assert coord.commit(victim) is TxnStatus.ABORTED
    assert queue.peek() == ()
    assert store.committed_value("k") == "s"
    assert kinds(coord.log_path).count("ABORT") == 1


def test_rollback_then_commit_rejected(rig):
    coord, store, _ = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    coord.rollback(t)
    with pytest.raises(TxnStateError):
        coord.commit(t)
    assert store.committed_value("k") is None


def test_enlist_validation(rig, tmp_path):
    coord, _, _ = rig
    t = coord.begin("c")
    with pytest.raises(UnknownResourceError):
        coord.enlist(t, "ghost")
    # double enlist is silently idempotent
    coord.enlist(t, "store")
    coord.enlist(t, "store")
    assert t.enlisted == ["store"]
    coord.rollback(t)
    # a resource id registers once
    with pytest.raises(ValueError, match="resource id 'store' already registered"):
        coord.register(ManagedStore("store", str(tmp_path / "again.log")))


def test_a_refused_register_leaves_the_registry_unchanged(rig, tmp_path):
    coord, _, _ = rig
    before = dict(coord.registry)
    with pytest.raises(AttributeError, match="bind"):
        coord.register(types.SimpleNamespace(rm_id="plain"))  # not a resource manager
    assert coord.registry == before
    coord.register(ManagedStore("plain", str(tmp_path / "plain.log")))
    assert coord.registry["plain"].rm_id == "plain"


def test_foreign_context_rejected(rig, tmp_path, tracer):
    coord, _, _ = rig
    other = Coordinator(str(tmp_path / "other.log"), tracer=tracer)
    foreign = other.begin("x")
    with pytest.raises(TxnStateError):
        coord.commit(foreign)
    with pytest.raises(TxnStateError):
        coord.rollback(foreign)
    with pytest.raises(TxnStateError):
        coord.enlist(foreign, "store")
    with pytest.raises(TxnStateError):
        coord.propagate(foreign, "Customer", "updateCustomer", {})


def test_restart_continues_ids(rig):
    coord, store, _ = rig
    t1 = coord.begin("a")
    store.put(t1, "k", "v")
    coord.commit(t1)
    coord.begin("b")  # left active, never decided
    coord.crash()
    with pytest.raises(CoordinatorDown):
        coord.begin("c")
    coord.restart()
    t3 = coord.begin("c")
    assert t3.id == 3


def test_a_restarted_coordinator_takes_its_next_id_from_the_log(rig):
    coord, _, _ = rig
    for _ in range(3):
        coord.commit(coord.begin("a"))
    coord.crash()
    os.remove(coord.log_path)  # the disk came back empty: no transaction was ever begun
    coord.restart()
    assert coord.begin("b").id == 1


@pytest.mark.parametrize("call", ["rollback", "commit", "enlist", "propagate", "recover"])
def test_a_crashed_coordinator_refuses_every_call(rig, call):
    coord, store, _ = rig
    t = coord.begin("a")
    store.put(t, "k", "v")
    coord.crash()
    calls = {
        "rollback": lambda: coord.rollback(t),
        "commit": lambda: coord.commit(t),
        "enlist": lambda: coord.enlist(t, "queue"),
        "propagate": lambda: coord.propagate(t, "Customer", "updateCustomer", {}),
        "recover": coord.recover,
    }
    with pytest.raises(CoordinatorDown):
        calls[call]()


def test_crash_and_restart_act_once(rig, tracer):
    coord, store, _ = rig
    coord.restart()  # already up: nothing to do
    coord.crash()
    coord.crash()
    store.crash()
    store.crash()
    assert coord._writer._fh.closed and store._writer._fh.closed  # a crash lets go of its log
    coord.restart()
    events = [(e["ev"], e["who"]) for e in tracer.events]
    assert events == [("crash", "coordinator"), ("crash", "store"), ("restart", "coordinator")]


def test_a_resource_fault_waits_for_a_transaction_it_is_enlisted_in(rig):
    coord, store, queue = rig
    spec = FaultSpec("queue", CrashPoint.BEFORE_PREPARE)
    coord.injector = FaultInjector([spec])
    first = coord.begin("c")
    store.put(first, "k", "v")
    assert coord.commit(first) is TxnStatus.COMMITTED
    assert coord.injector.fired == [] and not queue.crashed
    second = coord.begin("c")
    queue.send(second, "m")
    assert coord.commit(second) is TxnStatus.ABORTED
    assert coord.injector.fired == [spec] and queue.crashed


@pytest.mark.parametrize("txn, crashed_in", [(2, 2), (None, 1)], ids=["aimed", "first-to-reach"])
def test_a_fault_fires_in_the_transaction_it_names(rig, txn, crashed_in):
    coord, store, _ = rig
    spec = FaultSpec("coordinator", CrashPoint.BEFORE_PREPARE, txn=txn)
    coord.injector = FaultInjector([spec])
    for txn_id in (1, 2):
        ctx = coord.begin("c")
        store.put(ctx, "k", f"v{txn_id}")
        if txn_id == crashed_in:
            with pytest.raises(CoordinatorCrash, match="^coordinator@before_prepare$"):
                coord.commit(ctx)
            break
        assert coord.commit(ctx) is TxnStatus.COMMITTED
    assert ctx.id == crashed_in and coord.injector.fired == [spec]
    assert store.committed_value("k") == ("v1" if crashed_in == 2 else None)


PREPARE_POINTS = {CrashPoint.BEFORE_PREPARE, CrashPoint.AFTER_VOTE}
COMMIT_ONLY_POINTS = {CrashPoint.AFTER_COMMIT_RECORD, CrashPoint.MID_PHASE2, CrashPoint.AFTER_PHASE2}


@pytest.mark.parametrize("point", list(CrashPoint), ids=lambda p: p.value)
@pytest.mark.parametrize(
    "path, fires",
    [
        # MID_PHASE2 follows the first participant's phase-2 call, so it needs one
        ("commit-no-participant", PREPARE_POINTS | COMMIT_ONLY_POINTS - {CrashPoint.MID_PHASE2}),
        ("commit-one-participant", PREPARE_POINTS | COMMIT_ONLY_POINTS),
        ("rollback", set()),
        ("no-vote-abort", PREPARE_POINTS),
    ],
)
def test_each_coordinator_crash_point_fires_only_on_its_paths(rig, path, fires, point):
    coord, store, _ = rig
    spec = FaultSpec("coordinator", point)
    coord.injector = FaultInjector([spec])
    t = coord.begin("c")
    if path != "commit-no-participant":
        store.put(t, "k", "v")
    if path == "no-vote-abort":
        store.crash()  # the store lost its work: it votes NO unasked
    try:
        coord.rollback(t) if path == "rollback" else coord.commit(t)
    except CoordinatorCrash:
        fired = True
    else:
        fired = False
    assert fired == (point in fires)
    assert coord.injector.fired == ([spec] if fired else [])


def test_a_store_fault_aimed_at_a_transaction_without_that_store_never_fires(rig):
    coord, store, queue = rig
    coord.injector = FaultInjector([FaultSpec("queue", CrashPoint.BEFORE_PREPARE, txn=1)])
    first = coord.begin("c")
    store.put(first, "k", "v")
    assert coord.commit(first) is TxnStatus.COMMITTED
    second = coord.begin("c")
    queue.send(second, "m")
    assert coord.commit(second) is TxnStatus.COMMITTED
    assert coord.injector.fired == [] and not queue.crashed


def test_prepare_timeout_flips_vote(tmp_path, tracer):
    coord = Coordinator(str(tmp_path / "c.log"), tracer=tracer, prepare_budget=5)
    slow = ManagedStore("slow", str(tmp_path / "slow.log"), tracer=tracer, prepare_delay=50)
    coord.register(slow)
    t = coord.begin("c")
    slow.put(t, "k", "v")
    assert coord.commit(t) is TxnStatus.ABORTED
    votes = [e for e in tracer.events if e["ev"] == "vote"]
    assert votes[-1]["vote"] == "no" and votes[-1]["reason"] == "timeout"
    assert slow.committed_value("k") is None


def test_a_participant_down_at_prepare_votes_no_as_crashed(rig, tracer):
    coord, store, queue = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    queue.send(t, "m")
    store.crash()
    assert coord.commit(t) is TxnStatus.ABORTED
    # the first NO ends the vote, so the queue is never asked to prepare
    kinds = {"vote", "rm_vote", "decision", "phase2_pending", "rm_rollback"}
    protocol = [{k: v for k, v in e.items() if k != "t"} for e in tracer.events if e["ev"] in kinds]
    assert protocol == [
        {"ev": "vote", "txn": t.id, "rm": "store", "vote": "no", "reason": "crashed"},
        {"ev": "decision", "txn": t.id, "decision": "abort"},
        {"ev": "phase2_pending", "txn": t.id, "rm": "store"},
        {"ev": "rm_rollback", "rm": "queue", "txn": t.id},
    ]
    assert not replay_log(coord.log_path)[t.id].ended  # the store still owes its rollback


def test_commit_with_crashed_participant_stays_committed(rig):
    coord, store, queue = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    queue.send(t, "m")

    # queue dies after voting: decision still commit, phase 2 left pending
    orig_prepare = queue.prepare

    def prepare_then_die(txn_id):
        vote = orig_prepare(txn_id)
        queue.crash()
        return vote

    queue.prepare = prepare_then_die
    assert coord.commit(t) is TxnStatus.COMMITTED

    def pending():
        return [(e["txn"], e["rm"]) for e in coord.tracer.events if e["ev"] == "phase2_pending"]

    assert pending() == [(t.id, "queue")]
    assert "END" not in kinds(coord.log_path)
    assert store.committed_value("k") == "v"
    assert queue.peek() == ()

    queue.recover()
    outcome = coord.recover()
    assert outcome.recommitted == 1
    assert queue.peek() == ("m",)
    assert pending() == [(t.id, "queue")]  # the queue answered the re-drive
    assert kinds(coord.log_path)[-1] == "END"


def test_full_crash_recovery_redrives_and_presumes_abort(tmp_path):
    tracer = Tracer()
    coord = Coordinator(str(tmp_path / "c.log"), tracer=tracer)
    store = ManagedStore("store", str(tmp_path / "s.log"), tracer=tracer)
    queue = TxnQueue("queue", str(tmp_path / "q.log"), tracer=tracer)
    coord.register(store)
    coord.register(queue)

    committed = coord.begin("a")
    store.put(committed, "done", "yes")
    queue.send(committed, "m1")

    undecided = coord.begin("b")
    store.put(undecided, "lost", "yes")

    assert coord.commit(committed) is TxnStatus.COMMITTED

    # total stop before `undecided` reaches a decision
    coord.crash()
    store.crash()

    coord.restart()
    store.recover()
    outcome = coord.recover()

    assert outcome.recommitted == 0
    assert outcome.presumed_aborted == 1
    assert store.committed_value("done") == "yes"
    assert store.committed_value("lost") is None
    assert queue.peek() == ("m1",)

    txns = replay_log(coord.log_path)
    assert txns[committed.id].status == "committed"
    assert txns[undecided.id].status == "aborted"
    assert all(t.ended for t in txns.values())


def test_recovery_skips_live_active_transactions(rig):
    coord, store, _ = rig
    live = coord.begin("still-going")
    store.put(live, "k", "v")
    outcome = coord.recover()
    assert outcome.presumed_aborted == 0
    # the live transaction can still commit afterwards
    assert coord.commit(live) is TxnStatus.COMMITTED
    assert store.committed_value("k") == "v"


def test_recovery_counts_only_finished_redrives_and_writes_end_once_all_answer(tmp_path):
    tracer = Tracer()
    coord = Coordinator(str(tmp_path / "c.log"), tracer=tracer)
    a = ManagedStore("a", str(tmp_path / "a.log"), tracer=tracer)
    b = ManagedStore("b", str(tmp_path / "b.log"), tracer=tracer)
    coord.register(a)
    coord.register(b)

    def ended(ctx):
        return replay_log(coord.log_path)[ctx.id].ended

    def counts(outcome):
        return outcome.recommitted, outcome.aborts_completed, outcome.presumed_aborted

    def pending():
        return [(e["txn"], e["rm"]) for e in tracer.events if e["ev"] == "phase2_pending"]

    committed, aborted, live = coord.begin("c"), coord.begin("r"), coord.begin("l")
    for ctx in (committed, aborted):
        a.put(ctx, f"a{ctx.id}", "v")
        b.put(ctx, f"b{ctx.id}", "v")
    a.put(live, "live", "v")
    # b dies once a has committed: COMMIT stands, b's phase 2 is pending
    coord.injector = FaultInjector([FaultSpec("b", CrashPoint.MID_PHASE2)])
    assert coord.commit(committed) is TxnStatus.COMMITTED
    assert coord.rollback(aborted) is TxnStatus.ABORTED
    assert pending() == [(committed.id, "b"), (aborted.id, "b")]
    assert set(coord.contexts) == {live.id}  # a context is dropped once its decision is logged

    # b still down: nothing finishes, nothing counts, no END, b is still pending
    assert counts(coord.recover()) == (0, 0, 0)
    assert not ended(committed) and not ended(aborted) and not ended(live)
    assert pending() == [(committed.id, "b"), (aborted.id, "b")] * 2
    assert live.status is TxnStatus.ACTIVE
    assert set(coord.contexts) == {live.id}

    b.recover()
    assert counts(coord.recover()) == (1, 1, 0)
    assert ended(committed) and ended(aborted) and not ended(live)
    assert pending() == [(committed.id, "b"), (aborted.id, "b")] * 2  # b answered
    assert set(coord.contexts) == {live.id}
    assert b.committed_value(f"b{committed.id}") == "v"
    assert b.committed_value(f"b{aborted.id}") is None
    # the live Active transaction was skipped: no decision was logged for it
    assert replay_log(coord.log_path)[live.id].status == "active"

    stuck = coord.begin("s")
    b.put(stuck, "stuck", "v")
    coord.crash()
    b.crash()
    coord.restart()
    # no decision: presumed aborted and counted even though b is still down
    assert counts(coord.recover()) == (0, 0, 2)
    log = replay_log(coord.log_path)
    assert log[live.id].status == log[stuck.id].status == "aborted"
    assert log[live.id].ended and not log[stuck.id].ended
    assert a.committed_value("live") is None

    b.recover()
    assert counts(coord.recover()) == (0, 1, 0)
    assert all(entry.ended for entry in replay_log(coord.log_path).values())
    assert kinds(coord.log_path).count("END") == 4


def test_replay_log_shapes(tmp_path):
    p = tmp_path / "log"
    p.write_text(
        "BEGIN\t1\nENLIST\t1\tstore\nBEGIN\t2\nCOMMIT\t1\nABORT\t2\nEND\t1\n",
        encoding="utf-8",
    )
    txns = replay_log(str(p))
    assert txns[1].status == "committed" and txns[1].ended
    assert txns[1].enlisted == ["store"]
    assert txns[2].status == "aborted" and not txns[2].ended


def test_recovery_refuses_a_log_that_names_an_unregistered_resource(tmp_path):
    path = tmp_path / "c.log"
    path.write_text("BEGIN\t1\nENLIST\t1\tghost\nCOMMIT\t1\n", encoding="utf-8")
    coord = Coordinator(str(path))
    with pytest.raises(UnknownResourceError, match="log names unregistered resource 'ghost'"):
        coord.recover()


def test_a_log_with_a_torn_last_record_restarts_and_recovers(rig):
    coord, store, queue = rig
    done = coord.begin("c")
    store.put(done, "k", "v")
    coord.commit(done)
    undecided = coord.begin("c")
    queue.send(undecided, "m")
    coord.crash()
    queue.crash()
    with open(coord.log_path, "a", encoding="utf-8") as fh:
        fh.write("EN")  # the crash tore the next record

    coord.restart()
    queue.recover()
    outcome = coord.recover()

    assert outcome.presumed_aborted == 1
    txns = replay_log(coord.log_path)
    assert txns[done.id].status == "committed"
    assert txns[undecided.id].status == "aborted"
    assert all(entry.ended for entry in txns.values())
    assert coord.begin("c").id == undecided.id + 1
    assert kinds(coord.log_path)[-4:] == ["ENLIST", "ABORT", "END", "BEGIN"]


@pytest.mark.parametrize(
    "text",
    [
        "BEGIN\t1\nBEGIN\t1\n",
        "ENLIST\t1\tstore\n",
        "BEGIN\t1\nCOMMIT\t1\nENLIST\t1\tstore\n",
        "BEGIN\t1\nCOMMIT\t1\nABORT\t1\n",
        "BEGIN\t1\nEND\t1\n",
        "BEGIN\tx\n",
    ],
)
def test_replay_log_rejects_corruption(tmp_path, text):
    p = tmp_path / "log"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(LogCorruptError):
        replay_log(str(p))


def test_propagate_requires_model_and_binding(rig, tmp_path, tracer):
    coord, store, _ = rig
    from tra.errors import BindingError

    t = coord.begin("c")
    with pytest.raises(BindingError):
        coord.propagate(t, "Customer", "updateCustomer", {})
    coord.rollback(t)

    model = load_manifest_file(tra.fixture_path("model.json"))
    coord2 = Coordinator(str(tmp_path / "c2.log"), tracer=tracer, model=model)
    store2 = ManagedStore("s2", str(tmp_path / "s2.log"), tracer=tracer)
    coord2.register(store2)

    def handler(ctx, request):
        store2.put(ctx, request["id"], request["data"])
        return {"status": "ok"}

    coord2.bind_service("Customer", "updateCustomer", handler)

    t2 = coord2.begin("c")
    with pytest.raises(BindingError, match="missing fields"):
        coord2.propagate(t2, "Customer", "updateCustomer", {"id": "1"})
    with pytest.raises(BindingError, match="not exported"):
        coord2.propagate(t2, "Contract", "readContract", {"contract": "x"})
    with pytest.raises(BindingError, match="no implementation"):
        coord2.propagate(
            t2, "Customer", "getCustomer", {"id": "1"}
        )
    resp = coord2.propagate(
        t2,
        "Customer",
        "updateCustomer",
        {"id": "c1", "data": "D", "contract": "x", "terms": "y"},
    )
    assert resp == {"status": "ok"}
    assert coord2.commit(t2) is TxnStatus.COMMITTED
    assert store2.committed_value("c1") == "D"


def test_propagate_refuses_a_service_that_is_not_transactional(tmp_path):
    # load_scenario refuses such a call at load; a library caller meets it here
    with open(tra.fixture_path("model.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for internal in doc["components"][0]["internals"]:
        for service in internal["provides"]:
            if service["name"] == "updateCustomer":
                service["transactional"] = False
    coord = Coordinator(str(tmp_path / "c.log"), model=load_manifest(doc))
    coord.bind_service("Customer", "updateCustomer", lambda ctx, request: {"status": "ok"})
    t = coord.begin("c")
    request = {"id": "c1", "data": "D", "contract": "x", "terms": "y"}
    with pytest.raises(BindingError, match="^Customer.updateCustomer is not transactional$"):
        coord.propagate(t, "Customer", "updateCustomer", request)


def test_a_finished_run_leaves_no_history_for_the_cycle_collector(rig):
    coord, store, queue = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    queue.send(t, "m")
    assert coord.commit(t) is TxnStatus.COMMITTED
    aborted = coord.begin("c")
    store.put(aborted, "k", "w")
    assert coord.rollback(aborted) is TxnStatus.ABORTED
    coord.recover()
    gc.collect()
    # every event holds atoms and tuples only, so a collection untracks it
    assert [e for e in coord.tracer.events if gc.is_tracked(e)] == []
    assert coord.contexts == {}


def test_a_second_commit_of_a_finished_context_is_refused_by_its_status(rig):
    coord, store, _ = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert coord.contexts == {}
    message = "txn 1: commit requires an active transaction, status is committed"
    with pytest.raises(TxnStateError, match=message):
        coord.commit(t)
    with pytest.raises(TxnStateError, match="txn 1: rollback requires an active transaction"):
        coord.rollback(t)
    with pytest.raises(TxnStateError, match="txn 1: enlist requires an active transaction"):
        store.put(t, "k", "w")


@pytest.mark.parametrize("failing", ["store", "queue"])
def test_a_failed_prepared_append_settles_the_transaction_as_aborted(rig, monkeypatch, failing):
    coord, store, queue = rig
    queue.seed(["m0", "m1"])
    t = coord.begin("c")
    store.put(t, "k", "v")
    assert queue.receive(t) == "m0"

    def fail(*fields):
        raise OSError("disk full")

    monkeypatch.setattr({"store": store, "queue": queue}[failing]._writer, "append", fail)
    with pytest.raises(OSError, match="disk full"):
        coord.commit(t)
    monkeypatch.undo()

    # ABORT, a rollback of every participant, END: nothing is left in doubt
    assert kinds(coord.log_path) == ["BEGIN", "ENLIST", "ENLIST", "ABORT", "END"]
    assert t.status is TxnStatus.ABORTED and coord.contexts == {}
    assert queue.peek() == ("m0", "m1") and queue.conservation_holds()
    t2 = coord.begin("c")  # k is not locked
    store.put(t2, "k", "w")
    assert coord.commit(t2) is TxnStatus.COMMITTED
    assert store.committed_value("k") == "w"


@pytest.mark.parametrize("decision", ["commit", "rollback"])
def test_a_failed_done_append_leaves_the_payload_prepared_for_the_redrive(rig, monkeypatch, decision):
    coord, store, queue = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    queue.send(t, "m")
    if decision == "rollback":
        queue.crash()  # the queue lost its work: it votes NO after the store's YES
    append = store._writer.append

    def fail_done(kind, *fields):
        if kind == "DONE":
            raise OSError("disk full")
        append(kind, *fields)

    monkeypatch.setattr(store._writer, "append", fail_done)
    with pytest.raises(OSError, match="disk full"):
        coord.commit(t)
    monkeypatch.undo()
    assert "END" not in kinds(coord.log_path) and store.committed_value("k") is None

    queue.recover()
    outcome = coord.recover()
    committed = decision == "commit"
    assert (outcome.recommitted, outcome.aborts_completed) == (int(committed), int(not committed))
    assert kinds(coord.log_path)[-1] == "END"
    assert store.committed_value("k") == ("v" if committed else None)
    assert queue.peek() == (("m",) if committed else ())
    store.crash()
    store.recover()  # the store's log holds t's DONE: no payload of t comes back to lock k
    t2 = coord.begin("c")
    store.put(t2, "k", "w")
    assert coord.commit(t2) is TxnStatus.COMMITTED
    assert store.committed_value("k") == "w"


def test_a_transaction_that_settled_with_a_participant_down_takes_no_more_work(rig):
    coord, store, queue = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    queue.send(t, "m")
    queue.crash()
    assert coord.rollback(t) is TxnStatus.ABORTED
    assert coord.contexts == {}  # dropped at its decision, though the queue still owes its rollback
    assert not replay_log(coord.log_path)[t.id].ended
    with pytest.raises(TxnStateError, match="propagate requires an active transaction, status is aborted"):
        coord.propagate(t, "Customer", "updateCustomer", {})


def test_a_failed_commit_append_leaves_the_transaction_for_recovery_to_abort(rig, monkeypatch):
    coord, store, _ = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    append = coord._writer.append

    def fail_commit(kind, *fields):
        if kind == "COMMIT":
            raise OSError("disk full")
        append(kind, *fields)

    monkeypatch.setattr(coord._writer, "append", fail_commit)
    with pytest.raises(OSError, match="disk full"):
        coord.commit(t)
    monkeypatch.undo()
    assert t.status is TxnStatus.PREPARING  # no decision was logged
    assert coord.recover().presumed_aborted == 1
    assert t.status is TxnStatus.ABORTED and coord.contexts == {}
    assert store.committed_value("k") is None


def test_the_logged_decision_is_the_status_from_the_moment_it_is_logged(rig, monkeypatch):
    coord, store, queue = rig
    seen, ctxs = [], {}

    def spy(op):
        phase2 = getattr(store, op)

        def call(txn_id):
            seen.append((op, ctxs[txn_id].status))
            return phase2(txn_id)

        return call

    monkeypatch.setattr(store, "commit", spy("commit"))
    monkeypatch.setattr(store, "rollback", spy("rollback"))
    yes = coord.begin("c")
    ctxs[yes.id] = yes
    store.put(yes, "k", "v")
    assert coord.commit(yes) is TxnStatus.COMMITTED
    no = coord.begin("c")
    ctxs[no.id] = no
    store.put(no, "k", "w")
    queue.send(no, "m")
    queue.crash()  # the queue lost its work: it votes NO after the store's YES
    assert coord.commit(no) is TxnStatus.ABORTED
    assert seen == [("commit", TxnStatus.COMMITTED), ("rollback", TxnStatus.ABORTED)]


def test_a_failed_end_append_leaves_the_committed_transaction_for_recovery_to_finish(rig, monkeypatch):
    coord, store, _ = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    append = coord._writer.append

    def fail_end(kind, *fields):
        if kind == "END":
            raise OSError("disk full")
        append(kind, *fields)

    monkeypatch.setattr(coord._writer, "append", fail_end)
    with pytest.raises(OSError, match="disk full"):
        coord.commit(t)
    monkeypatch.undo()
    assert t.status is TxnStatus.COMMITTED and coord.contexts == {}  # the decision is logged
    assert kinds(coord.log_path) == ["BEGIN", "ENLIST", "COMMIT"]
    assert store.committed_value("k") == "v"
    outcome = coord.recover()
    assert (outcome.recommitted, outcome.presumed_aborted, outcome.aborts_completed) == (1, 0, 0)
    assert coord.contexts == {} and kinds(coord.log_path)[-1] == "END"
