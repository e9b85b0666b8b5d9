"""Clock, tracer, append-only log, and the transaction state machine."""

import copy
import gc
import tracemalloc

import pytest

import tra
from tra.errors import LogCorruptError, ResourceCrashed, TxnStateError
from tra.sim import SimClock, Tracer
from tra.txn import TransactionContext, TxnStatus
from tra.coordinator import LOG_SCHEMA
from tra.harness import Runner, run_scenario
from tra.scenario import load_scenario_file
from tra.wal import PAYLOAD, LogWriter, read_records


def test_clock_is_monotonic():
    clock = SimClock()
    assert clock.now == 0
    clock.advance()
    clock.advance(5)
    assert clock.now == 6
    clock.advance_to(4)  # never goes backwards
    assert clock.now == 6
    clock.advance_to(10)
    assert clock.now == 10
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_tracer_stamps_then_ticks():
    tracer = Tracer(SimClock())
    tracer.emit("crash", "coordinator")
    tracer.emit("restart", "coordinator")
    assert tracer.events[0] == {"t": 0, "ev": "crash", "who": "coordinator"}
    assert tracer.events[1] == {"t": 1, "ev": "restart", "who": "coordinator"}
    assert tracer.clock.now == 2


def test_tracer_events_read_back_as_the_emitted_fields():
    tracer = Tracer(SimClock())
    tracer.emit("enlist", 1, "x")
    tracer.emit("crash", "coordinator")
    tracer.emit("wal", "ENLIST", ("1", "v"))
    tracer.emit("rm_commit", "y", 3)
    emitted = [
        {"t": 0, "ev": "enlist", "txn": 1, "rm": "x"},
        {"t": 1, "ev": "crash", "who": "coordinator"},
        {"t": 2, "ev": "wal", "record": "ENLIST", "fields": ("1", "v")},
        {"t": 3, "ev": "rm_commit", "rm": "y", "txn": 3},
    ]
    events = tracer.events
    assert len(events) == 4
    assert events[0] == emitted[0] and events[-1] == emitted[-1]
    assert list(events[3]) == ["t", "ev", "rm", "txn"]  # field order as declared
    assert events[1:3] == emitted[1:3] and events[::-1] == emitted[::-1]
    assert list(events) == [e for e in events] == emitted
    with pytest.raises(IndexError):
        events[4]
    tracer.emit("restart", "coordinator")
    assert len(events) == 5 and events[-1] == {"t": 4, "ev": "restart", "who": "coordinator"}


def test_a_kept_event_is_read_back_only_as_its_declaration():
    tracer = Tracer(SimClock())
    tracer.emit("enlist", 1)
    tracer.emit("enlist", 1, "x", "extra")
    tracer.emit("undeclared", 1)
    for index, count in ((0, 1), (1, 3)):
        with pytest.raises(ValueError, match=f"enlist event holds {count} values, declared 2"):
            tracer.events[index]
    with pytest.raises(KeyError, match="undeclared"):
        tracer.events[2]


def test_tracer_events_are_a_read_only_view_of_copies(tmp_path):
    tracer = Tracer(SimClock())
    tracer.emit("crash", "coordinator")
    tracer.events[0]["who"] = "s"
    tracer.events[0:1][0].clear()
    for event in tracer.events:
        event["ev"] = "edited"
    assert list(tracer.events) == [{"t": 0, "ev": "crash", "who": "coordinator"}]
    assert tracer.events[0] is not tracer.events[0]
    assert not hasattr(tracer.events, "append")
    with pytest.raises(TypeError):
        tracer.events[0] = {}

    scenario = load_scenario_file(tra.fixture_path("transfer.json"))
    runner = Runner(scenario, str(tmp_path))
    try:
        report = runner.run()
    finally:
        runner.close()
    kept = copy.deepcopy(report)
    for event in report["events"]:
        event["ev"] = "edited"
    runner.tracer.events[0]["ev"] = "edited"
    assert list(runner.tracer.events) == kept["events"]
    assert run_scenario(scenario) == kept


def test_the_trace_keeps_an_event_in_under_180_bytes(rig):
    """The trace is most of what a run keeps, so its size per event is pinned.
    Keeping each event as one tuple `(t, ev, *values)` measured 154 B per
    event on Python 3.11 (with a shared field-name tuple in it: 162 B; a dict
    per event: 273 B)."""
    coord, store, queue = rig

    def commits(n):
        for _ in range(n):
            t = coord.begin("c")
            store.put(t, "k", "v")
            queue.send(t, "m")
            assert coord.commit(t) is TxnStatus.COMMITTED

    commits(50)  # the first commits fill caches that later ones share
    gc.collect()
    tracemalloc.start()
    try:
        first, before = len(coord.tracer.events), tracemalloc.get_traced_memory()[0]
        commits(2000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        for manager in (coord, store, queue):
            manager.close()
    assert retained / (len(coord.tracer.events) - first) < 180


def test_log_round_trip(tmp_path):
    path = str(tmp_path / "x.log")
    w = LogWriter(path)
    w.append("ENLIST", "1", "client")
    w.append("COMMIT", "1")
    w.close()
    assert read_records(path, LOG_SCHEMA) == [("ENLIST", 1, "client"), ("COMMIT", 1)]


def test_log_rejects_separator_bytes(tmp_path):
    w = LogWriter(str(tmp_path / "x.log"))
    with pytest.raises(ValueError):
        w.append("BEGIN", "a\tb")
    with pytest.raises(ValueError):
        w.append("BEGIN", "a\nb")
    w.close()


def test_log_refuses_a_field_that_is_not_text(tmp_path):
    path = tmp_path / "x.log"
    w = LogWriter(str(path))
    with pytest.raises(TypeError, match="expected str instance, int found"):
        w.append("BEGIN", 1)
    for bad in ("1\t2", "1\n"):
        with pytest.raises(ValueError, match="log fields must not contain tabs or newlines"):
            w.append("BEGIN", bad)
    w.append("BEGIN", "1")
    w.close()
    assert path.read_text(encoding="utf-8") == "BEGIN\t1\n"  # nothing refused was written


def test_a_short_write_is_an_os_error(tmp_path):
    class Short:
        """A file that takes all but the last byte of a write."""

        def write(self, data):
            return len(data) - 1

    w = LogWriter(str(tmp_path / "x.log"))
    w._fh.close()
    w._fh = Short()
    with pytest.raises(OSError, match="x.log: short write"):
        w.append("BEGIN", "1")


def test_log_missing_and_corrupt(tmp_path):
    assert read_records(str(tmp_path / "absent.log"), LOG_SCHEMA) == []
    bad = tmp_path / "bad.log"
    bad.write_text("BEGIN\t1\n\nCOMMIT\t1\n", encoding="utf-8")
    with pytest.raises(LogCorruptError):
        read_records(str(bad), LOG_SCHEMA)


@pytest.mark.parametrize(
    "line, message",
    [
        (b"ENLIST\t1\t\xffs\n", ":2: bad record: invalid start byte"),
        (b"ENLIST\t1\t\n", ":2: bad record 'ENLIST\\t1\\t': empty name"),
    ],
    ids=["not-utf-8", "empty-name"],
)
def test_a_bad_record_is_refused_with_its_line_number(tmp_path, line, message):
    path = tmp_path / "x.log"
    path.write_bytes(b"BEGIN\t1\n" + line + b"COMMIT\t1\n")
    with pytest.raises(LogCorruptError) as exc:
        read_records(str(path), LOG_SCHEMA)
    assert str(exc.value) == f"{path}{message}"


def test_txn_state_machine():
    ctx = TransactionContext(id=1, originator="t")
    assert ctx.status is TxnStatus.ACTIVE
    ctx.transition(TxnStatus.PREPARING)
    ctx.transition(TxnStatus.COMMITTING)
    ctx.transition(TxnStatus.COMMITTED)
    with pytest.raises(TxnStateError):
        ctx.transition(TxnStatus.ABORTING)
    with pytest.raises(TxnStateError):
        ctx.require_active("late write")


def test_txn_abort_paths():
    ctx = TransactionContext(id=2, originator="t")
    ctx.transition(TxnStatus.ABORTING)
    ctx.transition(TxnStatus.ABORTED)
    with pytest.raises(TxnStateError):
        ctx.transition(TxnStatus.COMMITTING)

    ctx = TransactionContext(id=3, originator="t")
    ctx.transition(TxnStatus.PREPARING)
    ctx.transition(TxnStatus.ABORTING)  # a NO vote turns prepare into abort
    ctx.transition(TxnStatus.ABORTED)
    assert ctx.status is TxnStatus.ABORTED


@pytest.mark.parametrize(
    "rm, record",
    [
        pytest.param("queue", "PREPARED\tx1\t7b7d", id="bad-txn-id"),
        pytest.param("queue", "PREPARED\t1\tzz", id="bad-hex"),
        pytest.param("queue", "DONE\tq", id="bad-done-id"),
        pytest.param("queue", "PREPARED\t1\tff", id="bad-utf8"),
        pytest.param("queue", "PREPARED\t1\t7b", id="bad-json"),
        pytest.param("queue", "PREPARED\t1\t7", id="queue-payload-not-an-object"),
        pytest.param("queue", 'PREPARED\t1\t{"sends": []}', id="queue-payload-without-receives"),
        pytest.param("store", "PREPARED\t1\t7", id="store-payload-not-an-object"),
        pytest.param("store", "PREPARED\t1\t[]", id="store-payload-a-list"),
        pytest.param("store", 'PREPARED\t1\t{"writes": 3}', id="store-writes-not-an-object"),
        pytest.param("store", 'PREPARED\t1\t{"writes": {"k": 3}}', id="store-write-not-a-list"),
        pytest.param("store", 'PREPARED\t1\t{"writes": {"k": ["put"]}}', id="store-put-without-value"),
        pytest.param("store", 'PREPARED\t1\t{"writes": {"k": ["frob", "x"]}}', id="store-unknown-write"),
        pytest.param("queue", 'PREPARED\t1\t{"sends": [1], "receives": []}', id="queue-send-not-text"),
    ],
)
def test_malformed_rm_log_record_is_log_corruption(tmp_path, rm, record):
    from tra.resources import ManagedStore, TxnQueue

    path = tmp_path / "q.log"
    path.write_text(record + "\n", encoding="utf-8")
    manager = {"queue": TxnQueue, "store": ManagedStore}[rm]("q", str(path), tracer=Tracer(SimClock()))
    manager.crash()
    with pytest.raises(LogCorruptError, match="bad record"):
        manager.recover()


def test_a_kept_payload_is_checked_in_full(tmp_path):
    from tra.resources import ManagedStore

    path = tmp_path / "s.log"
    bad = 'PREPARED\t{}\t{{"writes": {{"k": ["put", 7]}}}}\n'
    path.write_text(bad.format(1) + "DONE\t1\n" + bad.format(2), encoding="utf-8")
    store = ManagedStore("s", str(path), tracer=Tracer(SimClock()))
    store.crash()
    # txn 1 finished, so its payload is never used again; txn 2's is kept
    message = f'{path}: bad record for txn 2: writes.k must be ["put", <string>] or ["del"], got [\'put\', 7]'
    with pytest.raises(LogCorruptError) as exc:
        store.recover()
    assert str(exc.value) == message


def test_a_corrupt_log_leaves_the_manager_crashed(tmp_path):
    from tra.resources import ManagedStore

    path = tmp_path / "s.log"
    text = 'PREPARED\t1\t{"writes": {"k": ["put", "v"]}}\nPREPARED\t2\t{"writes": {"k": ["put", 7]}}\n'
    path.write_text(text, encoding="utf-8")
    store = ManagedStore("s", str(path), tracer=Tracer(SimClock()))
    store.crash()
    for _ in range(2):  # a second recover reads the same log and fails the same way
        with pytest.raises(LogCorruptError, match="bad record for txn 2"):
            store.recover()
    assert store.crashed
    # neither the bad payload nor the good one is prepared, and nothing is logged
    for txn_id in (1, 2):
        with pytest.raises(ResourceCrashed):
            store.commit(txn_id)
    with pytest.raises(ResourceCrashed):
        store.put(TransactionContext(id=3, originator="t"), "k", "w")
    assert path.read_text(encoding="utf-8") == text


def test_a_torn_last_line_was_never_written(tmp_path):
    path = tmp_path / "x.log"
    path.write_bytes("BEGIN\t1\nENLIST\t1\tst\u00f6".encode("utf-8")[:-1])  # tears inside the ö
    assert read_records(str(path), LOG_SCHEMA) == [("BEGIN", 1)]
    w = LogWriter(str(path))  # cuts the torn record off, so the next one starts its own line
    w.append("COMMIT", "1")
    w.close()
    assert path.read_text(encoding="utf-8") == "BEGIN\t1\nCOMMIT\t1\n"
    # only the last line may be torn: a finished malformed line is corruption
    path.write_text("BEGIN\t1\nEN\nBEGIN\t2", encoding="utf-8")
    with pytest.raises(LogCorruptError, match=r"x\.log:2: bad record 'EN': unknown kind"):
        read_records(str(path), LOG_SCHEMA)


def test_a_torn_prepared_record_recovers_with_nothing_prepared(tmp_path):
    from tra.resources import ManagedStore

    store = ManagedStore("s", str(tmp_path / "s.log"), tracer=Tracer(SimClock()))
    t = TransactionContext(id=1, originator="t")
    store.put(t, "k", "v")
    assert store.prepare(1).value == "yes"
    store.crash()
    with open(store.log_path, "r+b") as fh:  # the crash tore the PREPARED write
        fh.truncate(fh.seek(0, 2) - 3)
    store.recover()
    assert read_records(store.log_path, {"PREPARED": PAYLOAD, "DONE": None}) == []
    # k is not locked by a prepared txn 1, and txn 1 is unknown here
    t2 = TransactionContext(id=2, originator="t")
    store.put(t2, "k", "w")
    assert store.prepare(2).value == "yes"
    store.commit(2)
    assert store.committed_value("k") == "w"
    with pytest.raises(TxnStateError, match="without prepare"):
        store.commit(1)


@pytest.mark.parametrize(
    "payload, why",
    [
        ('{"sends":[],"receives":[]}x', "trailing data after the payload"),
        ('{"sends":[],"receives":[]} ', "trailing data after the payload"),
        (' {"sends":[],"receives":[]}', r"Expecting value: line 1 column 1 \(char 0\)"),
        ('{"sends":[],"rece', "Unterminated string"),
        ('{"sends":[],', r"Expecting property name enclosed in double quotes"),
        ('{"sends":', r"Expecting value: line 1 column 10 \(char 9\)"),
        ('["sends"]', "payload is not an object"),
    ],
    ids=["trailing-data", "trailing-space", "leading-space", "truncated-string", "truncated-object",
         "truncated-value", "a-list"],
)
def test_a_payload_must_be_one_json_object_filling_its_field(tmp_path, payload, why):
    path = tmp_path / "x.log"
    path.write_text(f'DONE\t1\nPREPARED\t2\t{payload}\nDONE\t2\n', encoding="utf-8")
    with pytest.raises(LogCorruptError, match=rf"x\.log:2: bad record .*: {why}"):
        read_records(str(path), {"PREPARED": PAYLOAD, "DONE": None})
