"""Clock, tracer, append-only log, and the transaction state machine."""

import copy
import gc
import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import tra
from tra import sim, wal
from tra.errors import LogCorruptError, ResourceCrashed, TxnStateError
from tra.resources import ManagedStore, TxnQueue
from tra.sim import RECENT_EVENTS, Tracer
from tra.txn import TransactionContext, TxnStatus
from tra.coordinator import LOG_SCHEMA, Coordinator
from tra.harness import Runner, run_scenario
from tra.scenario import load_scenario_file
from tra.wal import NAME, PAYLOAD, LogWriter, read_records


def test_tracer_stamps_then_ticks():
    tracer = Tracer()
    tracer.emit("crash", "coordinator")
    tracer.emit("restart", "coordinator")
    assert tracer.events[0] == {"t": 0, "ev": "crash", "who": "coordinator"}
    assert tracer.events[1] == {"t": 1, "ev": "restart", "who": "coordinator"}
    assert tracer.now == 2


def test_tracer_events_read_back_as_the_emitted_fields():
    tracer = Tracer()
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
    tracer = Tracer()
    tracer.emit("enlist", 1)
    tracer.emit("enlist", 1, "x", "extra")
    tracer.emit("undeclared", 1)
    for index, count in ((0, 1), (1, 3)):
        with pytest.raises(ValueError, match=f"enlist event holds {count} values, declared 2"):
            tracer.events[index]
    with pytest.raises(KeyError, match="undeclared"):
        tracer.events[2]


def test_tracer_events_are_a_read_only_view_of_copies():
    tracer = Tracer()
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
    runner = Runner(scenario)
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


def _put_send_commits(tmp_path, tracer):
    """A coordinator, a store and a queue on one tracer, and a function that
    commits n put+send transactions on them."""
    coord = Coordinator(str(tmp_path / "coord.log"), tracer=tracer)
    store = ManagedStore("store", str(tmp_path / "store.log"), tracer=tracer)
    queue = TxnQueue("queue", str(tmp_path / "queue.log"), tracer=tracer)
    coord.register(store)
    coord.register(queue)

    def commits(n):
        for _ in range(n):
            t = coord.begin("c")
            store.put(t, "k", "v")
            queue.send(t, "m")
            assert coord.commit(t) is TxnStatus.COMMITTED

    return commits, (coord, store, queue)


def test_the_trace_keeps_an_event_in_under_180_bytes(tmp_path):
    """A run's trace keeps every event and is most of what the run keeps, so
    its size per event is pinned. Keeping each event as one tuple
    `(t, ev, *values)` measured 154 B per event on Python 3.11 (with a shared
    field-name tuple in it: 162 B; a dict per event: 273 B)."""
    tracer = Tracer(keep_all=True)
    commits, managers = _put_send_commits(tmp_path, tracer)
    commits(50)  # the first commits fill caches that later ones share
    gc.collect()
    tracemalloc.start()
    try:
        first, before = len(tracer.events), tracemalloc.get_traced_memory()[0]
        commits(2000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        for manager in managers:
            manager.close()
    assert retained / (len(tracer.events) - first) < 180


def test_a_tracer_keeps_the_newest_events_unless_it_keeps_all():
    window, full = Tracer(), Tracer(keep_all=True)
    for i in range(RECENT_EVENTS + 100):
        for tracer in (window, full):
            tracer.emit("crash", f"rm{i}")
    events, tail = window.events, list(full.events)[-RECENT_EVENTS:]
    assert len(full.events) == RECENT_EVENTS + 100 and len(events) == RECENT_EVENTS
    assert [e["t"] for e in events] == list(range(100, RECENT_EVENTS + 100))  # emit order
    assert list(events) == tail and events[0] == full.events[100]
    for index in (0, 1, 2047, -1, -2, -RECENT_EVENTS):
        assert events[index] == tail[index]
    for part in (slice(5, 9), slice(-3, None), slice(None, 4), slice(None, None, -97)):
        assert events[part] == tail[part]
    for index in (RECENT_EVENTS, -RECENT_EVENTS - 1):
        with pytest.raises(IndexError):
            events[index]


def test_a_default_trace_does_not_grow_with_history(tmp_path):
    """20,000 put+send commits emit 460,000 events; a default tracer keeps
    the memory of at most its window of them."""
    tracer = Tracer()
    commits, managers = _put_send_commits(tmp_path, tracer)
    commits(500)  # fill the window and the caches first
    gc.collect()
    tracemalloc.start()
    try:
        commits(20_000)
        gc.collect()
        kept = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, sim.__file__)])
    finally:
        tracemalloc.stop()
        for manager in managers:
            manager.close()
    assert sum(stat.size for stat in kept.statistics("filename")) < RECENT_EVENTS * 180
    assert len(tracer.events) == RECENT_EVENTS


def test_log_round_trip(tmp_path):
    path = str(tmp_path / "x.log")
    w = LogWriter(path)
    w.append("ENLIST", "1", "client")
    w.append("COMMIT", "1")
    w.close()
    assert list(read_records(path, LOG_SCHEMA)) == [("ENLIST", 1, "client"), ("COMMIT", 1)]


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
    absent = read_records(str(tmp_path / "absent.log"), LOG_SCHEMA)
    assert list(absent) == [] and len(absent) == 0
    bad = tmp_path / "bad.log"
    bad.write_text("BEGIN\t1\n\nCOMMIT\t1\n", encoding="utf-8")
    with pytest.raises(LogCorruptError):
        list(read_records(str(bad), LOG_SCHEMA))


# one kind of each field type, so a generated log mixes all three
_MIXED = {"BEGIN": None, "ENLIST": NAME, "PREPARED": PAYLOAD}
_IDS = st.integers(0, 10**9)
_FIELD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), min_size=1)
_GOOD_LINES = st.one_of(
    _IDS.map("BEGIN\t{}".format),
    st.tuples(_IDS, _FIELD).map(lambda r: "ENLIST\t{}\t{}".format(*r)),
    st.tuples(_IDS, st.lists(_FIELD, max_size=4), st.text(max_size=300)).map(
        lambda r: f"PREPARED\t{r[0]}\t" + json.dumps({"sends": r[1], "note": r[2]}, separators=(",", ":"))
    ),
).map(lambda line: line.encode("utf-8"))
# a corrupt line -> why the reader refuses it (None: it is not UTF-8)
_BAD_LINES = {
    b"": "unknown kind",
    b"EN": "unknown kind",
    b"ENLIST\t7\t": "empty name",
    b"BEGIN\tx": "invalid literal for int() with base 10: 'x'",
    b"BEGIN\t7\t8": "too many values to unpack (expected 2)",
    b"PREPARED\t7\t[]": "payload is not an object",
    b"PREPARED\t7\t{}x": "trailing data after the payload",
    b"ENLIST\t7\t\xe2\x82s": None,
}


def _reference_read(path, data):
    """What reading `data` gives, found the old way: cut the torn tail off,
    split all the lines at once, and decode each in turn. Returns the
    records before the first corrupt line and that line's error, or None."""
    records = []
    for number, raw in enumerate(data[: data.rfind(b"\n") + 1].split(b"\n")[:-1], 1):
        if raw in _BAD_LINES:
            why = _BAD_LINES[raw]
            if why is None:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return records, f"{path}:{number}: bad record: {exc.reason}"
            return records, f"{path}:{number}: bad record {raw.decode('utf-8')!r}: {why}"
        kind, txn_id, *field = raw.decode("utf-8").split("\t")
        if kind == "PREPARED":
            field = [json.loads(field[0])]
        records.append((kind, int(txn_id), *field))
    return records, None


@given(
    block=st.integers(1, 40),
    head=st.lists(_GOOD_LINES, max_size=12),
    bad=st.none() | st.sampled_from(sorted(_BAD_LINES)),
    rest=st.lists(_GOOD_LINES | st.sampled_from(sorted(_BAD_LINES)), max_size=4),
    torn=st.binary(max_size=80).map(lambda b: b.replace(b"\n", b"")),
)
def test_the_block_reader_reads_as_if_it_split_the_whole_log(tmp_path_factory, block, head, bad, rest, torn):
    """Whatever the block size, the records, the first error with its true
    line number, the count and the torn-tail cut match a reader that holds
    every line: lines and payloads span blocks, and a torn last line is any
    bytes but a newline."""
    lines = head + ([bad] if bad is not None else []) + rest
    data = b"".join(line + b"\n" for line in lines) + torn
    path = tmp_path_factory.mktemp("log") / "x.log"
    path.write_bytes(data)
    expected, error = _reference_read(str(path), data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal, "_BLOCK", block)
        records = read_records(str(path), _MIXED)
        assert len(records) == len(lines)
        if error is None:
            assert list(records) == expected
        else:
            got = []
            with pytest.raises(LogCorruptError) as exc:
                for record in records:
                    got.append(record)
            assert (got, str(exc.value)) == (expected, error)
        LogWriter(str(path)).close()  # cuts the torn tail off, reading the log forward a block at a time
    assert path.read_bytes() == data[: data.rfind(b"\n") + 1]
    assert len(read_records(str(path), _MIXED)) == len(lines)


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
        list(read_records(str(path), LOG_SCHEMA))
    assert str(exc.value) == f"{path}{message}"


def test_only_an_active_transaction_takes_work():
    ctx = TransactionContext(id=1, originator="t")
    assert ctx.status is TxnStatus.ACTIVE
    ctx.require_active("write")
    for status in ("preparing", "committed", "aborted"):
        ctx.status = TxnStatus(status)
        message = f"^txn 1: late write requires an active transaction, status is {status}$"
        with pytest.raises(TxnStateError, match=message):
            ctx.require_active("late write")


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
        pytest.param("store", 'PREPARED\t1\t{"writes": {}, "reads": []}', id="store-payload-with-an-extra-key"),
        pytest.param("queue", 'PREPARED\t1\t{"sends": [], "receives": [], "x": 1}', id="queue-payload-with-an-extra-key"),
    ],
)
def test_malformed_rm_log_record_is_log_corruption(tmp_path, rm, record):
    from tra.resources import ManagedStore, TxnQueue

    path = tmp_path / "q.log"
    path.write_text(record + "\n", encoding="utf-8")
    manager = {"queue": TxnQueue, "store": ManagedStore}[rm]("q", str(path), tracer=Tracer())
    manager.crash()
    with pytest.raises(LogCorruptError, match="bad record"):
        manager.recover()


def test_a_kept_payload_is_checked_in_full(tmp_path):
    from tra.resources import ManagedStore

    path = tmp_path / "s.log"
    bad = 'PREPARED\t{}\t{{"writes": {{"k": ["put", 7]}}}}\n'
    path.write_text(bad.format(1) + "DONE\t1\n" + bad.format(2), encoding="utf-8")
    store = ManagedStore("s", str(path), tracer=Tracer())
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
    store = ManagedStore("s", str(path), tracer=Tracer())
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
    assert list(read_records(str(path), LOG_SCHEMA)) == [("BEGIN", 1)]
    w = LogWriter(str(path))  # cuts the torn record off, so the next one starts its own line
    w.append("COMMIT", "1")
    w.close()
    assert path.read_text(encoding="utf-8") == "BEGIN\t1\nCOMMIT\t1\n"
    path.write_text("BEGIN\t", encoding="utf-8")  # the first record was torn: nothing was written
    LogWriter(str(path)).close()
    assert path.read_bytes() == b""
    # only the last line may be torn: a finished malformed line is corruption
    path.write_text("BEGIN\t1\nEN\nBEGIN\t2", encoding="utf-8")
    with pytest.raises(LogCorruptError, match=r"x\.log:2: bad record 'EN': unknown kind"):
        list(read_records(str(path), LOG_SCHEMA))


def test_a_torn_prepared_record_recovers_with_nothing_prepared(closing, tmp_path):
    from tra.resources import ManagedStore

    store = closing(ManagedStore("s", str(tmp_path / "s.log"), tracer=Tracer()))
    t = TransactionContext(id=1, originator="t")
    store.put(t, "k", "v")
    assert store.prepare(1).value == "yes"
    store.crash()
    with open(store.log_path, "r+b") as fh:  # the crash tore the PREPARED write
        fh.truncate(fh.seek(0, 2) - 3)
    store.recover()
    assert list(read_records(store.log_path, {"PREPARED": PAYLOAD, "DONE": None})) == []
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
        list(read_records(str(path), {"PREPARED": PAYLOAD, "DONE": None}))


def test_reading_a_log_holds_a_few_blocks_whatever_its_length(tmp_path):
    """The reader holds one block's piece and its lines at a time, never a
    list of the log's records: its peak is the same for a 0.6 MB and a
    2.5 MB queue log, about 6.6 blocks on Python 3.11. A reader that kept
    the 20,000 records would hold over 5 MB."""
    path = tmp_path / "queue.log"
    prepared = '{"sends":["%s"],"receives":[]}' % ("m" * 200)
    peaks = []
    for txns in (2_500, 10_000):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(1, txns + 1):
                fh.write(f"PREPARED\t{i}\t{prepared}\nDONE\t{i}\n")
        records = read_records(str(path), {"PREPARED": PAYLOAD, "DONE": None})
        gc.collect()
        tracemalloc.start()
        try:
            for _ in records:
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(records) == 2 * txns
    assert max(peaks) < 12 * wal._BLOCK
