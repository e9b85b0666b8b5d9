"""Versioned store semantics: optimistic validation, versions, limits."""

import pytest

from tra.errors import StoreLimitError, TxnStateError
from tra.faults import CoordinatorCrash, CrashPoint, FaultInjector, FaultSpec
from tra.resources import MAX_KEY_LEN, MAX_VALUE_BYTES, ManagedStore
from tra.sim import Tracer
from tra.txn import TransactionContext, TxnStatus, Vote


def standalone(tmp_path, name="s"):
    return ManagedStore(name, str(tmp_path / f"{name}.log"), tracer=Tracer())


def test_read_your_writes(rig):
    coord, store, _ = rig
    store.seed({"k": "old"})
    t = coord.begin("c")
    assert store.get(t, "k") == "old"
    store.put(t, "k", "new")
    assert store.get(t, "k") == "new"
    store.delete(t, "k")
    assert store.get(t, "k") is None
    # nothing visible outside the transaction until commit
    assert store.committed_value("k") == "old"
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert store.committed_value("k") is None


def test_a_second_prepare_is_refused(rig):
    coord, store, _ = rig
    t = coord.begin("c")
    store.put(t, "k", "v")
    assert store.prepare(t.id) is Vote.YES
    with pytest.raises(TxnStateError, match="already prepared or finished"):
        store.prepare(t.id)
    store.commit(t.id)
    with pytest.raises(TxnStateError, match="already prepared or finished"):
        store.prepare(t.id)
    assert store.committed_value("k") == "v"


def test_absent_key_reads_version_zero(rig):
    coord, store, _ = rig
    assert store.version("nothing") == 0
    t = coord.begin("c")
    assert store.get(t, "nothing") is None
    store.put(t, "other", "x")
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert store.version("other") == 1
    assert store.version("nothing") == 0


def test_first_committer_wins(rig):
    coord, store, _ = rig
    store.seed({"k": "0"})
    t1 = coord.begin("a")
    t2 = coord.begin("b")
    assert store.get(t1, "k") == "0"
    assert store.get(t2, "k") == "0"
    store.put(t1, "k", "1")
    store.put(t2, "k", "2")
    assert coord.commit(t1) is TxnStatus.COMMITTED
    assert coord.commit(t2) is TxnStatus.ABORTED
    assert store.committed_value("k") == "1"


def test_blind_write_conflict_second_aborts(rig):
    coord, store, _ = rig
    t1 = coord.begin("a")
    t2 = coord.begin("b")
    store.put(t1, "k", "1")
    store.put(t2, "k", "2")
    assert coord.commit(t1) is TxnStatus.COMMITTED
    # t2 never read k, but version moved only after t1; blind writes do not
    # conflict through versions. Last committer simply overwrites.
    assert coord.commit(t2) is TxnStatus.COMMITTED
    assert store.committed_value("k") == "2"
    assert store.version("k") == 2


def test_write_skew_rejected_between_prepared_transactions(tmp_path):
    """r1 reads x and writes y while r2 (already prepared) wrote x: the read
    lock check must refuse r1 even though versions still match."""
    store = standalone(tmp_path)
    store.seed({"x": "1", "y": "1"})

    t1 = TransactionContext(id=1, originator="a")
    t2 = TransactionContext(id=2, originator="b")
    assert store.get(t1, "x") == "1"
    assert store.get(t1, "y") == "1"
    store.put(t1, "x", "0")
    assert store.get(t2, "x") == "1"
    assert store.get(t2, "y") == "1"
    store.put(t2, "y", "0")

    assert store.prepare(1) is Vote.YES
    # t1 sits prepared holding its write locks; t2's read of x must fail
    # validation or the pair would serialize to x=0, y=0 (no serial order
    # produces that).
    assert store.prepare(2) is Vote.NO
    store.commit(1)
    store.rollback(2)
    assert store.committed_snapshot() == {"x": "0", "y": "1"}


def test_write_lock_blocks_second_preparer(tmp_path):
    store = standalone(tmp_path)
    t1 = TransactionContext(id=1, originator="a")
    t2 = TransactionContext(id=2, originator="b")
    store.put(t1, "k", "1")
    store.put(t2, "k", "2")
    assert store.prepare(1) is Vote.YES
    assert store.prepare(2) is Vote.NO
    store.rollback(1)
    # after t1 unstages, a fresh attempt by t2 succeeds
    t3 = TransactionContext(id=3, originator="b")
    store.put(t3, "k", "2")
    assert store.prepare(3) is Vote.YES
    store.commit(3)
    assert store.committed_value("k") == "2"


@pytest.mark.parametrize("cause", ["moved-read-version", "held-key"])
def test_a_no_vote_is_the_newest_event_of_a_default_trace(tmp_path, cause):
    store = standalone(tmp_path)
    store.seed({"k": "0"})
    t1 = TransactionContext(id=1, originator="a")
    t2 = TransactionContext(id=2, originator="b")
    assert store.get(t2, "k") == "0"
    store.put(t1, "k", "1")
    assert store.prepare(1) is Vote.YES  # t1 now holds k
    if cause == "moved-read-version":
        store.commit(1)
    assert store.prepare(2) is Vote.NO
    newest = store.tracer.events[-1]
    assert newest == {"t": newest["t"], "ev": "rm_vote", "rm": "s", "txn": 2, "vote": "no"}


@pytest.mark.parametrize("settle", ["abort", "presumed-abort", "crash"])
def test_a_no_vote_leaves_its_workspace_to_the_path_that_settles_it(rig, settle):
    coord, store, _ = rig
    store.seed({"k": "0"})
    reader = coord.begin("r")
    assert store.get(reader, "k") == "0"
    writer = coord.begin("w")
    store.put(writer, "k", "1")
    assert coord.commit(writer) is TxnStatus.COMMITTED  # moves the version the reader saw
    if settle == "abort":
        assert coord.commit(reader) is TxnStatus.ABORTED
    else:
        coord.injector = FaultInjector([FaultSpec("coordinator", CrashPoint.AFTER_VOTE)])
        with pytest.raises(CoordinatorCrash):
            coord.commit(reader)
        coord.crash()
        assert reader.id in store._work  # voted NO, but nothing has settled it yet
        if settle == "crash":
            store.crash()
        else:
            coord.restart()
            assert coord.recover().presumed_aborted == 1
    assert reader.id not in store._work


def test_delete_bumps_version(rig):
    coord, store, _ = rig
    store.seed({"k": "v"})
    t1 = coord.begin("a")
    store.delete(t1, "k")
    assert coord.commit(t1) is TxnStatus.COMMITTED
    v_after_delete = store.version("k")
    assert v_after_delete == 1
    assert store.committed_value("k") is None

    # a reader that saw the pre-delete version cannot commit against it
    store2_seen = v_after_delete
    t2 = coord.begin("b")
    assert store.get(t2, "k") is None
    store.put(t2, "k", "back")
    assert coord.commit(t2) is TxnStatus.COMMITTED
    assert store.version("k") == store2_seen + 1


def test_stale_read_after_delete_aborts(rig):
    coord, store, _ = rig
    store.seed({"k": "v"})
    t_reader = coord.begin("r")
    assert store.get(t_reader, "k") == "v"

    t_deleter = coord.begin("d")
    store.delete(t_deleter, "k")
    assert coord.commit(t_deleter) is TxnStatus.COMMITTED

    store.put(t_reader, "other", "x")
    assert coord.commit(t_reader) is TxnStatus.ABORTED


def test_limits(rig):
    coord, store, _ = rig
    t = coord.begin("c")
    with pytest.raises(StoreLimitError):
        store.put(t, "k" * (MAX_KEY_LEN + 1), "v")
    with pytest.raises(StoreLimitError):
        store.put(t, "k", "v" * (MAX_VALUE_BYTES + 1))
    with pytest.raises(StoreLimitError):
        store.get(t, "")
    with pytest.raises(StoreLimitError):
        store.delete(t, "k" * (MAX_KEY_LEN + 1))
    with pytest.raises(StoreLimitError, match="lone surrogate"):
        store.put(t, "k", "a\ud800")
    coord.rollback(t)
    with pytest.raises(StoreLimitError, match="lone surrogate"):
        store.seed({"k": "\ud800"})


EDGE = "\u20ac" * 21845 + "a"  # 65,536 bytes of UTF-8 in 21,846 characters


def test_a_value_is_sized_in_utf8_bytes(rig):
    coord, store, _ = rig
    assert len(EDGE.encode("utf-8")) == MAX_VALUE_BYTES
    store.seed({"edge": EDGE})
    t = coord.begin("c")
    store.put(t, "k", EDGE)
    with pytest.raises(StoreLimitError, match=f"^value larger than {MAX_VALUE_BYTES} bytes$"):
        store.put(t, "k", EDGE + "b")  # 21,847 characters
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert store.committed_snapshot() == {"edge": EDGE, "k": EDGE}


ASCII = {f"acct{i:04d}": str(i) for i in range(2000)}


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"k" * (MAX_KEY_LEN + 1): "v"}, f"key longer than {MAX_KEY_LEN} characters"),
        ({7: "v"}, "keys must be non-empty strings"),
        ({"k": "\ud800"}, "values must be valid Unicode text, with no lone surrogates"),
        ({"k": EDGE + "b"}, f"value larger than {MAX_VALUE_BYTES} bytes"),
        ({"k": 7}, "values must be strings"),
        ({"k": "\ud800", "": "v"}, "keys must be non-empty strings"),  # every key is checked before any value
    ],
    ids=["key-too-long", "key-not-a-string", "value-surrogate", "value-too-large", "value-not-a-string", "key-first"],
)
def test_a_refused_seed_installs_nothing(rig, bad, message):
    _, store, _ = rig
    store.seed({"acct0000": "seeded", "other": "x"})
    before = store.committed_snapshot()
    with pytest.raises(StoreLimitError, match=f"^{message}$"):
        store.seed({**ASCII, **bad})  # the bad entry comes after 2,000 good ones
    assert store.committed_snapshot() == before


def test_access_after_finish_rejected(tmp_path):
    store = standalone(tmp_path)
    ctx = TransactionContext(id=1, originator="a")
    store.put(ctx, "k", "v")
    store.prepare(1)
    store.commit(1)
    ctx.status = TxnStatus.COMMITTED
    with pytest.raises(TxnStateError):
        store.put(ctx, "k", "w")


@pytest.mark.parametrize("delay", [-5, 1.5, True])
def test_a_prepare_delay_that_is_not_a_non_negative_integer_is_refused(tmp_path, delay):
    with pytest.raises(ValueError, match=f"prepare_delay must be a non-negative integer, got {delay}"):
        ManagedStore("s", str(tmp_path / "s.log"), prepare_delay=delay)
    assert list(tmp_path.iterdir()) == []  # refused before the log is opened


@pytest.mark.parametrize("rm_id", ["", "a/b", 7])
def test_an_rm_id_that_is_not_a_name_is_refused(tmp_path, rm_id):
    with pytest.raises(ValueError, match=f"rm_id must be a name .*, got {rm_id!r}"):
        ManagedStore(rm_id, str(tmp_path / "s.log"))


def test_a_finished_transaction_answers_a_redrive_quietly_before_and_after_a_crash(tmp_path):
    store = standalone(tmp_path)
    for txn_id, finish in ((1, store.commit), (2, store.rollback)):
        store.put(TransactionContext(id=txn_id, originator="a"), f"k{txn_id}", "v")
        assert store.prepare(txn_id) is Vote.YES
        finish(txn_id)
    seen = len(store.tracer.events)
    store.recover()  # not crashed: nothing to do
    for crashed in (False, True):
        if crashed:
            store.crash()
            store.recover()
            newest = store.tracer.events[-1]
            assert newest == {"t": newest["t"], "ev": "recover", "who": "s", "prepared": 0}
            seen = len(store.tracer.events)
        # a recovery re-drives phase 2: each finished transaction answers from its DONE record
        store.commit(1)
        store.rollback(2)
        assert len(store.tracer.events) == seen


@pytest.mark.parametrize("settle", ["commit", "rollback"])
def test_recovered_prepared_transactions_keep_their_locks(tmp_path, settle):
    store = standalone(tmp_path)
    store.seed({"j": "0", "k": "0"})
    store.put(TransactionContext(id=1, originator="a"), "k", "1")
    store.put(TransactionContext(id=2, originator="a"), "j", "1")
    assert store.prepare(1) is Vote.YES
    assert store.prepare(2) is Vote.YES
    store.crash()
    store.recover()

    # each in-doubt txn still blocks a reader and a writer of its key
    for reader, writer, key in ((10, 11, "j"), (12, 13, "k")):
        assert store.get(TransactionContext(id=reader, originator="b"), key) == "0"
        assert store.prepare(reader) is Vote.NO
        store.put(TransactionContext(id=writer, originator="c"), key, "3")
        assert store.prepare(writer) is Vote.NO

    getattr(store, settle)(1)
    getattr(store, settle)(2)
    for txn_id, key in ((20, "j"), (21, "k")):
        store.get(TransactionContext(id=txn_id, originator="b"), key)
        assert store.prepare(txn_id) is Vote.YES
    for txn_id, key in ((30, "j"), (31, "k")):
        store.put(TransactionContext(id=txn_id, originator="c"), key, "5")
        assert store.prepare(txn_id) is Vote.YES


def test_a_prepare_whose_log_append_fails_holds_no_locks(tmp_path, monkeypatch):
    store = standalone(tmp_path)
    store.put(TransactionContext(id=1, originator="a"), "x", "1")

    def fail(*fields):
        raise OSError("disk full")

    monkeypatch.setattr(store._writer, "append", fail)
    with pytest.raises(OSError, match="disk full"):
        store.prepare(1)
    monkeypatch.undo()
    store.rollback(1)

    store.put(TransactionContext(id=2, originator="b"), "x", "2")
    assert store.prepare(2) is Vote.YES
    store.commit(2)
    assert store.committed_value("x") == "2"
