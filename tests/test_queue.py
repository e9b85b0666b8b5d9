"""Transactional queue semantics and the conservation invariant."""

import pytest

from tra.errors import StoreLimitError
from tra.resources import TxnQueue
from tra.sim import Tracer
from tra.txn import TransactionContext, TxnStatus, Vote


def standalone(tmp_path, name="q"):
    return TxnQueue(name, str(tmp_path / f"{name}.log"), tracer=Tracer())


def test_send_is_invisible_until_commit(rig):
    coord, _, queue = rig
    t = coord.begin("p")
    queue.send(t, "m1")
    queue.send(t, "m2")
    assert queue.peek() == ()
    assert queue.depth() == 0
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert queue.peek() == ("m1", "m2")
    assert queue.conservation_holds()


def test_no_receiving_your_own_staged_send(rig):
    coord, _, queue = rig
    t = coord.begin("p")
    queue.send(t, "mine")
    assert queue.receive(t) is None
    assert coord.commit(t) is TxnStatus.COMMITTED
    t2 = coord.begin("c")
    assert queue.receive(t2) == "mine"
    assert coord.commit(t2) is TxnStatus.COMMITTED
    assert queue.depth() == 0
    assert queue.conservation_holds()


def test_rollback_reinserts_receives_at_front_in_order(rig):
    coord, _, queue = rig
    queue.seed(["a", "b", "c"])
    t = coord.begin("c")
    assert queue.receive(t) == "a"
    assert queue.receive(t) == "b"
    assert queue.peek() == ("c",)
    coord.rollback(t)
    assert queue.peek() == ("a", "b", "c")
    assert queue.conservation_holds()


def test_prepared_receives_go_back_to_the_front_in_order_on_rollback(tmp_path):
    queue = standalone(tmp_path)
    queue.seed(["a", "b", "c"])
    t = TransactionContext(id=1, originator="r")
    assert [queue.receive(t), queue.receive(t)] == ["a", "b"]
    assert queue.prepare(1) is Vote.YES
    queue.rollback(1)
    assert queue.peek() == ("a", "b", "c") and queue.depth() == 3
    assert queue.conservation_holds()


def test_committed_receive_consumes(rig):
    coord, _, queue = rig
    queue.seed(["a", "b"])
    t = coord.begin("c")
    assert queue.receive(t) == "a"
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert queue.peek() == ("b",)
    assert queue.conservation_holds()


def test_crash_unwinds_multiple_receivers_front_first(tmp_path):
    """Two in-flight receivers crash with the queue: both hand their messages
    back, earliest receiver's messages closest to the head."""
    queue = standalone(tmp_path)
    queue.seed(["a", "b", "c", "d"])
    t1 = TransactionContext(id=1, originator="r1")
    t2 = TransactionContext(id=2, originator="r2")
    assert queue.receive(t1) == "a"
    assert queue.receive(t2) == "b"
    assert queue.receive(t1) == "c"
    assert queue.peek() == ("d",)
    queue.crash()
    queue.recover()
    assert queue.peek() == ("a", "c", "b", "d")
    assert queue.conservation_holds()


def test_prepared_receives_survive_crash_and_commit(tmp_path):
    queue = standalone(tmp_path)
    queue.seed(["a", "b"])
    t = TransactionContext(id=1, originator="r")
    assert queue.receive(t) == "a"
    queue.send(t, "out")
    assert queue.prepare(1) is Vote.YES
    queue.crash()
    queue.recover()
    # prepared work is restaged from the log, so commit still applies it
    queue.commit(1)
    assert queue.peek() == ("b", "out")
    # commit counters are instrumentation, rebuilt only for live epochs; the
    # physical depth is what conservation is checked against in a sweep run
    assert queue.depth() == 2


def test_empty_receive_returns_none(rig):
    coord, _, queue = rig
    t = coord.begin("c")
    assert queue.receive(t) is None
    newest = coord.tracer.events[-1]
    assert newest == {"t": newest["t"], "ev": "receive", "rm": "queue", "txn": t.id, "empty": True}
    assert coord.commit(t) is TxnStatus.COMMITTED


def test_message_limits(rig):
    coord, _, queue = rig
    t = coord.begin("p")
    with pytest.raises(StoreLimitError):
        queue.send(t, "")
    with pytest.raises(StoreLimitError):
        queue.send(t, "x" * (64 * 1024 + 1))
    with pytest.raises(StoreLimitError, match="lone surrogate"):
        queue.send(t, "\ud800")
    coord.rollback(t)
    with pytest.raises(StoreLimitError, match="lone surrogate"):
        queue.seed(["m", "\udfff"])


EDGE = "\u20ac" * 21845 + "a"  # 65,536 bytes of UTF-8 in 21,846 characters


def test_a_message_is_sized_in_utf8_bytes(rig):
    coord, _, queue = rig
    queue.seed([EDGE])
    t = coord.begin("p")
    queue.send(t, EDGE)
    with pytest.raises(StoreLimitError, match="^value larger than 65536 bytes$"):
        queue.send(t, EDGE + "b")
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert queue.peek() == (EDGE, EDGE)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("", "messages must be non-empty"),
        ("\udfff", "values must be valid Unicode text, with no lone surrogates"),
        (EDGE + "b", "value larger than 65536 bytes"),
        (7, "values must be strings"),
    ],
    ids=["empty", "surrogate", "too-large", "not-a-string"],
)
def test_a_refused_seed_appends_nothing(rig, bad, message):
    _, _, queue = rig
    queue.seed(["a", "b"])
    with pytest.raises(StoreLimitError, match=f"^{message}$"):
        queue.seed([*(f"m{i}" for i in range(2000)), bad])  # the bad message comes after 2,000 good ones
    assert queue.peek() == ("a", "b")
    assert queue.initial_depth == 2


def test_a_second_seed_counts_only_its_own_messages(rig):
    coord, _, queue = rig
    queue.seed(["a"])
    t = coord.begin("p")
    queue.send(t, "b")
    assert coord.commit(t) is TxnStatus.COMMITTED
    queue.seed(["c"])  # the committed send of "b" is counted once, as a send
    assert queue.peek() == ("a", "b", "c")
    assert queue.initial_depth == 2
    assert queue.conservation_holds()


def test_fifo_order_across_transactions(rig):
    coord, _, queue = rig
    for i in range(3):
        t = coord.begin("p")
        queue.send(t, f"m{i}")
        assert coord.commit(t) is TxnStatus.COMMITTED
    got = []
    t = coord.begin("c")
    while True:
        m = queue.receive(t)
        if m is None:
            break
        got.append(m)
    assert coord.commit(t) is TxnStatus.COMMITTED
    assert got == ["m0", "m1", "m2"]
    assert queue.conservation_holds()



def _failing_prepare(queue, monkeypatch, txn_id):
    def fail(*fields):
        raise OSError("disk full")

    monkeypatch.setattr(queue._writer, "append", fail)
    with pytest.raises(OSError, match="disk full"):
        queue.prepare(txn_id)
    monkeypatch.undo()


def test_a_prepare_whose_log_append_fails_gives_its_receives_back_on_rollback(tmp_path, monkeypatch):
    queue = standalone(tmp_path)
    queue.seed(["m0", "m1"])
    assert queue.receive(TransactionContext(id=1, originator="r")) == "m0"
    _failing_prepare(queue, monkeypatch, 1)
    assert queue.peek() == ("m1",)
    queue.rollback(1)
    assert queue.peek() == ("m0", "m1")
    assert queue.conservation_holds()


def test_a_prepare_whose_log_append_fails_keeps_its_place_for_a_crash(tmp_path, monkeypatch):
    queue = standalone(tmp_path)
    queue.seed(["m0", "m1", "m2"])
    assert queue.receive(TransactionContext(id=1, originator="r")) == "m0"
    assert queue.receive(TransactionContext(id=2, originator="r")) == "m1"
    _failing_prepare(queue, monkeypatch, 1)
    queue.crash()  # unwinds txn 2, then txn 1, as when nothing failed
    queue.recover()
    assert queue.peek() == ("m0", "m1", "m2")
    assert queue.conservation_holds()
