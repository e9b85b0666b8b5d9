"""Clock, tracer, append-only log, and the transaction state machine."""

import pytest

from tra.errors import LogCorruptError, TxnStateError
from tra.sim import SimClock, Tracer
from tra.txn import TransactionContext, TxnStatus
from tra.wal import LogWriter, read_records


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
    tracer.emit("first", a=1)
    tracer.emit("second")
    assert tracer.events[0] == {"t": 0, "ev": "first", "a": 1}
    assert tracer.events[1] == {"t": 1, "ev": "second"}
    assert tracer.clock.now == 2


def test_log_round_trip(tmp_path):
    path = str(tmp_path / "x.log")
    w = LogWriter(path)
    w.append("BEGIN", 1, "client")
    w.append("COMMIT", 1)
    w.close()
    assert read_records(path) == [("BEGIN", "1", "client"), ("COMMIT", "1")]


def test_log_rejects_separator_bytes(tmp_path):
    w = LogWriter(str(tmp_path / "x.log"))
    with pytest.raises(ValueError):
        w.append("BEGIN", "a\tb")
    with pytest.raises(ValueError):
        w.append("BEGIN", "a\nb")
    w.close()


def test_log_missing_and_corrupt(tmp_path):
    assert read_records(str(tmp_path / "absent.log")) == []
    bad = tmp_path / "bad.log"
    bad.write_text("BEGIN\t1\n\nCOMMIT\t1\n", encoding="utf-8")
    with pytest.raises(LogCorruptError):
        read_records(str(bad))


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
    "record",
    ["PREPARED\tx1\t7b7d", "PREPARED\t1\tzz", "DONE\tq", "PREPARED\t1\tff", "PREPARED\t1\t7b"],
    ids=["bad-txn-id", "bad-hex", "bad-done-id", "bad-utf8", "bad-json"],
)
def test_malformed_rm_log_record_is_log_corruption(tmp_path, record):
    from tra.resources import TxnQueue

    path = tmp_path / "q.log"
    path.write_text(record + "\n", encoding="utf-8")
    queue = TxnQueue("q", str(path), tracer=Tracer(SimClock()))
    queue.crash()
    with pytest.raises(LogCorruptError, match="bad record"):
        queue.recover()
