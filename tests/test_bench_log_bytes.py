"""The traced benchmark run counts log bytes from the fields it sees passed to
LogWriter.append, not from the files. This suite does not run bench/, so it
checks here that the count equals the file's growth for every record kind
of both logs."""

import importlib.util
import os
from pathlib import Path

from tra.coordinator import LOG_SCHEMA, Coordinator
from tra.resources import ManagedStore, TxnQueue
from tra.sim import Tracer
from tra.wal import LogWriter

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _appended_bytes():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._appended_bytes


def test_counted_log_bytes_equal_the_file_growth(closing, tmp_path, monkeypatch):
    counted_bytes = _appended_bytes()
    append = LogWriter.append
    kinds = set()

    def checked_append(self, *fields):
        before = os.path.getsize(self.path)
        append(self, *fields)
        key, counted = counted_bytes((self, *fields), None)
        assert (key, counted) == ("bytes", os.path.getsize(self.path) - before), fields
        kinds.add(fields[0])

    monkeypatch.setattr(LogWriter, "append", checked_append)
    tracer = Tracer()
    coord = closing(Coordinator(str(tmp_path / "c.log"), tracer=tracer))
    store = closing(ManagedStore("störe", str(tmp_path / "s.log"), tracer=tracer))
    queue = closing(TxnQueue("queue", str(tmp_path / "q.log"), tracer=tracer))
    coord.register(store)
    coord.register(queue)
    queue.seed(["m0"])

    t = coord.begin("c")
    store.put(t, "kéy", "v\talue\n")
    store.delete(t, "gone")
    queue.send(t, "m€")
    assert queue.receive(t) == "m0"
    coord.commit(t)
    t = coord.begin("c")
    store.put(t, "k", "v")
    coord.rollback(t)

    assert kinds == set(LOG_SCHEMA) | {"PREPARED", "DONE"}
