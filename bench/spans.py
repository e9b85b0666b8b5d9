"""Outside-in span recorder for the traced benchmark run.

tra is treated as a black box: the recorder replaces public functions and
methods of the tra modules with timing wrappers for the length of a traced
round and puts the originals back afterwards. Functions that other modules
import by name are wrapped at each import site too, because patching the
defining module does not reach a name already bound elsewhere.

Each call becomes a span (name, start, end, parent). A span's self time is
its duration minus the time its child spans cover, where a child covers its
wrapper's bookkeeping too, so tracer cost lands in no parent's self time. Counts go to the round's
totals and, when a workload has set one, to the current unit (one
transaction, one restart, one queued request), so ratios are taken where the
work happens. Spans of the first traced round are kept in memory and written
out when the workload ends; later rounds only add to the totals.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict


def _appended_bytes(args, result):
    # LogWriter.append(self, *fields) writes the fields tab-joined plus "\n".
    return "bytes", len(("\t".join(str(f) for f in args[1:]) + "\n").encode("utf-8"))


def _records_read(args, result):
    return "records", len(result)


def _no_vote(args, result):
    return "no", int(getattr(result, "value", None) == "no")


# (module, attribute path at that site, span name, extra counter)
TARGETS = [
    ("tra.wal", "LogWriter.append", "wal.append", _appended_bytes),
    ("tra.wal", "LogWriter.__init__", "wal.LogWriter.init", None),
    ("tra.wal", "read_records", "wal.read_records", _records_read),
    ("tra.resources", "read_records", "wal.read_records", _records_read),
    ("tra.coordinator", "read_records", "wal.read_records", _records_read),
    ("tra.sim", "Tracer.emit", "sim.emit", None),
    ("tra.coordinator", "Coordinator.begin", "coordinator.begin", None),
    ("tra.coordinator", "Coordinator.enlist", "coordinator.enlist", None),
    ("tra.coordinator", "Coordinator.commit", "coordinator.commit", None),
    ("tra.coordinator", "Coordinator.rollback", "coordinator.rollback", None),
    ("tra.coordinator", "Coordinator.restart", "coordinator.restart", None),
    ("tra.coordinator", "Coordinator.recover", "coordinator.recover", None),
    ("tra.coordinator", "replay_log", "coordinator.replay_log", None),
    ("tra.harness", "replay_log", "coordinator.replay_log", None),
    ("tra.resources", "ResourceManager.prepare", "resources.prepare", _no_vote),
    ("tra.resources", "ResourceManager.commit", "resources.commit", None),
    ("tra.resources", "ResourceManager.rollback", "resources.rollback", None),
    ("tra.resources", "ResourceManager.recover", "resources.recover", None),
    ("tra.resources", "ManagedStore.get", "resources.get", None),
    ("tra.resources", "ManagedStore.put", "resources.put", None),
    ("tra.resources", "TxnQueue.send", "resources.send", None),
    ("tra.resources", "TxnQueue.receive", "resources.receive", None),
    ("tra.records", "encode_record", "records.encode_record", None),
    ("tra.records", "decode_record", "records.decode_record", None),
    ("tra.broker", "encode_record", "records.encode_record", None),
    ("tra.broker", "decode_record", "records.decode_record", None),
    ("tra.broker", "MessageBroker.invoke", "broker.invoke", None),
    ("tra.broker", "MessageBroker.invoke_via_queue", "broker.invoke_via_queue", None),
    ("tra.broker", "MessageBroker.drain", "broker.drain", None),
    ("tra.broker", "LegacyEndpoint.match", "broker.LegacyEndpoint.match", None),
    ("tra.harness", "run_scenario", "harness.run_scenario", None),
    ("tra.harness", "Runner.__init__", "harness.Runner.init", None),
    ("tra.harness", "Runner.run", "harness.Runner.run", None),
    ("tra.scenario", "load_scenario_file", "scenario.load_scenario_file", None),
    ("tra.harness", "load_scenario_file", "scenario.load_scenario_file", None),
    ("tra.model", "load_manifest", "model.load_manifest", None),
    ("tra.harness", "load_manifest", "model.load_manifest", None),
    ("tra.faults", "FaultInjector.fire", "faults.FaultInjector.fire", None),
    ("tra.process", "ProcessEngine.execute", "process.ProcessEngine.execute", None),
]

LAYERS = (
    "wal", "sim", "coordinator", "resources", "records", "broker",
    "harness", "scenario", "model", "process", "faults",
)


class Spans:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [child ns, span id]
        self.calls: Counter = Counter()  # span name or "name:extra" -> count
        self.self_ns: defaultdict = defaultdict(int)
        self.unit: Counter | None = None  # set by the workload
        self.kept: list | None = []  # spans of the first traced round, while it runs
        self.spans_kept: list = []
        self.next_id = 0
        self.installed: list = []
        # per finished traced round
        self.round_calls: list[Counter] = []
        self.round_self_ns: list[dict] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, extra in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, extra))
            self.installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, extra):
        spans = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            stack = spans.stack
            parent = stack[-1] if stack else None
            span_id = spans.next_id
            spans.next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.self_ns[name] += end - start - frame[0]
                unit = spans.unit
                spans.calls[name] += 1
                if unit is not None:
                    unit[name] += 1
                if spans.kept is not None:
                    spans.kept.append(
                        (span_id, parent[1] if parent is not None else None, name, start, end)
                    )
                if extra is not None and returned:
                    key, amount = extra(args, result)
                    spans.calls[f"{name}:{key}"] += amount
                    if unit is not None:
                        unit[f"{name}:{key}"] += amount
                if parent is not None:
                    # Read the clock again so this wrapper's bookkeeping is
                    # charged to neither the span nor its parent.
                    parent[0] += clock() - start

        wrapper.__wrapped__ = fn
        return wrapper

    # -- rounds -----------------------------------------------------------

    def end_round(self, traced: bool) -> None:
        if traced:
            self.round_calls.append(self.calls)
            self.round_self_ns.append(dict(self.self_ns))
            if self.kept is not None:
                self.spans_kept, self.kept = self.kept, None
        self.calls = Counter()
        self.self_ns = defaultdict(int)

    def layers_seen(self) -> set[str]:
        return {name.split(".")[0] for c in self.round_calls for name in c if c[name]}

    def write(self, path: str) -> int:
        kept = self.spans_kept
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in kept:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
        return len(kept)
