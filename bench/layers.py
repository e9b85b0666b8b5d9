"""Per-layer metrics of the traced run, computed from span totals.

Stats:
  calls_per_<x>   calls of the span per <x>: per transaction begun in the
                  workload's loop (txn), per committed transfer/balance/audit,
                  per broker invoke, per queued request, per restart cycle,
                  or per pass. Counts per txn cover the loop's transactions
                  only, not restarts or the untimed scenario run.
  bytes_per_<x>   bytes the span wrote, same denominators.
  self_us         mean self time per call, in microseconds.
  self_ms         self time per pass, in milliseconds.
  no_share        NO votes / prepares, in the loop's transactions.
  <layer>.self_share  the layer's self time / traced round wall time.

A pass is one round of a workload: a fresh world, its fixed seeded work and
its restart cycles. Every workload prints every metric; one whose layer does
no work there reads 0.
"""

from __future__ import annotations

import statistics

from spans import LAYERS

# name -> (unit, formula). Formulas:
#   ("per", counter, denominator[, unit])  counter / denominator, counted over
#                                          the whole pass or over one unit
#   ("self_us", span) / ("self_ms", span)
#   ("share", counter, span, unit)         counter / calls of span, in one unit
PER_LAYER = {
    "wal.append.calls_per_txn": ("count", ("per", "wal.append", "txn", "txn")),
    "wal.append.bytes_per_txn": ("B", ("per", "wal.append:bytes", "txn", "txn")),
    "wal.append.calls_per_transfer": ("count", ("per", "wal.append", "transfer", "transfer")),
    "wal.append.calls_per_balance": ("count", ("per", "wal.append", "balance", "balance")),
    "wal.append.calls_per_audit": ("count", ("per", "wal.append", "audit", "audit")),
    "wal.append.bytes_per_transfer": ("B", ("per", "wal.append:bytes", "transfer", "transfer")),
    "wal.append.bytes_per_balance": ("B", ("per", "wal.append:bytes", "balance", "balance")),
    "wal.append.bytes_per_audit": ("B", ("per", "wal.append:bytes", "audit", "audit")),
    "wal.append.self_us": ("us", ("self_us", "wal.append")),
    "wal.read_records.records": ("count", ("per", "wal.read_records:records", "pass")),
    "wal.read_records.self_ms": ("ms", ("self_ms", "wal.read_records")),
    "sim.emit.calls_per_txn": ("count", ("per", "sim.emit", "txn", "txn")),
    "sim.emit.calls_per_transfer": ("count", ("per", "sim.emit", "transfer", "transfer")),
    "sim.emit.calls_per_balance": ("count", ("per", "sim.emit", "balance", "balance")),
    "sim.emit.calls_per_audit": ("count", ("per", "sim.emit", "audit", "audit")),
    "sim.emit.self_us": ("us", ("self_us", "sim.emit")),
    "coordinator.begin.calls_per_txn": ("count", ("per", "coordinator.begin", "txn", "txn")),
    "coordinator.begin.self_us": ("us", ("self_us", "coordinator.begin")),
    "coordinator.enlist.calls_per_txn": ("count", ("per", "coordinator.enlist", "txn", "txn")),
    "coordinator.enlist.self_us": ("us", ("self_us", "coordinator.enlist")),
    "coordinator.commit.calls_per_txn": ("count", ("per", "coordinator.commit", "txn", "txn")),
    "coordinator.commit.self_us": ("us", ("self_us", "coordinator.commit")),
    "coordinator.replay_log.calls_per_restart": (
        "count", ("per", "coordinator.replay_log", "restart", "restart")),
    "coordinator.replay_log.calls_per_pass": ("count", ("per", "coordinator.replay_log", "pass")),
    "coordinator.replay_log.self_ms": ("ms", ("self_ms", "coordinator.replay_log")),
    "coordinator.recover.self_ms": ("ms", ("self_ms", "coordinator.recover")),
    "resources.prepare.calls_per_txn": ("count", ("per", "resources.prepare", "txn", "txn")),
    "resources.prepare.no_share": ("ratio", ("share", "resources.prepare:no", "resources.prepare", "txn")),
    "resources.prepare.self_us": ("us", ("self_us", "resources.prepare")),
    "resources.commit.self_us": ("us", ("self_us", "resources.commit")),
    "resources.get.self_us": ("us", ("self_us", "resources.get")),
    "resources.put.self_us": ("us", ("self_us", "resources.put")),
    "resources.send.self_us": ("us", ("self_us", "resources.send")),
    "resources.receive.self_us": ("us", ("self_us", "resources.receive")),
    "resources.recover.self_ms": ("ms", ("self_ms", "resources.recover")),
    "records.encode_record.calls_per_invoke": ("count", ("per", "records.encode_record", "invoke")),
    "records.encode_record.self_us": ("us", ("self_us", "records.encode_record")),
    "records.decode_record.calls_per_invoke": ("count", ("per", "records.decode_record", "invoke")),
    "records.decode_record.self_us": ("us", ("self_us", "records.decode_record")),
    "broker.invoke.self_us": ("us", ("self_us", "broker.invoke")),
    "broker.LegacyEndpoint.match.self_us": ("us", ("self_us", "broker.LegacyEndpoint.match")),
    "broker.drain.txns_per_request": ("count", ("per", "coordinator.begin", "request", "txn")),
    "broker.drain.self_us": ("us", ("self_us", "broker.drain")),
    "harness.runs_per_pass": ("count", ("per", "harness.Runner.init", "pass")),
    "harness.log_files_per_pass": ("count", ("per", "wal.LogWriter.init", "pass")),
    "harness.Runner.init.self_ms": ("ms", ("self_ms", "harness.Runner.init")),
    "harness.Runner.run.self_ms": ("ms", ("self_ms", "harness.Runner.run")),
    "model.load_manifest.calls_per_pass": ("count", ("per", "model.load_manifest", "pass")),
    "model.load_manifest.self_ms": ("ms", ("self_ms", "model.load_manifest")),
    "scenario.load_scenario_file.calls_per_pass": (
        "count", ("per", "scenario.load_scenario_file", "pass")),
    "faults.FaultInjector.fire.calls_per_pass": (
        "count", ("per", "faults.FaultInjector.fire", "pass")),
    "process.ProcessEngine.execute.self_us": ("us", ("self_us", "process.ProcessEngine.execute")),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = ("ratio", ("layer", _layer))
PER_LAYER["tracing.overhead_share"] = ("ratio", ("overhead",))


def compute(spans, denominators: dict, units: dict, traced_s: list, untraced_s: list) -> dict:
    """Metric values from the traced rounds.

    `denominators` and `units` (unit name -> Counter) describe one pass; the
    caller has already checked they repeat exactly across traced passes, as
    `spans.round_calls` must.
    """
    calls = spans.round_calls[0]
    n_passes = len(spans.round_calls)
    total_calls: dict = {}
    total_self: dict = {}
    for round_calls, round_self in zip(spans.round_calls, spans.round_self_ns):
        for name, n in round_calls.items():
            total_calls[name] = total_calls.get(name, 0) + n
        for name, ns in round_self.items():
            total_self[name] = total_self.get(name, 0) + ns
    denominators = {
        **denominators,
        "txn": units.get("txn", {}).get("coordinator.begin", 0),
        "invoke": calls["broker.invoke"],
        "pass": 1,
    }
    traced_ns = sum(traced_s) * 1e9

    def ratio(num, den):
        return num / den if den else 0

    out = {}
    for name, (unit, formula) in PER_LAYER.items():
        kind = formula[0]
        if kind == "per":
            counter = units.get(formula[3], {}) if len(formula) > 3 else calls
            value = ratio(counter.get(formula[1], 0), denominators.get(formula[2], 0))
        elif kind == "self_us":
            value = ratio(total_self.get(formula[1], 0), total_calls.get(formula[1], 0)) / 1e3
        elif kind == "self_ms":
            value = total_self.get(formula[1], 0) / n_passes / 1e6
        elif kind == "share":
            counter = units.get(formula[3], {})
            value = ratio(counter.get(formula[1], 0), counter.get(formula[2], 0))
        elif kind == "layer":
            layer_ns = sum(ns for n, ns in total_self.items() if n.split(".")[0] == formula[1])
            value = ratio(layer_ns, traced_ns)
        else:  # overhead
            value = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
        out[name] = {"value": value, "unit": unit}
    return out
