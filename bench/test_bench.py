"""Tests of the benchmark itself: exact counters, output checks, watchdog and
the result format. Run with `python -m pytest bench`."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
import run
import wl_broker
import wl_oltp
from common import END_TO_END, ROOT, CheckFailed, Rounds, import_tra
from spans import Spans

tra = import_tra()


def test_two_participant_put_send_commit_counts(tmp_path):
    """The bundled put+send shape: 9 log appends and 18 trace events."""
    tracer = tra.Tracer()
    coord = tra.Coordinator(str(tmp_path / "coordinator.log"), tracer=tracer)
    store = tra.ManagedStore("store", str(tmp_path / "store.log"), tracer=tracer)
    queue = tra.TxnQueue("queue", str(tmp_path / "queue.log"), tracer=tracer)
    coord.register(store)
    coord.register(queue)
    spans = Spans()
    spans.install()
    try:
        ctx = coord.begin("client")
        store.put(ctx, "alice", "60")
        queue.send(ctx, "transfer 40")
        assert coord.commit(ctx) is tra.TxnStatus.COMMITTED
    finally:
        spans.uninstall()
    lines = sum(len((tmp_path / f).read_text().splitlines()) for f in os.listdir(tmp_path))
    assert lines == 9
    assert len(tracer.events) == 18
    assert spans.calls["wal.append"] == 9
    assert spans.calls["sim.emit"] == 18


def _traced_round(seed: int, tmp_path, name: str):
    workload = wl_oltp.Workload(tra, seed)
    spans = Spans()
    rounds = Rounds(workload, str(tmp_path / name))
    os.makedirs(rounds.workdir)
    rounds.one()
    rounds.one(spans)
    spans.end_round(True)
    return rounds, spans


def test_oltp_counts_per_kind_are_exact_and_repeat(tmp_path):
    first, spans = _traced_round(7, tmp_path, "a")
    again, spans_again = _traced_round(7, tmp_path, "b")
    traced = first.results[1]
    assert traced["units"] == again.results[1]["units"]
    assert spans.round_calls == spans_again.round_calls
    assert first.results[0]["denominators"] == traced["denominators"]
    metrics = layers.compute(spans, traced["denominators"], traced["units"], [1.0], [1.0])
    expected = {
        "wal.append.calls_per_transfer": 12,
        "wal.append.calls_per_balance": 9,
        "wal.append.calls_per_audit": 6,
        "sim.emit.calls_per_transfer": 23,
        "sim.emit.calls_per_balance": 17,
        "sim.emit.calls_per_audit": 13,
        "coordinator.replay_log.calls_per_restart": 2,
    }
    assert {k: metrics[k]["value"] for k in expected} == expected


def test_oltp_check_catches_a_corrupted_store(tmp_path):
    workload = wl_oltp.Workload(tra, 3)
    world = workload.setup(str(tmp_path))
    try:
        expected = (dict(workload.initial_a), dict(workload.initial_b), [])
        workload._check_state(world, expected, "before any op")
        _, a, _, _ = world
        a._data["acct0000"] = str(int(a._data["acct0000"]) + 1)
        with pytest.raises(CheckFailed):
            workload._check_state(world, expected, "after corruption")
    finally:
        workload.close(world)


def test_watchdog_ends_a_hung_run_as_failed(monkeypatch, capsys):
    def hang(self, world, spans):
        while True:
            pass

    monkeypatch.setattr(run, "watchdog_limit", lambda seconds: 1)
    monkeypatch.setattr(wl_broker.Workload, "round", hang)
    args = run.argparse.Namespace(workload="broker", seed=1, seconds=1, trace=0)
    assert run.run_one(args) == 3
    out, err = capsys.readouterr()
    assert "workload broker exceeded" in err
    assert out == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    if not trace:
        assert {d["name"]: d["unit"] for d in declared} == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert set(layers.PER_LAYER) == set(result["metrics"])
