"""oltp: transfers, balance reads and audit receives over two stores and a queue.

One client keeps four transactions in flight and interleaves their steps in
one thread, so optimistic validation meets real conflicts; four in five key
choices fall on a hot spot of 8 accounts per store, which makes about one
transaction attempt in eight abort. An aborted transaction is retried, with
fresh reads, until it commits, so every op completes. The op mix is 60% transfer (get and put one key
in each store, then send one audit message: three participants), 30% balance
(read-only gets on both stores) and 10% audit (receive one audit message).
After the ops, every resource manager and the coordinator crash and come
back, a few times over. Last, the round runs the bundled process_demo.json
scenario once through the harness, so that the traced run also covers the
harness, scenario, model and process modules; that run is checked but not
timed.

Latency counts only the transaction's own calls, from the first begin to
the commit, retries included; time the client spends on the other three in-flight transactions
is left out, so a reader's latency is not diluted by writers' work.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter

from common import WINDOW_OPS, check, restart_cycles

ACCOUNTS = 1000
IN_FLIGHT = 4
RESTARTS = 5
ROUND_OPS = 4000
MAX_ATTEMPTS = 100
HOT_ACCOUNTS = 8
HOT_SHARE = 0.8
MIX = (("transfer", 0.6), ("balance", 0.3), ("audit", 0.1))

LAYERS = ("wal", "sim", "coordinator", "resources", "faults", "harness", "scenario", "model", "process")


class _Txn:
    __slots__ = ("op", "kind", "ka", "kb", "amount", "msg", "ctx", "step", "ns", "x", "y", "status",
                 "counts", "attempts")

    def __init__(self, op) -> None:
        self.op = op
        self.kind, self.ka, self.kb, self.amount, _ = op
        self.ns = 0
        self.attempts = 0
        self.retry()

    def retry(self) -> None:
        """Start a new attempt of the same op; latency keeps accumulating."""
        self.msg = self.op[4]
        self.ctx = self.x = self.y = self.status = None
        self.step = 0
        self.counts = Counter()
        self.attempts += 1


class Workload:
    def __init__(self, tra, seed: int) -> None:
        self.tra = tra
        rng = random.Random(seed)
        keys = [f"acct{i:04d}" for i in range(ACCOUNTS)]
        self.initial_a = {k: str(rng.randrange(1_000, 100_000)) for k in keys}
        self.initial_b = {k: str(rng.randrange(1_000, 100_000)) for k in keys}
        self.total = sum(map(int, self.initial_a.values())) + sum(map(int, self.initial_b.values()))

        def pick() -> str:
            return keys[rng.randrange(HOT_ACCOUNTS)] if rng.random() < HOT_SHARE else rng.choice(keys)

        self.ops = []
        for n in range(ROUND_OPS):
            r = rng.random()
            kind = "transfer" if r < MIX[0][1] else "balance" if r < MIX[0][1] + MIX[1][1] else "audit"
            ka, kb, amount = pick(), pick(), rng.randrange(1, 500)
            self.ops.append((kind, ka, kb, amount, f"xfer {n} {ka}->{kb} {amount}"))
        # which in-flight transaction takes the next step; the same every round
        self.schedule_seed = rng.randrange(2**32)

    def setup(self, rdir: str):
        tra = self.tra
        tracer = tra.Tracer()
        coord = tra.Coordinator(os.path.join(rdir, "coordinator.log"), tracer=tracer)
        a = tra.ManagedStore("a", os.path.join(rdir, "rm-a.log"), tracer=tracer)
        b = tra.ManagedStore("b", os.path.join(rdir, "rm-b.log"), tracer=tracer)
        q = tra.TxnQueue("audit", os.path.join(rdir, "rm-audit.log"), tracer=tracer)
        a.seed(self.initial_a)
        b.seed(self.initial_b)
        for rm in (a, b, q):
            coord.register(rm)
        return coord, a, b, q

    def close(self, world) -> None:
        for part in world:
            part.close()

    def _step(self, t: _Txn, coord, a, b, q) -> bool:
        """Run the transaction's next call; True once it has an outcome."""
        start = time.perf_counter_ns()
        step = t.step
        if step == 0:
            t.ctx = coord.begin(t.kind)
        elif t.kind == "transfer":
            if step == 1:
                t.x = a.get(t.ctx, t.ka)
            elif step == 2:
                t.y = b.get(t.ctx, t.kb)
            elif step == 3:
                a.put(t.ctx, t.ka, str(int(t.x) - t.amount))
            elif step == 4:
                b.put(t.ctx, t.kb, str(int(t.y) + t.amount))
            elif step == 5:
                q.send(t.ctx, t.msg)
            else:
                t.status = coord.commit(t.ctx)
        elif t.kind == "balance":
            if step == 1:
                t.x = a.get(t.ctx, t.ka)
            elif step == 2:
                t.y = b.get(t.ctx, t.kb)
            else:
                t.status = coord.commit(t.ctx)
        elif step == 1:
            t.msg = q.receive(t.ctx)
        else:
            t.status = coord.commit(t.ctx)
        t.ns += time.perf_counter_ns() - start
        t.step += 1
        return t.status is not None

    def round(self, world, spans) -> dict:
        coord, a, b, q = world
        committed_status = self.tra.TxnStatus.COMMITTED
        mirror_a, mirror_b, mirror_q = dict(self.initial_a), dict(self.initial_b), []
        latency = {"transfer": [], "balance": [], "audit": []}
        # "txn": every transaction of the loop, committed or not
        units = {k: Counter() for k in ("txn", "transfer", "balance", "audit", "restart")}
        committed = Counter()
        aborted = 0
        marks = []  # the clock at the loop's start and after every WINDOW_OPS committed ops

        def finish(t: _Txn) -> bool:
            """Account for the attempt that just ended; False if it is retried."""
            nonlocal aborted
            units["txn"].update(t.counts)
            if t.status is not committed_status:
                aborted += 1
                check(t.attempts < MAX_ATTEMPTS, f"oltp: {t.op[4]!r} aborted {MAX_ATTEMPTS} times")
                t.retry()
                return False
            committed[t.kind] += 1
            if committed.total() % WINDOW_OPS == 0:
                marks.append(time.perf_counter())
            latency[t.kind].append(t.ns)
            units[t.kind].update(t.counts)
            if t.kind == "transfer":
                mirror_a[t.ka] = str(int(t.x) - t.amount)
                mirror_b[t.kb] = str(int(t.y) + t.amount)
                mirror_q.append(t.msg)
            elif t.kind == "balance":
                check(
                    (t.x, t.y) == (mirror_a[t.ka], mirror_b[t.kb]),
                    f"oltp: committed balance read {t.ka}/{t.kb} differs from the mirror",
                )
            elif t.msg is not None:
                check(t.msg in mirror_q, f"oltp: received {t.msg!r}, never committed or taken twice")
                mirror_q.remove(t.msg)
            return True

        def step(slot: int) -> None:
            t = slots[slot]
            if spans is not None:
                spans.unit = t.counts
            if self._step(t, coord, a, b, q) and finish(t):
                slots[slot] = None

        schedule = random.Random(self.schedule_seed)
        slots: list[_Txn | None] = [None] * IN_FLIGHT
        marks.append(time.perf_counter())
        for op in self.ops:
            i = schedule.randrange(IN_FLIGHT)
            while slots[i] is not None:
                step(i)
                i = schedule.randrange(IN_FLIGHT)
            slots[i] = _Txn(op)
        for i in range(IN_FLIGHT):  # no ops left: finish what is still open, one at a time
            while slots[i] is not None:
                step(i)
        if spans is not None:
            spans.unit = None
        check(sum(committed.values()) == len(self.ops), "oltp: not every op committed")

        expected = (mirror_a, mirror_b, mirror_q)
        self._check_state(world, expected, "after the ops")
        restart_s = restart_cycles(
            coord, (a, b, q), RESTARTS, spans, units["restart"],
            lambda cycle: self._check_state(world, expected, f"after restart {cycle}"),
        )
        report = self.tra.harness.run_scenario(self.tra.fixture_path("process_demo.json"))
        check(report["ok"], f"oltp: run_scenario(process_demo.json) failed: {report['errors']}")

        return {
            "heavy_ns": latency["transfer"],
            "light_ns": latency["balance"],
            "restart_s": restart_s,
            "attempted": len(self.ops),
            "window_s": [b - a for a, b in zip(marks, marks[1:])],
            "denominators": {**committed, "aborted": aborted, "restart": RESTARTS},
            "units": units,
        }

    def _check_state(self, world, expected, when: str) -> None:
        _, a, b, q = world
        mirror_a, mirror_b, mirror_q = expected
        snapshots = (a.committed_snapshot(), b.committed_snapshot())
        check(snapshots == (mirror_a, mirror_b), f"oltp: stores differ from the mirror {when}")
        total = sum(int(v) for snap in snapshots for v in snap.values())
        check(total == self.total, f"oltp: total balance not conserved {when}")
        check(list(q.peek()) == mirror_q, f"oltp: audit queue differs from the mirror {when}")
        check(q.conservation_holds(), f"oltp: audit queue conservation fails {when}")
