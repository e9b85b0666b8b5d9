"""broker: direct and queued invocations of a generated two-stage broker table.

The table maps getCustomerView onto three legacy calls: `cus` and `pol` in
the first stage, and `bal`, which needs the account number `cus` returns, in
the second. Fields are text, integer and decimal. Each endpoint's script has
one rule per customer (16) and a catch-all. Exactly a quarter of the requests
are queued, so every seed builds the same amount of history.

Three requests in four call `MessageBroker.invoke` directly. The fourth goes
the transactional way: `invoke_via_queue` and commit, `drain`, then the
reply is received and committed in a transaction of its own. After the
requests, the coordinator and both queues crash and come back, a few times.
"""

from __future__ import annotations

import json
import os
import random
import string
import time
from collections import Counter
from decimal import Decimal

from common import WINDOW_OPS, check, restart_cycles

CUSTOMERS = 16
RESTARTS = 5
ROUND_REQUESTS = 3000
QUEUED_SHARE = 0.25
SERVICE = "getCustomerView"

LAYERS = ("wal", "sim", "coordinator", "resources", "records", "broker", "faults")


def _text(name, offset, length):
    return {"name": name, "offset": offset, "length": length, "kind": "text"}


def _table() -> dict:
    return {
        "service": {
            "name": SERVICE,
            "request": [{"name": "custId", "kind": "text"}],
            "response": [
                {"name": "name", "kind": "text"},
                {"name": "tier", "kind": "integer"},
                {"name": "policyCount", "kind": "integer"},
                {"name": "balance", "kind": "decimal"},
            ],
        },
        "calls": [
            {
                "call_id": "cus",
                "endpoint": "CUSTDB",
                "request_spec": {"record_length": 12, "fields": [_text("func", 0, 4), _text("custId", 4, 8)]},
                "request_map": {"func": "lit:CUSQ", "custId": "req.custId"},
                "response_spec": {
                    "record_length": 32,
                    "fields": [
                        _text("name", 0, 20),
                        _text("acct", 20, 8),
                        {"name": "tier", "offset": 28, "length": 2, "kind": "integer"},
                        _text("rc", 30, 2),
                    ],
                },
            },
            {
                "call_id": "pol",
                "endpoint": "POLADM",
                "request_spec": {"record_length": 12, "fields": [_text("func", 0, 4), _text("custId", 4, 8)]},
                "request_map": {"func": "lit:POLQ", "custId": "req.custId"},
                "response_spec": {
                    "record_length": 6,
                    "fields": [
                        {"name": "policies", "offset": 0, "length": 4, "kind": "integer"},
                        _text("rc", 4, 2),
                    ],
                },
            },
            {
                "call_id": "bal",
                "endpoint": "LEDGER",
                "depends_on": ["cus"],
                "request_spec": {"record_length": 10, "fields": [_text("op", 0, 2), _text("acct", 2, 8)]},
                "request_map": {"op": "lit:BQ", "acct": "call:cus.acct"},
                "response_spec": {
                    "record_length": 12,
                    "fields": [
                        {"name": "balance", "offset": 0, "length": 10, "kind": "decimal", "scale": 2},
                        _text("rc", 10, 2),
                    ],
                },
            },
        ],
        "aggregate": {
            "name": ["call:cus.name"],
            "tier": ["call:cus.tier"],
            "policyCount": ["call:pol.policies"],
            "balance": ["call:bal.balance"],
        },
    }


class Workload:
    def __init__(self, tra, seed: int) -> None:
        self.tra = tra
        self.seed = seed
        rng = random.Random(seed)
        ids = rng.sample(range(10_000_000), CUSTOMERS)
        self.expected = {}  # custId -> the aggregate the table must produce
        self.expected_json = {}
        scripts = {"CUSTDB": [], "POLADM": [], "LEDGER": []}
        for n in ids:
            cust, acct = f"C{n:07d}", f"A{rng.randrange(10_000_000):07d}"
            name = " ".join(
                "".join(rng.choices(string.ascii_uppercase, k=rng.randrange(3, 9))) for _ in range(2)
            )
            tier, policies = rng.randrange(1, 10), rng.randrange(0, 100)
            balance = Decimal(rng.randrange(0, 10**9)).scaleb(-2)
            self.expected[cust] = {"name": name, "tier": tier, "policyCount": policies, "balance": balance}
            # a queued reply carries the response as JSON, decimals as strings
            self.expected_json[cust] = json.loads(json.dumps(self.expected[cust], default=str))
            scripts["CUSTDB"].append(
                {"match": {"custId": cust}, "delay": rng.randrange(1, 20),
                 "reply": {"name": name, "acct": acct, "tier": tier, "rc": "OK"}})
            scripts["POLADM"].append(
                {"match": {"custId": cust}, "delay": rng.randrange(1, 20),
                 "reply": {"policies": policies, "rc": "OK"}})
            scripts["LEDGER"].append(
                {"match": {"acct": acct}, "delay": rng.randrange(1, 20),
                 "reply": {"balance": str(balance), "rc": "OK"}})
        scripts["CUSTDB"].append(
            {"match": {}, "reply": {"name": "UNKNOWN", "acct": "A0000000", "tier": 0, "rc": "NF"}})
        scripts["POLADM"].append({"match": {}, "reply": {"policies": 0, "rc": "NF"}})
        scripts["LEDGER"].append({"match": {}, "reply": {"balance": "0", "rc": "NF"}})
        self.endpoints = [{"endpoint_id": ep, "script": rules} for ep, rules in scripts.items()]
        customers = sorted(self.expected)
        queued = set(rng.sample(range(ROUND_REQUESTS), round(QUEUED_SHARE * ROUND_REQUESTS)))
        self.requests = [(n in queued, rng.choice(customers)) for n in range(ROUND_REQUESTS)]

    def setup(self, rdir: str):
        tra = self.tra
        tracer = tra.Tracer()
        coord = tra.Coordinator(os.path.join(rdir, "coordinator.log"), tracer=tracer)
        queues = {
            name: tra.TxnQueue(name, os.path.join(rdir, f"rm-{name}.log"), tracer=tracer)
            for name in ("requests", "replies")
        }
        for q in queues.values():
            coord.register(q)
        broker = tra.MessageBroker(tracer=tracer, rng=random.Random(self.seed))
        for doc in self.endpoints:
            broker.register_adapter(tra.Adapter(tra.LegacyEndpoint.from_doc(doc)))
        broker.register_table(tra.load_table(_table()))
        return coord, queues, broker

    def close(self, world) -> None:
        coord, queues, _ = world
        coord.close()
        for q in queues.values():
            q.close()

    def round(self, world, spans) -> dict:
        coord, queues, broker = world
        requests, replies = queues["requests"], queues["replies"]
        committed = self.tra.TxnStatus.COMMITTED
        txn_units = Counter()  # every transaction of the loop: all are queued-path ones
        direct_ns, queued_ns = [], []
        clock = time.perf_counter_ns

        marks = [time.perf_counter()]  # and after every WINDOW_OPS requests
        for n, (queued, cust) in enumerate(self.requests):
            if n and n % WINDOW_OPS == 0:
                marks.append(time.perf_counter())
            if not queued:
                start = clock()
                response = broker.invoke(SERVICE, {"custId": cust})
                direct_ns.append(clock() - start)
                check(response == self.expected[cust], f"broker: direct response for {cust} is {response!r}")
                continue
            if spans is not None:
                spans.unit = txn_units
            start = clock()
            ctx = coord.begin("client")
            broker.invoke_via_queue(ctx, requests, SERVICE, {"custId": cust}, "replies")
            sent = coord.commit(ctx)
            served = broker.drain(coord, requests, queues.__getitem__)
            ctx = coord.begin("client")
            reply = replies.receive(ctx)
            received = coord.commit(ctx)
            queued_ns.append(clock() - start)
            if spans is not None:
                spans.unit = None
            check(sent is committed and received is committed and served == 1,
                  f"broker: queued request for {cust} was not served exactly once")
            doc = json.loads(reply)
            check(doc["ok"] and doc["response"] == self.expected_json[cust],
                  f"broker: queued reply for {cust} differs from the direct response")
        marks.append(time.perf_counter())

        self._check_queues(queues, "after the requests")
        restart_units = Counter()
        restart_s = restart_cycles(
            coord, tuple(queues.values()), RESTARTS, spans, restart_units,
            lambda cycle: self._check_queues(queues, f"after restart {cycle}"),
        )

        return {
            "heavy_ns": queued_ns,
            "light_ns": direct_ns,
            "restart_s": restart_s,
            "attempted": len(self.requests),
            "window_s": [b - a for a, b in zip(marks, marks[1:])],
            "denominators": {"request": len(queued_ns), "restart": RESTARTS},
            "units": {"txn": txn_units, "restart": restart_units},
        }

    @staticmethod
    def _check_queues(queues, when: str) -> None:
        for name, q in queues.items():
            check(q.depth() == 0, f"broker: queue {name} is not empty {when}")
            check(q.conservation_holds(), f"broker: queue {name} conservation fails {when}")
