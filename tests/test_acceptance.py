"""Whole-system acceptance gate.

One test per promised behavior, each printing a single criterion line
(run with -s to see them on a green suite). Every check is scored by an
oracle built independently of the code under test: a plain-list queue
mirror, permutation replay of committed writes, a from-scratch log
parser, and generated broker tables evaluated two ways.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from decimal import Decimal

from tra import (
    Adapter,
    Coordinator,
    FaultSpec,
    FieldSpec,
    LegacyEndpoint,
    ManagedStore,
    MessageBroker,
    MessageSpec,
    Runner,
    Tracer,
    TxnQueue,
    TxnStatus,
    crash_sweep,
    decode_record,
    encode_record,
    fixture_path,
    load_scenario,
    load_scenario_file,
    load_table,
    render_report,
    run_scenario,
    validate_layering,
)
from tra.broker import ScriptRule
from tra.faults import ALL_POINTS, COORDINATOR_TARGET
from tra.model import load_edges_file, load_manifest_file


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: every crash point in the transfer scenario resolves atomically --------


def test_transfer_crash_matrix_is_atomic():
    t0 = time.monotonic()
    result = crash_sweep(fixture_path("transfer.json"))
    elapsed = time.monotonic() - t0
    rows = result["combinations"]
    atomic = sum(1 for r in rows if r["ok"])
    ok = result["ok"] and len(rows) == 20 and atomic == 20 and elapsed < 10.0
    _criterion(1, ok, f"{atomic}/{len(rows)} crash combinations atomic in {elapsed:.2f}s")


# -- 2: staged sends stay invisible, rollback leaves no trace -----------------


def _drive_queue_scenario(seed: int, workdir: str) -> int:
    """Random send/receive/commit/rollback script against one queue, checked
    after every action against a plain python list kept by the same rules."""
    rng = random.Random(seed)
    tracer = Tracer()
    coord = Coordinator(os.path.join(workdir, f"coord-{seed}.log"), tracer=tracer)
    queue = TxnQueue("q", os.path.join(workdir, f"queue-{seed}.log"), tracer=tracer)
    coord.register(queue)
    mirror = [f"m{i}" for i in range(rng.randrange(4))]
    queue.seed(list(mirror))
    live: dict[int, tuple] = {}
    violations = 0
    sent = 0

    def settle(txn_id: int, commit: bool) -> None:
        nonlocal violations
        ctx, taken, staged = live.pop(txn_id)
        status = coord.commit(ctx) if commit else coord.rollback(ctx)
        if status is TxnStatus.COMMITTED:
            mirror.extend(staged)
        else:
            mirror[0:0] = taken

    for _ in range(rng.randrange(8, 16)):
        op = rng.choice(("begin", "send", "send", "receive", "receive", "commit", "rollback"))
        if op == "begin":
            if len(live) < 3:
                ctx = coord.begin("driver")
                live[ctx.id] = (ctx, [], [])
        elif live:
            txn_id = rng.choice(sorted(live))
            ctx, taken, staged = live[txn_id]
            if op == "send":
                sent += 1
                msg = f"s{sent}"
                queue.send(ctx, msg)
                staged.append(msg)
            elif op == "receive":
                got = queue.receive(ctx)
                want = mirror.pop(0) if mirror else None
                if got != want:
                    violations += 1
                if got is not None:
                    taken.append(got)
            else:
                settle(txn_id, op == "commit")
        if queue.peek() != tuple(mirror):
            violations += 1
    for txn_id in sorted(live):
        settle(txn_id, rng.random() < 0.5)
        if queue.peek() != tuple(mirror):
            violations += 1
    if not queue.conservation_holds():
        violations += 1
    coord.close()
    queue.close()
    return violations


def test_staged_sends_invisible_and_rollback_clean(tmp_path):
    t0 = time.monotonic()
    bad = sum(_drive_queue_scenario(seed, str(tmp_path)) for seed in range(1000))
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 30.0
    _criterion(2, ok, f"1000 randomized queue scripts, {bad} visibility violations in {elapsed:.1f}s")


# -- 3: committed writes always equal some serial order -----------------------


def _drive_store_seed(seed: int, workdir: str) -> bool:
    """Interleave up to 4 transactions over up to 4 keys, commit in a random
    order, then replay every permutation of the committed write logs on a
    plain dict. Some permutation must reproduce the store exactly."""
    rng = random.Random(seed)
    tracer = Tracer()
    coord = Coordinator(os.path.join(workdir, f"coord-{seed}.log"), tracer=tracer)
    store = ManagedStore("kv", os.path.join(workdir, f"store-{seed}.log"), tracer=tracer)
    coord.register(store)
    keys = ("a", "b", "c", "d")[: rng.randrange(2, 5)]
    initial = {k: "seed" for k in keys if rng.random() < 0.6}
    store.seed(dict(initial))

    n = rng.randrange(2, 5)
    txns = [coord.begin(f"w{i}") for i in range(n)]
    budget = [rng.randrange(1, 5) for _ in range(n)]
    writes: list[list[tuple]] = [[] for _ in range(n)]
    pending = list(range(n))
    while pending:
        i = rng.choice(pending)
        key = rng.choice(keys)
        op = rng.choice(("get", "put", "put", "delete"))
        if op == "get":
            store.get(txns[i], key)
        elif op == "put":
            value = f"t{i}o{len(writes[i])}"
            store.put(txns[i], key, value)
            writes[i].append(("put", key, value))
        else:
            store.delete(txns[i], key)
            writes[i].append(("del", key, None))
        budget[i] -= 1
        if budget[i] == 0:
            pending.remove(i)
    order = list(range(n))
    rng.shuffle(order)
    committed = [i for i in order if coord.commit(txns[i]) is TxnStatus.COMMITTED]
    final = store.committed_snapshot()
    coord.close()
    store.close()

    for perm in itertools.permutations(committed):
        state = dict(initial)
        for i in perm:
            for op, key, value in writes[i]:
                if op == "put":
                    state[key] = value
                else:
                    state.pop(key, None)
        if state == final:
            return True
    return False


def test_committed_state_matches_a_serial_order(tmp_path):
    t0 = time.monotonic()
    failures = sum(0 if _drive_store_seed(seed, str(tmp_path)) else 1 for seed in range(500))
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60.0
    _criterion(3, ok, f"500 interleaved workloads, {failures} non-serializable outcomes in {elapsed:.1f}s")


# -- 4: the coordinator log alone reconstructs every reported outcome ---------


def _replay_outcomes(path: str) -> tuple[dict, set]:
    """Terminal status per transaction, parsed straight off the log file."""
    statuses: dict[str, str] = {}
    ended: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            kind, txn = parts[0], parts[1]
            statuses.setdefault(txn, "active")
            if kind == "COMMIT":
                statuses[txn] = "committed"
            elif kind == "ABORT":
                statuses[txn] = "aborted"
            elif kind == "END":
                ended.add(txn)
    return statuses, ended


def test_log_replay_matches_reported_outcomes():
    scenario = load_scenario_file(fixture_path("transfer.json"))
    mismatches = []
    combos = 0
    for target in (COORDINATOR_TARGET, "accounts-a", "accounts-b"):
        for point in ALL_POINTS:
            combos += 1
            runner = Runner(scenario, faults=[FaultSpec(target, point)])
            try:
                report = runner.run()
                statuses, ended = _replay_outcomes(runner.coordinator.log_path)
            finally:
                runner.close()
            if statuses != report["log"]:
                mismatches.append(f"{target}@{point.value}: {statuses} != {report['log']}")
            if set(statuses) != ended:
                mismatches.append(f"{target}@{point.value}: unsettled {set(statuses) - ended}")
            for name, info in report["transactions"].items():
                if statuses.get(str(info["id"])) != info["status"]:
                    mismatches.append(f"{target}@{point.value}: {name} drifted")
    ok = not mismatches and combos == 15
    detail = f"independent log replay agrees with all {combos} faulted-run reports"
    if mismatches:
        detail = "; ".join(mismatches[:3])
    _criterion(4, ok, detail)


# t1 is still open when a fault in t2 stops the script
_LEFT_OPEN = {
    "name": "left-open",
    "stores": ["a", "b"],
    "actions": [
        {"op": "begin", "txn": "t1"},
        {"op": "put", "txn": "t1", "store": "a", "key": "k", "value": "1"},
        {"op": "begin", "txn": "t2"},
        {"op": "put", "txn": "t2", "store": "b", "key": "k", "value": "2"},
        {"op": "commit", "txn": "t2"},
        {"op": "commit", "txn": "t1"},
    ],
}


def test_every_faulted_run_settles_every_logged_transaction():
    """Criterion 4 over every bundled scenario and one that a fault stops
    with a transaction open: under each declared target and crash point, the
    independent parser finds an END for every logged transaction, and the
    log agrees with the report."""
    bundled = ("transfer", "cross_component", "process_demo", "broker_demo")
    scenarios = [load_scenario_file(fixture_path(f"{name}.json")) for name in bundled]
    scenarios.append(load_scenario(_LEFT_OPEN))
    mismatches = []
    runs = 0
    for scenario in scenarios:
        for target in (COORDINATOR_TARGET, *(r.name for r in scenario.stores + scenario.queues)):
            for point in ALL_POINTS:
                runs += 1
                where = f"{scenario.name} {target}@{point.value}"
                runner = Runner(scenario, faults=[FaultSpec(target, point)])
                try:
                    report = runner.run()
                    statuses, ended = _replay_outcomes(runner.coordinator.log_path)
                finally:
                    runner.close()
                if statuses != report["log"]:
                    mismatches.append(f"{where}: {statuses} != {report['log']}")
                if set(statuses) != ended:
                    mismatches.append(f"{where}: unsettled {set(statuses) - ended}")
    ok = not mismatches and runs == 80
    detail = f"every transaction logged in all {runs} faulted runs of 5 scenarios ends settled"
    if mismatches:
        detail = "; ".join(mismatches[:3])
    _criterion(4, ok, detail)


# -- 5: staged dispatch == sequential dispatch, codec round-trips --------------

_LETTERS = "ABCDEFGHJKMNPQRSTUVWXYZ"


def _word(rng, lo=1, hi=4) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randrange(lo, hi + 1)))


def _random_table(rng, idx: int):
    """A random but always-well-formed table doc: 1-4 calls, random upstream
    dependencies, scripted endpoints that reply to anything, and widths
    chosen so every value that can flow through a mapping fits."""
    req_fields = [
        (f"rq{i}", rng.choice(("text", "integer", "decimal")))
        for i in range(rng.randrange(1, 3))
    ]
    calls = []
    endpoints = []
    produced: list[tuple] = []  # (call_id, field, kind, scale)
    for c in range(rng.randrange(1, 5)):
        cid = f"c{c}"
        deps = sorted(
            rng.sample([f"c{j}" for j in range(c)], k=rng.randrange(0, min(c, 2) + 1))
        )

        resp_fields: list[dict] = []
        reply: dict = {}
        offset = 0
        for j in range(rng.randrange(1, 4)):
            fname = f"r{c}x{j}"
            kind = rng.choice(("text", "integer", "decimal"))
            if kind == "text":
                length, scale = rng.randrange(4, 9), 0
                reply[fname] = _word(rng)
            elif kind == "integer":
                length, scale = rng.randrange(4, 7), 0
                reply[fname] = rng.randrange(1000)
            else:
                scale = rng.randrange(0, 3)
                length = rng.randrange(6, 9)
                reply[fname] = Decimal(rng.randrange(10000)).scaleb(-scale)
            resp_fields.append(
                {"name": fname, "offset": offset, "length": length, "kind": kind, "scale": scale}
            )
            offset += length
            produced.append((cid, fname, kind, scale))

        choices = [(f"req.{name}", kind, 0) for name, kind in req_fields]
        choices.append(("lit", "", 0))
        choices += [(f"call:{d}.{f}", k, s) for d, f, k, s in produced if d in deps]
        req_spec_fields: list[dict] = []
        request_map: dict = {}
        offset = 0
        for j in range(rng.randrange(1, 3)):
            fname = f"q{c}x{j}"
            source, kind, src_scale = rng.choice(choices)
            if source == "lit":
                kind = rng.choice(("text", "integer", "decimal"))
                src_scale = 0
                source = f"lit:{_word(rng)}" if kind == "text" else f"lit:{rng.randrange(1000)}"
            if kind == "text":
                length, scale = rng.randrange(6, 11), 0
            elif kind == "integer":
                length, scale = rng.randrange(6, 9), 0
            else:
                # re-encoding scales units up by 10**(scale - src_scale)
                scale = rng.randrange(src_scale, 4)
                length = rng.randrange(9, 12)
            req_spec_fields.append(
                {"name": fname, "offset": offset, "length": length, "kind": kind, "scale": scale}
            )
            offset += length
            request_map[fname] = source
        calls.append(
            {
                "call_id": cid,
                "endpoint": f"EP{idx}X{c}",
                "request_spec": {"record_length": offset, "fields": req_spec_fields},
                "request_map": request_map,
                "response_spec": {
                    "record_length": sum(f["length"] for f in resp_fields),
                    "fields": resp_fields,
                },
                "depends_on": deps,
            }
        )
        endpoints.append(
            LegacyEndpoint(
                f"EP{idx}X{c}",
                script=[ScriptRule(match={}, delay=rng.randrange(0, 9), reply=reply)],
            )
        )

    k = rng.randrange(1, min(3, len(produced)) + 1)
    picked = rng.sample(produced, k)
    response = [{"name": f"out{j}", "kind": kind} for j, (_, _, kind, _) in enumerate(picked)]
    aggregate = {
        f"out{j}": [f"call:{cid}.{fname}"] for j, (cid, fname, _, _) in enumerate(picked)
    }
    doc = {
        "service": {
            "name": f"svc{idx}",
            "transactional": False,
            "request": [{"name": n, "kind": kd} for n, kd in req_fields],
            "response": response,
        },
        "calls": calls,
        "aggregate": aggregate,
    }
    request = {}
    for name, kind in req_fields:
        if kind == "text":
            request[name] = _word(rng)
        elif kind == "integer":
            request[name] = rng.randrange(1000)
        else:
            request[name] = Decimal(rng.randrange(1000))
    return doc, endpoints, request


def _random_record(rng):
    fields = []
    values: dict = {}
    offset = 0
    for i in range(rng.randrange(1, 5)):
        offset += rng.randrange(0, 3)
        kind = rng.choice(("text", "integer", "decimal"))
        length = rng.randrange(1, 9)
        scale = 0
        if kind == "text":
            value: object = "".join(
                chr(rng.randrange(33, 127)) for _ in range(rng.randrange(0, length + 1))
            )
        elif kind == "integer":
            value = rng.randrange(0, 10 ** length)
            if length > 1 and rng.random() < 0.3:
                value = -rng.randrange(0, 10 ** (length - 1))
        else:
            scale = rng.randrange(0, length)
            units = rng.randrange(0, 10 ** length)
            if length > 1 and rng.random() < 0.3:
                units = -rng.randrange(0, 10 ** (length - 1))
            value = Decimal(units).scaleb(-scale)
        f = FieldSpec(name=f"f{i}", offset=offset, length=length, kind=kind, scale=scale)
        fields.append(f)
        values[f.name] = value
        offset = f.end
    spec = MessageSpec(record_length=offset + rng.randrange(0, 3), fields=tuple(fields))
    return spec, values


def test_dispatch_order_and_codec_round_trip():
    rng = random.Random(20260819)
    dispatch_bad = 0
    for idx in range(200):
        doc, endpoints, request = _random_table(rng, idx)
        broker = MessageBroker(tracer=Tracer(), rng=random.Random(idx))
        for ep in endpoints:
            broker.register_adapter(Adapter(ep))
        broker.register_table(load_table(doc))
        if broker.invoke(doc["service"]["name"], request) != broker.invoke_sequential(
            doc["service"]["name"], request
        ):
            dispatch_bad += 1
    codec_bad = 0
    for _ in range(1000):
        spec, values = _random_record(rng)
        if decode_record(spec, encode_record(spec, values)) != values:
            codec_bad += 1
    ok = dispatch_bad == 0 and codec_bad == 0
    _criterion(
        5,
        ok,
        f"200 generated tables dispatch identically both ways, "
        f"1000 record round-trips clean ({dispatch_bad + codec_bad} mismatches)",
    )


# -- 6: the labeled edge fixture is flagged exactly ----------------------------


def test_layer_rules_flag_exactly_the_bad_edges():
    model = load_manifest_file(fixture_path("model.json"))
    edges = load_edges_file(fixture_path("edges.json"))
    violations = validate_layering(model, edges)
    expected = {
        ("end-client-skip", "Customer.customer_ui -> Customer.customer_data.writeCustomer"),
        ("resource-touch", "Customer.customer_service -> Customer.customer_db.write"),
        ("upward-call", "Customer.customer_data -> Customer.customer_service.getCustomer"),
        ("cross-component-caller", "Customer.customer_ui -> Contract.contract_service.createContract"),
        ("not-exported", "Customer.customer_process -> Contract.contract_data.readContract"),
        ("cross-component-caller", "Customer.customer_data -> Contract.contract_data.writeContract"),
    }
    got = {(v.rule, str(v.edge)) for v in violations}
    ok = len(edges) == 12 and got == expected and len(violations) == 6
    detail = f"{len(violations)} of {len(edges)} labeled edges flagged, sets match exactly"
    if not ok:
        detail = f"flagged set diverged: {sorted(got ^ expected)}"
    _criterion(6, ok, detail)


# -- 7: a call spanning two components commits or aborts as one ----------------


def test_two_component_commit_is_all_or_nothing():
    result = crash_sweep(fixture_path("cross_component.json"))
    rows = result["combinations"]
    outcomes = {r["outcome"] for r in rows}
    ok = (
        result["ok"]
        and len(rows) == 15
        and all(r["ok"] for r in rows)
        and outcomes == {"committed", "aborted"}
        and result["commit_state"]["stores"]
        == {"customer-db": {"cust-9": "NEW"}, "contract-db": {"ctr-77": "gold"}}
        and result["abort_state"]["stores"]
        == {"customer-db": {"cust-9": "OLD"}, "contract-db": {}}
    )
    _criterion(
        7,
        ok,
        "both stores always land together: "
        f"{sum(1 for r in rows if r['outcome'] == 'committed')} committed, "
        f"{sum(1 for r in rows if r['outcome'] == 'aborted')} aborted, 0 split",
    )


# -- 8: same seed, same bytes ---------------------------------------------------


def test_same_seed_reports_are_byte_identical():
    names = ("transfer.json", "cross_component.json", "broker_demo.json", "process_demo.json")
    diverged = []
    for name in names:
        first = render_report(run_scenario(fixture_path(name)), mode="structured")
        second = render_report(run_scenario(fixture_path(name)), mode="structured")
        if first.encode() != second.encode():
            diverged.append(name)
    fault = [FaultSpec.parse("coordinator@after_vote_before_decision")]
    repeats = [
        render_report(
            run_scenario(fixture_path("transfer.json"), faults=fault),
            mode="structured",
        )
        for _ in range(2)
    ]
    if repeats[0].encode() != repeats[1].encode():
        diverged.append("transfer.json under fault")
    ok = not diverged
    detail = "repeat runs byte-identical for 4 bundled scenarios plus a faulted rerun"
    if diverged:
        detail = f"reports diverged: {diverged}"
    _criterion(8, ok, detail)
