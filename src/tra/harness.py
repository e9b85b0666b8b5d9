"""Scenario runner, deterministic reports, and the crash sweep.

The runner builds the world a scenario declares, executes the action script,
and emits a structured report: final resource states, transaction outcomes,
assertion results, the full event trace, and the coordinator log's view of
every transaction. Identical (scenario, seed, faults) inputs produce byte
identical structured reports.

crash_sweep() is the atomicity oracle: it runs the scenario once cleanly to
capture the committed state, once with the final commit turned into a
rollback to capture the aborted state, then once per (target, crash point)
combination with a fault armed at that final commit. Every faulted run, after
recovery, must land exactly on one of the two captured states.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import asdict

from .broker import Adapter, LegacyEndpoint, MessageBroker
from .coordinator import DEFAULT_PREPARE_BUDGET, Coordinator, replay_log
from .errors import ScenarioError, TraError
from .faults import ALL_POINTS, COORDINATOR_TARGET, CoordinatorCrash, FaultInjector, FaultSpec
from .model import load_manifest  # noqa: F401 -- unused; bench/spans.py wraps this name here
from .process import ProcessEngine
from .resources import ManagedStore, TxnQueue
from .scenario import ACTION, SOURCE_FIELDS, BindingDecl, Scenario, load_scenario_file
from .sim import Tracer
from .source import MISSING, resolve


def _stringify(value):
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


# op -> how its `expect` assertion reads; the op's handler returns what it observed
EXPECT_DESC = {
    "get": "get {store}[{key}] == {expect!r}",
    "receive": "receive {queue} == {expect!r}",
    "propagate": "propagate {component}.{service} response",
    "commit": "commit {txn} -> {expect}",
    "invoke": "invoke {service} response",
    "run_process": "process {process} -> {expect}",
}

# ops that commit work, after which the scenario's request queues are served
SERVING_OPS = ("commit", "run_process")

# a binding effect runs the script op of its name, except `call`, which propagates
EFFECT_OPS = {"call": "propagate"}


class Runner:
    """One scenario execution in an isolated working directory."""

    def __init__(
        self,
        scenario: Scenario,
        workdir: str,
        seed: int | None = None,
        faults: list[FaultSpec] | None = None,
        arm: str = "always",
    ) -> None:
        for spec in faults or ():
            if scenario.names.get(spec.target) not in ("coordinator", "store", "queue"):
                raise ScenarioError(
                    f"fault target {spec.target!r} is not the coordinator or a declared "
                    "store/queue (endpoint behavior is scripted in the scenario, not injected)"
                )
        os.makedirs(workdir, exist_ok=True)
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.tracer = Tracer()
        self.faults = list(faults or ())
        self.injector = FaultInjector(self.faults)
        self.arm = arm
        if arm == "final_commit":
            self.injector.armed = False
        elif arm != "always":
            raise ScenarioError(f"unknown arm policy {arm!r}")

        model = scenario.model
        budget = scenario.prepare_budget
        self.coordinator = Coordinator(
            os.path.join(workdir, "coordinator.log"),
            tracer=self.tracer,
            model=model,
            injector=self.injector,
            prepare_budget=budget if budget is not None else DEFAULT_PREPARE_BUDGET,
        )

        self.stores: dict[str, ManagedStore] = {}
        self.queues: dict[str, TxnQueue] = {}
        for decls, make, into in (
            (scenario.stores, ManagedStore, self.stores),
            (scenario.queues, TxnQueue, self.queues),
        ):
            for decl in decls:
                rm = make(
                    decl.name,
                    os.path.join(workdir, f"rm-{decl.name}.log"),
                    tracer=self.tracer,
                    prepare_delay=decl.prepare_delay,
                )
                rm.seed(decl.initial)
                self.coordinator.register(rm)
                into[decl.name] = rm

        self.broker = MessageBroker(tracer=self.tracer, rng=self.rng)
        self.endpoints: dict[str, LegacyEndpoint] = {}
        for template in scenario.endpoints:
            ep = LegacyEndpoint(template.endpoint_id, template.endpoint.script)
            self.endpoints[ep.endpoint_id] = ep
            self.broker.register_adapter(Adapter(ep, template.budget))
        for table in scenario.tables:
            self.broker.register_table(table)

        self.engine = ProcessEngine(model, self.coordinator)
        for definition in scenario.processes:
            self.engine.define(definition)

        for binding in scenario.bindings:
            self.coordinator.bind_service(
                binding.component, binding.service, self._make_handler(binding)
            )

        self.txns: dict[str, object] = {}
        self.instances: dict[str, object] = {}
        self.asserts: list[dict] = []
        self.errors: list[str] = []
        self.recovery_totals: dict | None = None

    # -- service bindings --------------------------------------------------

    def _make_handler(self, binding: BindingDecl):
        ops = [getattr(self, f"_op_{EFFECT_OPS.get(e['do'], e['do'])}") for e in binding.effects]

        def handler(ctx, request):
            regs: dict = {}

            def fetch(src):
                found = resolve(src, {"req": request, "eff": regs})
                if found is MISSING and src.scope == "req":
                    raise ScenarioError(f"binding wants missing request field {src.path[0]!r}")
                if found is MISSING:
                    raise ScenarioError(f"binding source {src!r} is unset")
                return found

            for op, eff in zip(ops, binding.effects):
                # load keeps only the fields an effect's shape declares
                args = {**eff, **{f: fetch(eff[f]) for f in SOURCE_FIELDS if f in eff}}
                if "request" in eff:
                    args["request"] = {f: fetch(s) for f, s in eff["request"].items()}
                got = op(ctx, args)
                if "into" in eff:
                    regs[eff["into"]] = got
            return {f: fetch(src) for f, src in binding.response.items()}

        return handler

    # -- the script -------------------------------------------------------------

    def run(self) -> dict:
        last_commit = self.scenario.last_commit_index()
        stopped_by_fault = False
        for idx, action in enumerate(self.scenario.actions):
            if self.arm == "final_commit":
                self.injector.armed = idx == last_commit
            op, expect_error = action["op"], action.get("expect_error")
            try:
                # load_scenario admits only the ops and assert kinds of scenario.ACTION
                ctx = None
                if op != "begin" and "txn" in ACTION.pick(action).required:
                    if action["txn"] not in self.txns:
                        raise ScenarioError(f"unknown transaction name {action['txn']!r}")
                    ctx = self.txns[action["txn"]]
                got = getattr(self, f"_op_{op}")(ctx, action)
                if op in EXPECT_DESC and "expect" in action:
                    self._assert(
                        EXPECT_DESC[op].format_map(action),
                        _stringify(got) == _stringify(action["expect"]),
                    )
                if op in SERVING_OPS and not self.injector.any_fired():
                    self._serve_queues()
                if expect_error is not None:
                    self._assert(f"action {idx} ({op}) raises {expect_error!r}", False)
            except CoordinatorCrash:
                self.coordinator.crash()
            except TraError as exc:
                if expect_error is not None:
                    self._assert(
                        f"action {idx} ({op}) raises {expect_error!r}",
                        expect_error in str(exc),
                    )
                else:
                    self.errors.append(f"action {idx} ({op}): {exc}")
            if self.injector.any_fired():
                # a crash point was hit: the rest of the script is off
                stopped_by_fault = True
                break
        if stopped_by_fault:
            self._recover_all()
        return self._report(stopped_by_fault)

    def close(self) -> None:
        self.coordinator.close()
        for rm in list(self.stores.values()) + list(self.queues.values()):
            rm.close()

    def _op_begin(self, ctx, action):
        name = action.get("txn")
        if not name or name in self.txns:
            raise ScenarioError(f"begin needs a fresh transaction name, got {name!r}")
        self.txns[name] = self.coordinator.begin(action.get("originator", "client"))

    def _op_get(self, ctx, action):
        return self.stores[action["store"]].get(ctx, action["key"])

    def _op_put(self, ctx, action):
        self.stores[action["store"]].put(ctx, action["key"], action["value"])

    def _op_delete(self, ctx, action):
        self.stores[action["store"]].delete(ctx, action["key"])

    def _op_send(self, ctx, action):
        self.queues[action["queue"]].send(ctx, action["message"])

    def _op_receive(self, ctx, action):
        return self.queues[action["queue"]].receive(ctx)

    def _op_propagate(self, ctx, action):
        return self.coordinator.propagate(
            ctx, action["component"], action["service"], action.get("request", {})
        )

    def _op_commit(self, ctx, action):
        return self.coordinator.commit(ctx).value

    def _op_rollback(self, ctx, action):
        self.coordinator.rollback(ctx)

    def _op_crash(self, ctx, action):
        target = action["target"]
        crashable = {
            COORDINATOR_TARGET: self.coordinator, **self.stores, **self.queues, **self.endpoints
        }
        crashable[target].crash()
        if target in self.endpoints:
            self.tracer.emit("crash", target)

    def _op_recover(self, ctx, action):
        self._recover_all()

    def _op_invoke(self, ctx, action):
        response = self.broker.invoke(action["service"], action.get("request", {}))
        if "expect_error" not in action:
            self.tracer.emit("invoked", action["service"], _stringify(response))
        return response

    def _op_invoke_via_queue(self, ctx, action):
        self.broker.invoke_via_queue(
            ctx,
            self.queues[action["queue"]],
            action["service"],
            action.get("request", {}),
            action["reply_to"],
        )

    def _op_run_process(self, ctx, action):
        instance = self.engine.start(action["process"], action.get("variables", {}))
        # kept before it runs, so a coordinator crash inside leaves it reported as running
        self.instances[action["process"]] = instance
        self.engine.execute(instance)
        return instance.state.value

    def _op_assert(self, ctx, action):
        kind = action["kind"]
        if kind == "store":
            value = self.stores[action["store"]].committed_value(action["key"])
            expected = action.get("value")
            self._assert(
                f"store {action['store']}[{action['key']}] == {expected!r}",
                value == expected,
            )
        elif kind == "queue":
            messages = list(self.queues[action["queue"]].peek())
            expected = list(action.get("messages", []))
            self._assert(f"queue {action['queue']} == {expected!r}", messages == expected)
        elif kind == "txn":
            status = self._txn_status(ctx, replay_log(self.coordinator.log_path))
            self._assert(f"txn {action['txn']} is {action['status']}", status == action["status"])
        elif kind == "process":
            instance = self.instances.get(action["process"])
            state = instance.state.value if instance is not None else "never-ran"
            self._assert(
                f"process {action['process']} is {action['state']}",
                state == action["state"],
            )
        elif kind == "process_var":
            instance = self.instances.get(action["process"])
            value = instance.variables.get(action["var"]) if instance is not None else None
            self._assert(
                f"process {action['process']} var {action['var']} == {action.get('value')!r}",
                value == action.get("value"),
            )

    # -- shared plumbing -----------------------------------------------------

    def _assert(self, desc: str, ok: bool) -> None:
        self.asserts.append({"desc": desc, "ok": ok})

    def _serve_queues(self) -> None:
        for name in self.scenario.serve_queues:
            self.broker.drain(self.coordinator, self.queues[name], self.queues.__getitem__)

    def _recover_all(self) -> None:
        for ep in self.endpoints.values():
            ep.recover()
        for rm in list(self.stores.values()) + list(self.queues.values()):
            rm.recover()
        if self.coordinator.crashed:
            self.coordinator.restart()
        totals = self.recovery_totals or {}
        outcome = asdict(self.coordinator.recover())
        self.recovery_totals = {k: totals.get(k, 0) + n for k, n in outcome.items()}

    @staticmethod
    def _txn_status(ctx, replayed: dict) -> str:
        """Prefer the durable log's view of a transaction's outcome; fall
        back to the live context for undecided ones."""
        entry = replayed.get(ctx.id)
        if entry is not None and entry.decision is not None:
            return entry.status
        return ctx.status.value

    def _report(self, stopped_by_fault: bool) -> dict:
        replayed = replay_log(self.coordinator.log_path)
        transactions = {}
        for name, ctx in sorted(self.txns.items()):
            transactions[name] = {"id": ctx.id, "status": self._txn_status(ctx, replayed)}
        conservation = {name: q.conservation_holds() for name, q in sorted(self.queues.items())}
        ok = (
            not self.errors
            and all(a["ok"] for a in self.asserts)
            and all(conservation.values())
        )
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "faults": [str(f) for f in self.faults],
            "fired": [str(f) for f in self.injector.fired],
            "stopped_by_fault": stopped_by_fault,
            "ok": ok,
            "errors": list(self.errors),
            "asserts": list(self.asserts),
            "transactions": transactions,
            "log": {str(txn_id): replayed[txn_id].status for txn_id in sorted(replayed)},
            "stores": {name: s.committed_snapshot() for name, s in sorted(self.stores.items())},
            "queues": {name: list(q.peek()) for name, q in sorted(self.queues.items())},
            "queue_conservation": conservation,
            "recovery": self.recovery_totals,
            "events": list(self.tracer.events),
            "processes": {
                name: {
                    "state": inst.state.value,
                    "failed_step": inst.failed_step,
                    "reason": inst.reason,
                    "variables": _stringify(inst.variables),
                }
                for name, inst in sorted(self.instances.items())
            },
        }


def run_scenario(
    scenario_or_path,
    seed: int | None = None,
    faults: list[FaultSpec] | None = None,
    workdir: str | None = None,
    arm: str = "always",
) -> dict:
    """Load (if needed) and run a scenario, returning the report dict."""
    scenario = _as_scenario(scenario_or_path)
    if workdir is not None:
        return _run_once(scenario, workdir, seed=seed, faults=faults, arm=arm)
    with tempfile.TemporaryDirectory(prefix="tra-run-") as wd:
        return _run_once(scenario, wd, seed=seed, faults=faults, arm=arm)


def _run_once(scenario: Scenario, workdir: str, **kwargs) -> dict:
    runner = Runner(scenario, workdir, **kwargs)
    try:
        return runner.run()
    finally:
        runner.close()


def _as_scenario(scenario_or_path) -> Scenario:
    if isinstance(scenario_or_path, Scenario):
        return scenario_or_path
    return load_scenario_file(scenario_or_path)


def crash_sweep(scenario_or_path) -> dict:
    """Run the full (target x crash point) matrix against the scenario's
    final commit and classify every post-recovery state."""
    scenario = _as_scenario(scenario_or_path)
    result: dict = {"scenario": scenario.name, "combinations": [], "ok": True}

    last = scenario.last_commit_index()
    if last is None:
        result["ok"] = False
        result["error"] = "scenario has no commit action to sweep"
        return result

    with tempfile.TemporaryDirectory(prefix="tra-sweep-") as root:
        baseline = _run_once(scenario, os.path.join(root, "baseline"))
        result["baseline_ok"] = baseline["ok"]
        if not baseline["ok"]:
            result["ok"] = False
            result["error"] = "baseline (no-fault) run failed its own assertions"
            return result
        commit_state = {"stores": baseline["stores"], "queues": baseline["queues"]}

        # Abort oracle: same script, but the swept commit becomes a rollback
        # and the rest of the script is dropped.
        abort_actions = list(scenario.actions[:last])
        abort_actions.append({"op": "rollback", "txn": scenario.actions[last].get("txn")})
        abort_run = _run_once(scenario.with_actions(abort_actions), os.path.join(root, "abort"))
        if abort_run["errors"]:
            result["ok"] = False
            result["error"] = f"abort baseline errored: {abort_run['errors']}"
            return result
        abort_state = {"stores": abort_run["stores"], "queues": abort_run["queues"]}
        result["commit_state"] = commit_state
        result["abort_state"] = abort_state

        swept_txn = scenario.actions[last].get("txn")
        swept_id = baseline["transactions"][swept_txn]["id"] if swept_txn in baseline["transactions"] else None

        targets = [COORDINATOR_TARGET] + list(scenario.sweep_targets)
        for target in targets:
            for point in ALL_POINTS:
                spec = FaultSpec(target, point)
                rundir = os.path.join(root, f"{target}-{point.value}")
                report = _run_once(scenario, rundir, faults=[spec], arm="final_commit")
                post = {"stores": report["stores"], "queues": report["queues"]}
                log = report["log"]
                decided = log.get(str(swept_id)) if swept_id is not None else None
                if post == commit_state == abort_state:
                    # the swept transaction changes no state (it only reads, say),
                    # so only the log's decision tells commit from abort
                    outcome = decided if decided in ("committed", "aborted") else "undecided"
                elif post == commit_state:
                    outcome = "committed"
                elif post == abort_state:
                    outcome = "aborted"
                else:
                    outcome = "split"
                fired = bool(report["fired"])
                conservation = all(report["queue_conservation"].values())
                log_ok = decided == outcome
                prefix_ok = all(
                    txn_id == str(swept_id) or baseline["log"].get(txn_id) == status
                    for txn_id, status in log.items()
                )
                row_ok = (
                    fired
                    and outcome in ("committed", "aborted")
                    and not report["errors"]
                    and conservation
                    and log_ok
                    and prefix_ok
                )
                result["combinations"].append(
                    {
                        "target": target,
                        "point": point.value,
                        "fired": fired,
                        "outcome": outcome,
                        "conservation": conservation,
                        "log_matches_outcome": log_ok,
                        "ok": row_ok,
                    }
                )
                if not row_ok:
                    result["ok"] = False
    return result


def render_report(report: dict, mode: str = "structured") -> str:
    if mode == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if mode != "text":
        raise ScenarioError(f"unknown report mode {mode!r}")
    lines = [f"scenario {report['scenario']} (seed {report['seed']})"]
    if report["faults"]:
        fired = ", ".join(report["fired"]) or "none"
        lines.append(f"faults: {', '.join(report['faults'])} (fired: {fired})")
    for name, info in sorted(report["transactions"].items()):
        lines.append(f"txn {name} (id {info['id']}): {info['status']}")
    for name, data in sorted(report["stores"].items()):
        body = ", ".join(f"{k}={v}" for k, v in sorted(data.items())) or "empty"
        lines.append(f"store {name}: {body}")
    for name, messages in sorted(report["queues"].items()):
        lines.append(f"queue {name}: {len(messages)} message(s)")
    for name, info in sorted(report.get("processes", {}).items()):
        detail = "" if info["failed_step"] is None else f" at {info['failed_step']}"
        lines.append(f"process {name}: {info['state']}{detail}")
    if report["recovery"] is not None:
        r = report["recovery"]
        lines.append(
            "recovery: "
            f"{r['recommitted']} recommitted, {r['presumed_aborted']} presumed aborted, "
            f"{r['aborts_completed']} aborts completed"
        )
    for entry in report["asserts"]:
        mark = "ok " if entry["ok"] else "FAIL"
        lines.append(f"  [{mark}] {entry['desc']}")
    for err in report["errors"]:
        lines.append(f"  error: {err}")
    lines.append("result: OK" if report["ok"] else "result: FAILED")
    return "\n".join(lines) + "\n"


def render_sweep(result: dict) -> str:
    lines = [f"sweep {result['scenario']}"]
    if "error" in result:
        lines.append(f"  error: {result['error']}")
    for row in result["combinations"]:
        mark = "ok " if row["ok"] else "FAIL"
        fired = "" if row["fired"] else " (never fired)"
        lines.append(
            f"  [{mark}] {row['target']}@{row['point']}: {row['outcome']}{fired}"
        )
    atomic = sum(1 for r in result["combinations"] if r["ok"])
    lines.append(
        f"result: {'OK' if result['ok'] else 'FAILED'} "
        f"({atomic}/{len(result['combinations'])} combinations atomic)"
    )
    return "\n".join(lines) + "\n"
