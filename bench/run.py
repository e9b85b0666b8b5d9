#!/usr/bin/env python3
"""tra's benchmark: two closed-loop workloads and an outside-in traced run.

    python3 bench/run.py --workload oltp --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                  # every workload, one table

One client in one thread drives tra, built from src/ of this checkout, and
waits for each call to return. --trace 0 measures the end-to-end metrics;
--trace 1 wraps the public functions of the tra modules and reports per-layer
self times and counts instead. Each workload checks its own output against
an oracle that does not use tra; a failed check fails the run (exit 1). A
run that outlives its wall-clock limit is stopped and fails (exit 3). The
last line of standard output is the result as one JSON object. See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

import layers
import wl_broker
import wl_oltp
from common import (
    END_TO_END,
    ROOT,
    SRC,
    CheckFailed,
    Rounds,
    check,
    cpu_probe_ms,
    environment,
    import_tra,
)
from spans import Spans

WORKLOADS = ("oltp", "broker")


class WatchdogExpired(BaseException):
    """Raised by SIGALRM; a BaseException so no handler inside tra swallows it."""


def watchdog_limit(seconds: int) -> int:
    return min(170, 60 + 4 * seconds)


def measure(tra, args, workdir: str) -> tuple[dict, dict, int]:
    module = {"oltp": wl_oltp, "broker": wl_broker}[args.workload]
    rounds = Rounds(module.Workload(tra, args.seed), workdir)
    spans = Spans() if args.trace else None
    rounds.run(args.seconds, spans)
    info = {"rounds": len(rounds.results)}

    first = rounds.results[0]
    for r in rounds.results[1:]:
        check(r["denominators"] == first["denominators"], "counts differ between rounds of one run")
    if spans is None:
        values, samples = rounds.end_to_end()
        info["samples"] = samples
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        return metrics, info, rounds.attempted()

    traced = [r for r, (was_traced, _) in zip(rounds.results, rounds.round_s) if was_traced]
    check(
        all(c == spans.round_calls[0] for c in spans.round_calls)
        and all(r["units"] == traced[0]["units"] for r in traced),
        "span counts differ between traced rounds of one run",
    )
    missing = sorted(set(module.LAYERS) - spans.layers_seen())
    check(not missing, f"traced run recorded no spans for layers {missing}")
    traced_s = [s for was_traced, s in rounds.round_s if was_traced]
    untraced_s = [s for was_traced, s in rounds.round_s if not was_traced]
    metrics = layers.compute(spans, first["denominators"], traced[0]["units"], traced_s, untraced_s)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}.spans.jsonl.gz")  # the latest traced run
    info["spans_written"] = spans.write(path)
    info["spans_file"] = os.path.relpath(path, ROOT)
    info["tracing_overhead"] = metrics["tracing.overhead_share"]["value"]
    return metrics, info, rounds.attempted()


def run_one(args) -> int:
    limit = watchdog_limit(args.seconds)

    def expire(signum, frame):
        raise WatchdogExpired()

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        # Backstop for a hang the alarm cannot interrupt: dump stacks and exit.
        faulthandler.dump_traceback_later(limit + 5, exit=True, file=sys.__stderr__)
        signal.signal(signal.SIGALRM, expire)
        signal.alarm(limit)
        try:
            tra = import_tra()
        except ImportError as exc:
            print(f"bench: cannot import tra from {SRC}: {exc}", file=sys.stderr)
            return 2
        os.makedirs(os.path.join(workdir, "tmp"))
        tempfile.tempdir = os.path.join(workdir, "tmp")
        env = environment(workdir)
        probe_before = cpu_probe_ms()
        try:
            metrics, info, attempted = measure(tra, args, workdir)
        except CheckFailed as exc:
            print(f"bench: workload {args.workload}: check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    except WatchdogExpired:
        print(
            f"bench: workload {args.workload} exceeded its {limit} s wall-clock limit",
            file=sys.stderr,
        )
        return 3
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, **info)
    env["cpu_probe_ms"] = [probe_before, cpu_probe_ms()]
    if not args.trace:
        env["tracing_overhead"] = "not traced; --trace 1 reports tracing.overhead_share"
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    # every op either completes with the output its check expects or fails the run
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=watchdog_limit(args.seconds) + 30)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: FAILED (exit {proc.returncode})\n{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
