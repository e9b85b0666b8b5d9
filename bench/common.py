"""Pieces shared by the workloads: importing tra from source, output checks,
percentiles, and the round loop that turns rounds into end-to-end metrics."""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# name -> unit; every workload reports every one of these (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "heavy_p90_us": "us",
    "light_p90_us": "us",
    "restart_s": "s",
}

# ops per throughput window; each workload's round is a whole number of them
WINDOW_OPS = 250
# worlds built and closed at the start of each round only to time set-up
SPARE_SETUPS = 4


class CheckFailed(Exception):
    """A workload's own output check failed: the run is wrong, not slow."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def import_tra():
    """Import tra from this checkout's src/, never from anywhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tra

    if os.path.dirname(os.path.abspath(tra.__file__)) != os.path.join(SRC, "tra"):
        raise ImportError(f"tra imported from {tra.__file__}, not from {SRC}")
    return tra


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rounds:
    """Runs a workload's rounds until the time budget is spent.

    A round builds a fresh world in its own directory (timed as set-up), runs
    the workload's fixed, seeded work on it, checks the output, and removes
    the directory. Before that it builds and closes SPARE_SETUPS more worlds,
    untraced, only to time more set-ups. Every round replays the same inputs,
    so counts repeat exactly from round to round.
    """

    def __init__(self, workload, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.setup_s: list[float] = []
        self.results: list[dict] = []
        self.round_s: list[tuple[bool, float]] = []  # (traced, wall seconds)
        self.first_round_rss_mb = 0.0

    def _setup(self, wdir: str):
        os.makedirs(wdir)
        start = time.perf_counter()
        world = self.workload.setup(wdir)
        self.setup_s.append(time.perf_counter() - start)
        return world

    def one(self, spans=None) -> dict:
        rdir = os.path.join(self.workdir, f"round-{len(self.results)}")
        for k in range(SPARE_SETUPS):
            self.workload.close(self._setup(os.path.join(rdir, f"spare-{k}")))
        start = time.perf_counter()
        if spans is not None:
            spans.install()
        try:
            world = self._setup(os.path.join(rdir, "world"))
            try:
                result = self.workload.round(world, spans)
            finally:
                self.workload.close(world)
        finally:
            if spans is not None:
                spans.uninstall()
        self.round_s.append((spans is not None, time.perf_counter() - start))
        shutil.rmtree(rdir)
        self.results.append(result)
        if len(self.results) == 1:
            # Later rounds raise the peak only in allocator-fragmentation
            # steps of 2 to 8 MB, at rounds that differ with seed and speed.
            self.first_round_rss_mb = peak_rss_mb()
        return result

    def run(self, seconds: float, spans=None) -> None:
        """Untraced: every round counts. Traced: rounds alternate untraced and
        traced, so the tracing overhead is measured in the same process."""
        deadline = time.perf_counter() + seconds
        while True:
            traced = spans is not None and len(self.results) % 2 == 1
            self.one(spans if traced else None)
            if spans is not None:
                spans.end_round(traced)
            if len(self.results) >= 2 and time.perf_counter() >= deadline:
                break

    def end_to_end(self) -> tuple[dict, dict]:
        """The metrics from every round of the run.

        The machine this was tuned on switches between a fast and a slow
        state (about 1.6x apart) that each last from one to tens of seconds,
        in a share that differs from run to run. Medians and means land
        between the two states and moved by up to a third between runs; the
        statistics below sit in the slow state, which every run has, and
        moved far less. Throughput takes the 25th percentile of its windows
        rather than the 10th: about one window in sixteen holds a full
        garbage collection and runs at half speed, and the 10th percentile
        fell on the edge of those.
        """
        res = self.results
        heavy = sorted(x for r in res for x in r["heavy_ns"])
        light = sorted(x for r in res for x in r["light_ns"])
        restarts = sorted(x for r in res for x in r["restart_s"])
        windows = sorted(x for r in res for x in r["window_s"])
        check(bool(heavy) and bool(light), "no latency samples recorded")
        values = {
            "setup_s": percentile(sorted(self.setup_s), 90),
            "peak_rss_mb": self.first_round_rss_mb,
            "ops_per_s": WINDOW_OPS / percentile(windows, 75),
            "heavy_p90_us": percentile(heavy, 90) / 1e3,
            "light_p90_us": percentile(light, 90) / 1e3,
            "restart_s": percentile(restarts, 90),
        }
        samples = {
            "heavy": len(heavy), "light": len(light), "restarts": len(restarts),
            "windows": len(windows), "rounds": len(res),
        }
        return values, samples

    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.results)


def restart_cycles(coord, rms, cycles: int, spans, unit, verify) -> list[float]:
    """Crash every resource manager and the coordinator, then time RM
    `recover` + coordinator `restart` + `recover()`; `verify(cycle)` checks
    the state after each cycle."""
    times = []
    for cycle in range(1, cycles + 1):
        for part in (*rms, coord):
            part.crash()
        gc.collect()
        if spans is not None:
            spans.unit = unit
        start = time.perf_counter()
        for rm in rms:
            rm.recover()
        coord.restart()
        coord.recover()
        times.append(time.perf_counter() - start)
        if spans is not None:
            spans.unit = None
        verify(cycle)
    return times


def cpu_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop. Reported beside the metrics to
    show how fast the machine ran around a measurement; it scales nothing."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment(workdir: str) -> dict:
    """Facts that must match on both sides of any comparison."""
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "log_fs": _filesystem_of(workdir),
        "flush_policy": "flush on every append, no fsync",
        "gc_enabled": gc.isenabled(),
    }


def _filesystem_of(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype
