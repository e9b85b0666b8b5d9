"""List the statements of src/tra that no test runs, and the mutants of
src/tra that no test notices.

    python tests/mutants.py        # every mutant site in src/tra
    python tests/mutants.py REF    # only the src/tra lines changed since git REF

First it runs Tier-1 once, in a forked child, under a `sys.settrace` line
probe, and prints `file:line: text` for every src/tra statement with code of
its own that no test reached. That pass also records which lines each test
runs and how long it takes.

A mutant makes one small change to one statement of src/tra: it flips a
comparison to its negation, swaps `and` and `or`, drops a `not`, or replaces a
simple statement with `pass`. Each is written into a scratch copy of the
repository, and only the tests that run its lines are run against it, with
`-x`. The mutant is killed when one of them fails and survives when all pass.
Lines that run on import, or in no test, count as run by every test. A
mutant whose tests are still running after 10 s plus three times their
traced time is killed, together with its process group.

Prints `file:line: mutant: text` for every survivor. Exits 1 when a
statement is unrun or a survivor is not in EQUIVALENT below, and with
pytest's code when the unmutated tests fail. Standard library only; the name
has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tra"


def code_lines(module_code) -> set[int]:
    """Lines that hold bytecode, over a module's code objects."""
    lines, todo = set(), [module_code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(source: str, path: str):
    """Each statement as (first line, its own lines): a compound statement
    owns its header, from its first decorator to the line before its body."""
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, range(first, max(first, last) + 1)


def unrun(hit: dict[str, set[int]]):
    """Unrun statements, given the lines run in each file by name."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        has_code = code_lines(compile(source, str(path), "exec"))
        ran = hit.get(path.name, set())
        for line, own in sorted(statements(source, str(path))):
            mine = has_code.intersection(own)
            if mine and not mine & ran:
                yield path.name, line, text[line - 1].strip()


def trace(args: list[str]):
    """Run pytest with `args` in this process under a `sys.settrace` line
    probe. Returns pytest's exit code, the `src/tra` lines each test ran as
    {test id: {file name: lines}}, and each test's wall time in seconds.
    Lines run outside every test, as imports and collection run them, are
    under the test id ""."""
    sys.path.insert(0, str(SRC.parent))
    import pytest  # tra itself is first imported by the tests, under the probe

    runs: dict[str, dict[str, set[int]]] = {}
    times: dict[str, float] = {}
    hit = runs[""] = defaultdict(set)
    started = 0.0
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def probe(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class PerTest:
        @staticmethod
        def pytest_runtest_logstart(nodeid, location):
            nonlocal hit, started
            hit = runs.setdefault(nodeid, defaultdict(set))
            started = time.perf_counter()

        @staticmethod
        def pytest_runtest_logfinish(nodeid, location):
            """Python switches a trace function off when it cannot call it:
            at the recursion limit, say, where a collection runs a finalizer.
            Put the probe back after each test, so one such test blinds no
            later one."""
            nonlocal hit
            times[nodeid] = time.perf_counter() - started
            hit = runs[""]
            if sys.gettrace() is None:
                sys.settrace(probe)

    threading.settrace(probe)
    sys.settrace(probe)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *args], plugins=[PerTest()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    names = {str(path): path.name for path in SRC.glob("*.py")}
    lines = {test: {names[f]: ran for f, ran in files.items() if f in names} for test, files in runs.items()}
    return int(code), lines, times


def report(runs: dict[str, dict[str, set[int]]]) -> int:
    """Print the unrun statements, given `trace`'s lines per test, and
    return how many there are."""
    hit: dict[str, set[int]] = defaultdict(set)
    for files in runs.values():
        for name, ran in files.items():
            hit[name] |= ran
    found = list(unrun(hit))
    for name, line, text in found:
        print(f"src/tra/{name}:{line}: {text}")
    print(f"{len(found)} unrun statement(s)")
    return len(found)


_TYPING = "its names appear only in annotations, which `from __future__ import annotations` never evaluates"
_SLOTS = "slots only make each instance smaller: nothing sets an attribute they do not list"

# (file, text of the mutated statement's first line, mutant) -> why the mutant
# behaves exactly as the original does
EQUIVALENT = {
    ("broker.py", "from typing import Callable, Mapping", "replace with pass"): _TYPING,
    ("model.py", "from typing import Mapping, Sequence", "replace with pass"): _TYPING,
    ("process.py", "from typing import Iterable, Mapping", "replace with pass"): _TYPING,
    ("records.py", "from typing import Mapping", "replace with pass"): _TYPING,
    ("resources.py", "from typing import Iterable", "replace with pass"): _TYPING,
    ("scenario.py", "from typing import Mapping", "replace with pass"): _TYPING,
    ("resources.py", '__slots__ = ("reads", "writes")', "replace with pass"): _SLOTS,
    ("resources.py", '__slots__ = ("sends", "receives")', "replace with pass"): _SLOTS,
    ("sim.py", '__slots__ = ("_records",)', "replace with pass"): _SLOTS,
    ("wal.py", '__slots__ = ("path", "schema")', "replace with pass"): _SLOTS,
    (
        "txn.py",
        "__hash__ = object.__hash__  # members compare by identity; Enum.__hash__ is Python code",
        "replace with pass",
    ): "Enum's own hash is consistent with the same identity equality; this one is only faster",
    ("wal.py", "value = intern(value)", "replace with pass"): (
        "an interned string equals the string it replaces; interning only lets equal names share one copy"
    ),
}

NEGATION = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOL = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
COMPOUND = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For, ast.AsyncFor,
    ast.While, ast.With, ast.AsyncWith, ast.Try, ast.TryStar, ast.Match,
)
# the copy each mutant runs in: what the tests read, beside src/tra
COPIED = ("src", "tests", "bench", "pyproject.toml")
WRONG_COPY = 99  # a child's exit code when its tests imported tra from elsewhere


@dataclass(frozen=True)
class Mutant:
    name: str  # module file in src/tra
    line: int
    last: int
    what: str
    text: str  # the first mutated line, stripped
    source: str  # the whole mutated module

    def __str__(self) -> str:
        return f"src/tra/{self.name}:{self.line}: {self.what}: {self.text}"


def mutants(name: str, source: str, wanted: set[int] | None = None):
    """Every mutant of one module that changes a line with bytecode, or only
    those that change a `wanted` line. Each keeps every other line where it
    was, so the line map still applies."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    lines = source.splitlines()
    has_code = code_lines(compile(source, name, "exec"))
    tree = ast.parse(source, name)
    # positions inside an f-string are not reliable before Python 3.12
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}

    def splice(node, text: str) -> str:
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        return (data[:begin] + text.encode() + data[end:]).decode()

    def swap(node, new) -> str:
        return splice(node, f"({ast.unparse(new)}" + "\n" * (node.end_lineno - node.lineno) + ")")

    def mutant(node, what: str, mutated: str) -> Mutant:
        ast.parse(mutated, name)  # a mutant that does not parse is a fault here, not a kill
        return Mutant(name, node.lineno, node.end_lineno, what, lines[node.lineno - 1].strip(), mutated)

    for node in ast.walk(tree):
        span = range(getattr(node, "lineno", 0), getattr(node, "end_lineno", -1) + 1)
        if id(node) in in_fstring or has_code.isdisjoint(span) or (wanted is not None and wanted.isdisjoint(span)):
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                flip = NEGATION[type(op)]
                new = ast.Compare(node.left, node.ops[:i] + [flip()] + node.ops[i + 1:], node.comparators)
                yield mutant(node, f"flip {SYMBOL[type(op)]} to {SYMBOL[flip]}", swap(node, new))
        elif isinstance(node, ast.BoolOp):
            to_or = isinstance(node.op, ast.And)
            new = ast.BoolOp(ast.Or() if to_or else ast.And(), node.values)
            yield mutant(node, "swap and to or" if to_or else "swap or to and", swap(node, new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield mutant(node, "drop not", swap(node, node.operand))
        elif (
            isinstance(node, ast.stmt)
            and not isinstance(node, COMPOUND + (ast.Pass,))
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))  # a docstring
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")  # a compiler directive
        ):
            yield mutant(node, "replace with pass", splice(node, "pass" + "\n" * (node.end_lineno - node.lineno)))


def changed_lines(ref: str) -> dict[str, set[int]]:
    """The src/tra lines that differ from git `ref`, by file name."""
    diff = subprocess.run(
        ["git", "diff", "--unified=0", ref, "--", "src/tra"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    changed: dict[str, set[int]] = {}
    name = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            name = line.rsplit("/", 1)[-1] if line.startswith("+++ b/src/tra/") else None
        elif line.startswith("@@") and name is not None:
            first, _, count = re.match(r"@@ -\S+ \+(\S+) @@", line).group(1).partition(",")
            changed.setdefault(name, set()).update(range(int(first), int(first) + int(count or 1)))
    return changed


def line_map() -> tuple[dict, dict]:
    """Run Tier-1 once under `trace`'s probe, in a child so that this
    process never imports tra. Returns the lines each test ran and its time."""
    fd, out = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                code, runs, times = trace(["-q", str(ROOT / "tests")])
                runs = {t: {n: sorted(ran) for n, ran in files.items()} for t, files in runs.items()}
                Path(out).write_text(json.dumps({"runs": runs, "times": times}))
            finally:
                os._exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            sys.exit(code)
        doc = json.loads(Path(out).read_text())
    finally:
        os.unlink(out)
    runs = {t: {n: set(ran) for n, ran in files.items()} for t, files in doc["runs"].items()}
    return runs, doc["times"]


def select(mutant: Mutant, runs: dict, times: dict) -> list[str]:
    """The tests that run a mutant's lines, fastest first. Every test when
    the lines run on import, or in no test."""
    span = range(mutant.line, mutant.last + 1)
    tests = [t for t, files in runs.items() if t and not files.get(mutant.name, set()).isdisjoint(span)]
    if not tests or not runs[""].get(mutant.name, set()).isdisjoint(span):
        tests = list(times)
    return sorted(tests, key=times.__getitem__)


def install(copy: Path, name: str, source: str) -> None:
    """Write one module into a copy and drop its cached bytecode, which a
    same-sized mutant written within the same second would otherwise reuse."""
    (copy / "src" / "tra" / name).write_text(source)
    for cached in (copy / "src" / "tra" / "__pycache__").glob(f"{Path(name).stem}.*.pyc"):
        cached.unlink()


def run_tests(copy: Path, tests: list[str]) -> None:
    """In a forked child: run `tests` in `copy` and exit with pytest's code.
    Temporary files go inside the copy, so the run directories of a child
    killed by timeout are removed with the copies."""
    code = 70
    try:
        os.setpgid(0, 0)
        os.chdir(copy)
        tempfile.tempdir = os.environ["TMPDIR"] = str(copy / "tempdir")
        os.makedirs(tempfile.tempdir, exist_ok=True)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        import pytest

        code = int(pytest.main(["-x", "-q", "-p", "no:cacheprovider", "--basetemp", str(copy / "tmp"), *tests]))
        tra = sys.modules.get("tra")
        if code == 0 and (tra is None or not tra.__file__.startswith(str(copy) + os.sep)):
            code = WRONG_COPY
    finally:
        os._exit(code)


def run(jobs: list[tuple[Mutant, list[str], float]], workers: int) -> dict[Mutant, str]:
    """Run each (mutant, tests, timeout) in its own copy of the repository, at
    most `workers` at a time. Returns each mutant's fate: "killed",
    "timeout" or "survived"."""
    scratch = Path(tempfile.mkdtemp(prefix="tra-mutants-"))
    original = {p.name: p.read_text() for p in SRC.glob("*.py")}
    free = []
    for i in range(min(workers, len(jobs))):
        copy = scratch / str(i)
        for part in COPIED:
            src, dst = ROOT / part, copy / part
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, dst)
        free.append(copy)
    fates: dict[Mutant, str] = {}
    running: dict[int, tuple[Path, Mutant, float]] = {}
    todo = list(reversed(jobs))
    try:
        while todo or running:
            while todo and free:
                mutant, tests, timeout = todo.pop()
                copy = free.pop()
                install(copy, mutant.name, mutant.source)
                # fork, not spawn: each child starts from the pytest and
                # hypothesis this process already imported, and this process
                # runs no thread
                pid = os.fork()
                if pid == 0:
                    run_tests(copy, tests)
                os.setpgid(pid, pid)
                running[pid] = (copy, mutant, time.monotonic() + timeout)
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                fate = "killed" if code else "survived"
            else:
                now = time.monotonic()
                late = [p for p, (_, _, deadline) in running.items() if now > deadline]
                if not late:
                    time.sleep(0.02)
                    continue
                pid, fate, code = late[0], "timeout", None
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            copy, mutant, _ = running.pop(pid)
            if code == WRONG_COPY:
                raise SystemExit("the tests imported tra from outside the scratch copy")
            fates[mutant] = fate
            install(copy, mutant.name, original[mutant.name])
            free.append(copy)
    finally:
        for pid in running:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        shutil.rmtree(scratch)
    return fates


def main(argv: list[str]) -> int:
    started = time.monotonic()
    changed = changed_lines(argv[0]) if argv else None
    todo = []
    for path in sorted(SRC.glob("*.py")):
        wanted = None if changed is None else changed.get(path.name, set())
        todo += sorted(mutants(path.name, path.read_text(), wanted), key=lambda m: m.line)
    runs, times = line_map()
    unrun_bad = report(runs)
    if not todo:
        print("0 mutants")
        return 1 if unrun_bad else 0
    import hypothesis  # noqa: F401  the tests' own import, made once for every forked child
    import pytest  # noqa: F401

    jobs = []
    for mutant in todo:
        tests = select(mutant, runs, times)
        jobs.append((mutant, tests, 10 + 3 * sum(times[t] for t in tests)))
    jobs.sort(key=lambda job: -job[2])  # the longest first, so no worker idles at the end
    fates = run(jobs, os.cpu_count() or 1)

    bad = 0
    for mutant in todo:
        if fates[mutant] == "timeout":
            print(f"{mutant}  [killed by timeout]")
        elif fates[mutant] == "survived":
            reason = EQUIVALENT.get((mutant.name, mutant.text, mutant.what))
            print(f"{mutant}" + (f"  [equivalent: {reason}]" if reason else ""))
            bad += reason is None
    killed = sum(fate != "survived" for fate in fates.values())
    timeouts = sum(fate == "timeout" for fate in fates.values())
    print(
        f"{len(todo)} mutants: {killed} killed ({timeouts} by timeout), {len(todo) - killed} survived, "
        f"{bad} outside the allowlist; {time.monotonic() - started:.0f} s"
    )
    return 1 if bad or unrun_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
