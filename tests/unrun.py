"""List the statements of src/tra that the test suite never runs.

    python tests/unrun.py

Runs `pytest tests` in this process under a `sys.settrace` line probe, then
prints `file:line: text` for every `src/tra` statement with code of its own
that no test reached. It exits 1 when one of them is not in ALLOWED below,
and with pytest's own code when a test fails. `tests/mutants.py` takes the
lines each test runs from the same probe, `trace`, and prints this report
from that one pass. Standard library only; the name has no `test_` prefix,
so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tra"

# (file, first line of the statement) -> why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only as `python -m tra.cli`, which one test runs in a child process",
}


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
    return how many are outside the allowlist."""
    hit: dict[str, set[int]] = defaultdict(set)
    for files in runs.values():
        for name, ran in files.items():
            hit[name] |= ran
    bad = 0
    for name, line, text in unrun(hit):
        reason = ALLOWED.get((name, text))
        print(f"src/tra/{name}:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
        bad += reason is None
    print(f"{bad} unrun statement(s) outside the allowlist")
    return bad


def main() -> int:
    code, runs, _ = trace(["-q", str(ROOT / "tests")])
    if code != 0:
        return code
    return 1 if report(runs) else 0


if __name__ == "__main__":
    sys.exit(main())
