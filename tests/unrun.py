"""List the statements of src/tra that the test suite never runs.

    python tests/unrun.py

Runs `pytest tests` in this process under a `sys.settrace` line probe, then
prints `file:line: text` for every `src/tra` statement with code of its own
that no test reached. It exits 1 when one of them is not in ALLOWED below,
and with pytest's own code when a test fails. Standard library only; the
name has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tra"

# (file, first line of the statement) -> why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only as `python -m tra.cli`; the tests call main()",
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
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        has_code = code_lines(compile(source, str(path), "exec"))
        ran = hit.get(str(path), set())
        for line, own in sorted(statements(source, str(path))):
            mine = has_code.intersection(own)
            if mine and not mine & ran:
                yield path.name, line, text[line - 1].strip()


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    import pytest  # tra itself is first imported by the tests, under the probe

    hit: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def probe(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hit.setdefault(filename, set())
        return local

    class Rearm:
        """Python switches a trace function off when it cannot call it: at the
        recursion limit, say, where a collection runs a finalizer. Put the
        probe back after each test, so one such test blinds no later one."""

        @staticmethod
        def pytest_runtest_logfinish(nodeid, location):
            if sys.gettrace() is None:
                sys.settrace(probe)

    threading.settrace(probe)
    sys.settrace(probe)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)

    bad = 0
    for name, line, text in unrun(hit):
        reason = ALLOWED.get((name, text))
        print(f"src/tra/{name}:{line}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
        bad += reason is None
    print(f"{bad} unrun statement(s) outside the allowlist")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
