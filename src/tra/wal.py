"""Append-only write-ahead logs and their one reader.

Every log holds one record per line, `KIND<tab>txn-id[<tab>field]`; the writer
takes the fields as text, which its caller stringified once. Each log declares
a schema, record kind -> what follows the id: nothing (None), a non-empty name
(NAME), or a JSON object (PAYLOAD) whose inside its reader checks. A torn last
line (no newline) was never written: the reader skips it and the writer cuts
it off. Any other malformed line is corruption.

The reader streams. `read_records` returns a `Records` view, and iterating it
reads the file in `_BLOCK`-byte blocks, cuts each block at its last newline and
decodes that piece once. So a replay holds one block and whatever it keeps of
the records, never a list of the log's lines or records.
"""

from __future__ import annotations

import json
import os
from sys import intern

from .errors import LogCorruptError

NAME = "name"
PAYLOAD = "payload"

# bytes per read: the reader's and the torn-tail scan's unit of memory
_BLOCK = 16 * 1024

# json's C scanner: one value at an index, with no whitespace skipped before
# it and no check of what follows; writers put compact JSON alone in a field
_scan_json = json.JSONDecoder().scan_once


def _whole_end(fd: int, end: int) -> int:
    """The offset just past the last newline before `end`, or 0 if none:
    scans back from `end` one block at a time."""
    while end:
        start = max(end - _BLOCK, 0)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0


class LogWriter:
    """Unbuffered, so a record is in the file before its caller acts on it. A
    crash loses memory, not the OS, so that is durable without an fsync."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "ab+", buffering=0)
        fd, end = self._fh.fileno(), self._fh.seek(0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":  # cut a torn last record off
            self._fh.truncate(_whole_end(fd, end))

    def append(self, *fields: str) -> None:
        line = "\t".join(fields)  # text only: a TypeError names any other field
        if line.count("\t") != len(fields) - 1 or "\n" in line:
            raise ValueError("log fields must not contain tabs or newlines")
        data = (line + "\n").encode("utf-8")
        if self._fh.write(data) != len(data):  # unbuffered: nothing retries a short write
            raise OSError(f"{self.path}: short write")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class Records:
    """A log's records in log order, read from the file each time the view is
    iterated: `(kind, txn id)`, or `(kind, txn id, field)` for a kind that
    carries one, with a NAME field interned. A missing log reads as empty.
    Iteration raises `LogCorruptError`, naming `path:line`, at the first
    corrupt line, after yielding the records before it; a caller builds its
    state aside and installs it only once the iteration ends. `len()` counts
    the whole lines without decoding them."""

    __slots__ = ("path", "schema")

    def __init__(self, path: str, schema: dict) -> None:
        self.path = path
        self.schema = schema

    def __len__(self) -> int:
        try:
            fh = open(self.path, "rb", buffering=0)
        except FileNotFoundError:
            return 0
        with fh:
            count = 0
            while block := fh.read(_BLOCK):
                count += block.count(b"\n")
            return count

    def __iter__(self):
        path, schema = self.path, self.schema
        try:
            fh = open(path, "rb", buffering=0)
        except FileNotFoundError:
            return
        with fh:
            held: list[bytes] = []  # the start of a line no block has finished yet
            before = 0  # lines in the pieces already decoded
            while block := fh.read(_BLOCK):
                cut = block.rfind(b"\n") + 1
                if not cut:
                    held.append(block)
                    continue
                piece = b"".join((*held, block[:cut])) if held else block[:cut]
                held = [block[cut:]] if cut < len(block) else []
                bad = None
                try:
                    text = piece.decode("utf-8")
                except UnicodeDecodeError as exc:  # decode the lines before it, then refuse it
                    start = piece.rfind(b"\n", 0, exc.start) + 1
                    text = piece[:start].decode("utf-8")
                    lineno = before + piece.count(b"\n", 0, start) + 1
                    bad = f"{path}:{lineno}: bad record: {exc.reason}"
                lines = text.split("\n")
                lines.pop()  # the empty text after the piece's last newline
                for line in lines:
                    rec = line.split("\t")
                    try:
                        field = schema[rec[0]]
                        if field is None:
                            kind, txn_id = rec
                            yield kind, int(txn_id)
                            continue
                        kind, txn_id, value = rec
                        if field is PAYLOAD:
                            try:
                                value, end = _scan_json(rec[2], 0)
                            except StopIteration as exc:  # no value starts at exc.value
                                raise json.JSONDecodeError("Expecting value", rec[2], exc.value) from None
                            if end != len(rec[2]):
                                raise ValueError("trailing data after the payload")
                            if type(value) is not dict:
                                raise ValueError("payload is not an object")
                        elif value:
                            value = intern(value)
                        else:
                            raise ValueError("empty name")
                        yield kind, int(txn_id), value
                    except (KeyError, ValueError) as exc:
                        why = "unknown kind" if type(exc) is KeyError else exc
                        lineno = before + lines.index(line) + 1  # the first line with this text failed first
                        raise LogCorruptError(f"{path}:{lineno}: bad record {line!r}: {why}") from None
                if bad is not None:
                    raise LogCorruptError(bad)
                before += len(lines)
            # what is left in `held` is a torn last line: it was never written


def read_records(path: str, schema: dict) -> Records:
    """The records of the log at `path`, decoded against `schema` as they are read."""
    return Records(path, schema)
