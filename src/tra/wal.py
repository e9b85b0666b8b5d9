"""Append-only write-ahead logs and their one reader.

Every log holds one record per line, `KIND<tab>txn-id[<tab>field]`; the writer
takes the fields as text, which its caller stringified once. Each log declares
a schema, record kind -> what follows the id: nothing (None), a non-empty name
(NAME), or a JSON object (PAYLOAD) whose inside its reader checks. A torn last
line (no newline) was never written: the reader skips it and the writer cuts
it off. Any other malformed line is corruption.
"""

from __future__ import annotations

import gc
import json
import os

from .errors import LogCorruptError

NAME = "name"
PAYLOAD = "payload"

# json's C scanner: one value at an index, with no whitespace skipped before
# it and no check of what follows; writers put compact JSON alone in a field
_scan_json = json.JSONDecoder().scan_once


class LogWriter:
    """Unbuffered, so a record is in the file before its caller acts on it. A
    crash loses memory, not the OS, so that is durable without an fsync."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "ab+", buffering=0)
        fd, end = self._fh.fileno(), self._fh.seek(0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":  # cut a torn last record off
            self._fh.truncate(os.pread(fd, end, 0).rfind(b"\n") + 1)

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


def read_records(path: str, schema: dict) -> list[tuple]:
    """Decode a log's records against its schema; a missing log reads as empty."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []
    data = data[: data.rfind(b"\n") + 1]  # drop a torn last record
    try:
        lines = data.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LogCorruptError(f"{path}:{lineno}: bad record: {exc.reason}") from None
    records = []
    collecting = gc.isenabled()
    gc.disable()  # the records hold no cycles: spare the heap rescans as they pile up
    try:
        for line in lines:
            rec = line.split("\t")
            try:
                field = schema[rec[0]]
                if field is None:
                    kind, txn_id = rec
                    records.append((kind, int(txn_id)))
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
                elif not value:
                    raise ValueError("empty name")
                records.append((kind, int(txn_id), value))
            except (KeyError, ValueError) as exc:
                why = "unknown kind" if type(exc) is KeyError else exc
                lineno = lines.index(line) + 1  # the first line with this text failed first
                raise LogCorruptError(f"{path}:{lineno}: bad record {line!r}: {why}") from None
    finally:
        if collecting:
            gc.enable()
    return records
