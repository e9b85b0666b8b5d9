"""One checker for the shape of every loaded document, and one JSON reader.

A loader declares its document as a shape next to its parser and calls
`check` with its own error class before it reads anything. A refusal reads
`<path> must be <kind>, got <value!r>` or `<path>: missing '<key>'`, with the
path in JSON form (`actions[3].txn`). The path is built only while a refusal
unwinds, so a document that passes pays for the type checks alone. Keys an
object shape does not declare are ignored.
"""

from __future__ import annotations

import json


class _Mismatch(Exception):
    def __init__(self, shape, value, missing=None):
        self.shape, self.value, self.missing, self.path = shape, value, missing, []
        self.error = getattr(shape, "error", None)


class Kind:
    """Values of these exact JSON types (a bool is not an int) that pass `test`.
    A container tests an item's type itself and calls the item's `_check` only
    when its shape is `deep` (has a test or inner parts): one call less per item."""

    def __init__(self, types: tuple, kind: str, test=None, deep: bool = False) -> None:
        self.types, self.kind, self.test, self.deep = types, kind, test, deep or test is not None

    def _check(self, value) -> None:
        if type(value) not in self.types or (self.test and not self.test(value)):
            raise _Mismatch(self, value)


STR = Kind((str,), "a string")
INT = Kind((int,), "an integer")
UINT = Kind((int,), "a non-negative integer", (0).__le__)
BOOL = Kind((bool,), "a bool")
NULL = Kind((type(None),), "null")
OBJECT = Kind((dict,), "an object")
LIST = Kind((list, tuple), "a list")


def _is_name(v: str) -> bool:
    """Names become log fields and log file names."""
    if not v.isprintable() or "/" in v:  # printable: no tab, newline or lone surrogate
        return False
    return 0 < (len(v) if v.isascii() else len(v.encode())) <= 200  # in UTF-8 bytes


NAME = Kind((str,), "a name (printable, without '/', 1 to 200 bytes)", _is_name)


def one_of(*values: str) -> Kind:
    return Kind((str,), "one of " + ", ".join(map(repr, values)), frozenset(values).__contains__)


class Each(Kind):
    """A list (or an object) each of whose items (values) has one shape."""

    def __init__(self, container: Kind, item: Kind) -> None:
        super().__init__(container.types, container.kind, deep=True)
        self.item = item

    def _check(self, value) -> None:
        if type(value) not in self.types:
            raise _Mismatch(self, value)
        at, item = None, self.item
        try:
            for at, x in value.items() if type(value) is dict else enumerate(value):
                if type(x) not in item.types:
                    raise _Mismatch(item, x)
                if item.deep:
                    item._check(x)
        except _Mismatch as m:
            m.path.append(at)
            raise


class Obj(Kind):
    """An object with required and optional keys. A refusal from within it is
    an `error`, when one is given, so that a part another loader owns keeps
    that loader's error class inside a larger document."""

    def __init__(self, required: dict, optional: dict | None = None, error=None) -> None:
        super().__init__(OBJECT.types, OBJECT.kind, deep=True)
        self.required, self.error = required, error
        self.fields = tuple({**required, **(optional or {})}.items())

    def _check(self, value) -> None:
        if type(value) is not dict:
            raise _Mismatch(self, value)
        for key in self.required:
            if key not in value:
                raise _Mismatch(self, value, missing=key)
        key = None
        try:
            for key, shape in self.fields:
                if key in value:
                    x = value[key]
                    if type(x) not in shape.types:
                        raise _Mismatch(shape, x)
                    if shape.deep:
                        shape._check(x)
        except _Mismatch as m:
            m.path.append(key)
            m.error = m.error or self.error
            raise


class Tagged(Kind):
    """An object whose `tag` key picks its shape from `shapes`."""

    def __init__(self, tag: str, shapes: dict) -> None:
        super().__init__(OBJECT.types, OBJECT.kind, deep=True)
        self.tag, self.shapes, self._tag = tag, shapes, Obj({tag: one_of(*shapes)})

    def _check(self, value) -> None:
        self._tag._check(value)
        self.shapes[value[self.tag]]._check(value)

    def pick(self, value) -> Obj:
        """The object shape a checked value has."""
        shape = self.shapes[value[self.tag]]
        return shape.pick(value) if isinstance(shape, Tagged) else shape


class Either(Kind):
    """The first of `shapes` whose JSON types hold the value."""

    def __init__(self, *shapes: Kind) -> None:
        types, kind = sum((s.types for s in shapes), ()), " or ".join(s.kind for s in shapes)
        super().__init__(types, kind, deep=any(s.deep for s in shapes))
        self.shapes = shapes

    def _check(self, value) -> None:
        for shape in self.shapes:
            if type(value) in shape.types:
                return shape._check(value)
        raise _Mismatch(self, value)


def check(shape: Kind, value, error: type[Exception], root: str) -> None:
    """Raise `error` unless value has shape; `root` names the document itself."""
    try:
        shape._check(value)
    except _Mismatch as m:
        path = ""
        for at in reversed(m.path):
            path += f"[{at}]" if type(at) is int else f".{at}" if path else at
        path = root + path if path[:1] in ("", "[") else path
        error = m.error or error
        if m.missing is not None:
            raise error(f"{path}: missing {m.missing!r}") from None
        raise error(f"{path} must be {m.shape.kind}, got {m.value!r}") from None


def read_json(path: str, error: type[Exception], what: str):
    """The JSON document in a file, or an `error` that names the file as `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path!r} is not valid JSON: {exc}") from None
