"""Fixed-width record codec.

Legacy-style flat records: every field lives at a fixed offset with a fixed
length, numerics are right-aligned, text is space-padded, decimals carry an
implied decimal point. `typed` is the one rule for what each field kind
accepts. Encode is also strict about values the padding rules could not
round-trip (trailing spaces in left-aligned text, fractions that do not fit
the implied scale) so that decode(encode(v)) == v always holds for values
encode accepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import MAX_PREC, Context, Decimal
from typing import Mapping

from .errors import CodecError
from .shape import INT, LIST, NAME, Each, Obj, check, one_of

KINDS = ("text", "integer", "decimal")

_INT_RE = re.compile(r"[+-]?[0-9]+")
_DEC_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")

# scaling under this context never rounds, however many digits a value has
_EXACT = Context(prec=MAX_PREC)

_KIND_DEFAULTS = {
    "text": ("space", "left"),
    "integer": ("zero", "right"),
    "decimal": ("zero", "right"),
}

MESSAGE_SPEC = Obj({"record_length": INT}, {"fields": Each(LIST, Obj(
    {"name": NAME, "offset": INT, "length": INT, "kind": one_of(*KINDS)},
    {"pad": one_of("space", "zero"), "align": one_of("left", "right"), "scale": INT},
))})


@dataclass(frozen=True)
class FieldSpec:
    """One field of a fixed-width record. pad/align default by kind."""

    name: str
    offset: int
    length: int
    kind: str
    pad: str = ""
    align: str = ""
    scale: int = 0

    def __post_init__(self):
        if not self.name:
            raise CodecError("field name must be non-empty")
        if self.kind not in KINDS:
            raise CodecError(f"field {self.name}: unknown kind {self.kind!r}", self.name)
        if self.offset < 0 or self.length < 1:
            raise CodecError(f"field {self.name}: bad extent", self.name)
        d_pad, d_align = _KIND_DEFAULTS[self.kind]
        if not self.pad:
            object.__setattr__(self, "pad", d_pad)
        if not self.align:
            object.__setattr__(self, "align", d_align)
        if self.pad not in ("space", "zero"):
            raise CodecError(f"field {self.name}: bad pad {self.pad!r}", self.name)
        if self.align not in ("left", "right"):
            raise CodecError(f"field {self.name}: bad align {self.align!r}", self.name)
        if self.kind == "text" and self.pad != "space":
            raise CodecError(f"field {self.name}: text fields are space padded", self.name)
        if self.kind != "text" and self.align != "right":
            raise CodecError(f"field {self.name}: numeric fields are right aligned", self.name)
        if self.kind != "decimal" and self.scale != 0:
            raise CodecError(f"field {self.name}: scale applies to decimal only", self.name)
        if self.scale < 0 or self.scale >= self.length:
            raise CodecError(f"field {self.name}: scale out of range", self.name)

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class MessageSpec:
    """A full record layout: total length plus non-overlapping fields."""

    record_length: int
    fields: tuple[FieldSpec, ...]

    def __post_init__(self):
        if self.record_length < 0:
            raise CodecError("record_length must be >= 0")
        fields = self.fields
        names = frozenset([f.name for f in fields])
        if len(names) != len(fields):
            raise CodecError("duplicate field names")
        # The layout is worked out here, once: the name set the encoder checks
        # values against, and a template that places the cells, given in
        # declaration order, at their offsets with the gaps and tail as spaces.
        layout = sorted([(f.offset, i, f.offset + f.length) for i, f in enumerate(fields)])
        template, pos = "", 0
        for offset, i, end in layout:
            if end > self.record_length:
                raise CodecError(f"field {fields[i].name}: extends past record end", fields[i].name)
            template += " " * (offset - pos) + "{%d}" % i
            pos = end
        for (_, a, a_end), (b_offset, b, _) in zip(layout, layout[1:]):
            if a_end > b_offset:
                raise CodecError(f"fields {fields[a].name} and {fields[b].name} overlap", fields[b].name)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_template", template + " " * (self.record_length - pos))

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise CodecError(f"no field named {name!r}", name)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MessageSpec":
        check(MESSAGE_SPEC, doc, CodecError, "message spec")
        return cls.from_checked(doc)

    @classmethod
    def from_checked(cls, doc: Mapping) -> "MessageSpec":
        """The spec of a document that MESSAGE_SPEC has passed."""
        fields = tuple(
            FieldSpec(
                fd["name"], fd["offset"], fd["length"], fd["kind"],
                fd.get("pad", ""), fd.get("align", ""), fd.get("scale", 0),
            )
            for fd in doc.get("fields", ())
        )
        return cls(record_length=doc["record_length"], fields=fields)


def typed(kind: str, value, name: str):
    """The value as a field of this kind holds it (str, int or finite Decimal),
    or a CodecError. Numeric strings are ASCII digits with an optional sign
    (and, for decimals, point and exponent); booleans are not numbers."""
    if kind == "text":
        if isinstance(value, str):
            return value
    elif isinstance(value, bool):
        pass
    elif kind == "integer":
        if isinstance(value, int):
            return value
        if isinstance(value, str) and _INT_RE.fullmatch(value.strip()):
            try:
                return int(value)
            except ValueError:  # more digits than int() parses
                raise CodecError(f"field {name}: integer has too many digits", name) from None
    elif kind == "decimal":
        if isinstance(value, str) and _DEC_RE.fullmatch(value.strip()):
            return Decimal(value)
        if isinstance(value, (int, float, Decimal)):
            d = value if isinstance(value, Decimal) else Decimal(str(value))
            if d.is_finite():
                return d
    raise CodecError(f"field {name}: expected {kind}, got {value!r}", name)


def _render_text(f: FieldSpec, value: str) -> str:
    if len(value) > f.length:
        raise CodecError(f"field {f.name}: value too long for width {f.length}", f.name)
    # printable ASCII is exactly U+0020..U+007E
    if not (value.isascii() and value.isprintable()):
        raise CodecError(f"field {f.name}: non-printable character", f.name)
    # Padding is stripped on decode, so values that already carry pad-side
    # spaces would not round-trip. Refuse them.
    if f.align == "left" and value.rstrip(" ") != value:
        raise CodecError(f"field {f.name}: trailing spaces would be lost", f.name)
    if f.align == "right" and value.lstrip(" ") != value:
        raise CodecError(f"field {f.name}: leading spaces would be lost", f.name)
    return value.ljust(f.length) if f.align == "left" else value.rjust(f.length)


def _render_units(f: FieldSpec, n: int) -> str:
    try:
        s = str(n)
    except ValueError:  # more digits than str() prints, so far wider than any field
        raise CodecError(f"field {f.name}: integer overflows width {f.length}", f.name) from None
    if len(s) > f.length:
        raise CodecError(f"field {f.name}: {s} overflows width {f.length}", f.name)
    return s.zfill(f.length) if f.pad == "zero" else s.rjust(f.length)


def _to_units(f: FieldSpec, d: Decimal) -> int:
    """Scale a decimal value to integer units per the field's implied scale.
    The leading digit's exponent is checked first, so a value too large or
    too small for the field is refused without scaling it."""
    if d and not -f.scale <= d.adjusted() < f.length - f.scale:
        if d.adjusted() > 0:
            raise CodecError(f"field {f.name}: {d} overflows width {f.length}", f.name)
        raise CodecError(f"field {f.name}: {d} does not fit scale {f.scale}", f.name)
    scaled = d.scaleb(f.scale, _EXACT)
    if scaled != scaled.to_integral_value():
        raise CodecError(f"field {f.name}: {d} does not fit scale {f.scale}", f.name)
    return int(scaled)


def encode_record(spec: MessageSpec, values: Mapping) -> str:
    """Render a complete record. Every spec field must have a value of its
    kind (see `typed`); unknown value names are rejected so mapping typos
    surface here."""
    names = spec._names
    if not names.issuperset(values):
        raise CodecError(f"values for unknown fields: {sorted(set(values) - names)}")
    cells = []  # in declaration order, so the first bad field declared is the one reported
    for f in spec.fields:
        if f.name not in values:
            raise CodecError(f"no value for field {f.name}", f.name)
        value = typed(f.kind, values[f.name], f.name)
        if f.kind == "text":
            cell = _render_text(f, value)
        elif f.kind == "integer":
            cell = _render_units(f, value)
        else:
            cell = _render_units(f, _to_units(f, value))
        cells.append(cell)
    return spec._template.format(*cells)


def _parse_units(f: FieldSpec, raw: str) -> int:
    stripped = raw.strip(" ")
    if not _INT_RE.fullmatch(stripped):
        raise CodecError(f"field {f.name}: cannot parse {raw!r}", f.name)
    return int(stripped)


def decode_record(spec: MessageSpec, record: str) -> dict:
    """Parse a record back into typed values: str, int, or Decimal."""
    if len(record) != spec.record_length:
        raise CodecError(
            f"record length {len(record)} != spec length {spec.record_length}"
        )
    out = {}
    for f in spec.fields:
        raw = record[f.offset : f.end]
        if f.kind == "text":
            out[f.name] = raw.rstrip(" ") if f.align == "left" else raw.lstrip(" ")
        elif f.kind == "integer":
            out[f.name] = _parse_units(f, raw)
        else:
            out[f.name] = Decimal(_parse_units(f, raw)).scaleb(-f.scale, _EXACT)
    return out
