"""Fixed-width codec: round-trip property plus the strictness rules."""

from decimal import Decimal

import pytest
from hypothesis import assume, example, given, strategies as st

from tra.errors import CodecError
from tra.records import FieldSpec, MessageSpec, decode_record, encode_record

# Printable ASCII without the space character, so padding can never collide
# with value content in generated cases.
_TEXT = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0,
    max_size=12,
)


@st.composite
def spec_and_values(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    fields = []
    values = {}
    offset = 0
    for i in range(n):
        offset += draw(st.integers(min_value=0, max_value=2))
        kind = draw(st.sampled_from(("text", "integer", "decimal")))
        length = draw(st.integers(min_value=1, max_value=10))
        name = f"f{i}"
        if kind == "text":
            align = draw(st.sampled_from(("left", "right")))
            fields.append(FieldSpec(name, offset, length, "text", align=align))
            values[name] = draw(
                st.text(
                    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                    min_size=0,
                    max_size=length,
                )
            )
        elif kind == "integer":
            pad = draw(st.sampled_from(("zero", "space")))
            fields.append(FieldSpec(name, offset, length, "integer", pad=pad))
            lo = -(10 ** (length - 1)) + 1 if length > 1 else 0
            values[name] = draw(st.integers(min_value=lo, max_value=10**length - 1))
        else:
            scale = draw(st.integers(min_value=0, max_value=min(length - 1, 4)))
            fields.append(FieldSpec(name, offset, length, "decimal", scale=scale))
            lo = -(10 ** (length - 1)) + 1 if length > 1 else 0
            units = draw(st.integers(min_value=lo, max_value=10**length - 1))
            values[name] = Decimal(units).scaleb(-scale)
        offset += length
    trailer = draw(st.integers(min_value=0, max_value=3))
    return MessageSpec(record_length=offset + trailer, fields=tuple(fields)), values


@given(spec_and_values())
def test_round_trip(case):
    spec, values = case
    record = encode_record(spec, values)
    assert len(record) == spec.record_length
    assert decode_record(spec, record) == values


def test_known_encoding():
    spec = MessageSpec(
        record_length=16,
        fields=(
            FieldSpec("id", 0, 6, "text"),
            FieldSpec("qty", 6, 4, "integer"),
            FieldSpec("amt", 10, 6, "decimal", scale=2),
        ),
    )
    record = encode_record(spec, {"id": "AB12", "qty": 7, "amt": Decimal("12.50")})
    assert record == "AB12  0007001250"
    assert decode_record(spec, record) == {
        "id": "AB12",
        "qty": 7,
        "amt": Decimal("12.50"),
    }


def test_interior_spaces_survive():
    spec = MessageSpec(record_length=8, fields=(FieldSpec("t", 0, 8, "text"),))
    assert decode_record(spec, encode_record(spec, {"t": "a b c"}))["t"] == "a b c"


def test_gap_bytes_are_spaces():
    spec = MessageSpec(record_length=6, fields=(FieldSpec("n", 4, 2, "integer"),))
    assert encode_record(spec, {"n": 5}) == "    05"


def test_integer_accepts_digit_strings():
    spec = MessageSpec(record_length=4, fields=(FieldSpec("n", 0, 4, "integer"),))
    assert encode_record(spec, {"n": "42"}) == "0042"
    with pytest.raises(CodecError):
        encode_record(spec, {"n": True})
    with pytest.raises(CodecError):
        encode_record(spec, {"n": "4_2"})


def test_negative_numbers_round_trip():
    spec = MessageSpec(
        record_length=10,
        fields=(
            FieldSpec("n", 0, 4, "integer"),
            FieldSpec("d", 4, 6, "decimal", scale=2),
        ),
    )
    rec = encode_record(spec, {"n": -3, "d": Decimal("-1.25")})
    assert decode_record(spec, rec) == {"n": -3, "d": Decimal("-1.25")}


@pytest.mark.parametrize(
    "value",
    ["toolongvalue", "tab\there", "trailing ", 12],
)
def test_text_rejections(value):
    spec = MessageSpec(record_length=8, fields=(FieldSpec("t", 0, 8, "text"),))
    with pytest.raises(CodecError):
        encode_record(spec, {"t": value})


@pytest.mark.parametrize(
    "align, value, message",
    [("left", "ab ", "trailing spaces would be lost"), ("right", " ab", "leading spaces would be lost")],
)
def test_text_refuses_spaces_on_its_pad_side(align, value, message):
    spec = MessageSpec(record_length=8, fields=(FieldSpec("t", 0, 8, "text", align=align),))
    with pytest.raises(CodecError, match=f"field t: {message}"):
        encode_record(spec, {"t": value})


def test_overflow_and_scale_rejections():
    spec = MessageSpec(
        record_length=8,
        fields=(
            FieldSpec("n", 0, 3, "integer"),
            FieldSpec("d", 3, 5, "decimal", scale=2),
        ),
    )
    with pytest.raises(CodecError):
        encode_record(spec, {"n": 1000, "d": Decimal("1")})
    with pytest.raises(CodecError):
        encode_record(spec, {"n": 1, "d": Decimal("0.123")})


def test_missing_and_unknown_values():
    spec = MessageSpec(record_length=4, fields=(FieldSpec("a", 0, 4, "text"),))
    with pytest.raises(CodecError):
        encode_record(spec, {})
    with pytest.raises(CodecError):
        encode_record(spec, {"a": "x", "b": "y"})


def test_decode_length_and_junk():
    spec = MessageSpec(record_length=4, fields=(FieldSpec("n", 0, 4, "integer"),))
    with pytest.raises(CodecError):
        decode_record(spec, "123")
    with pytest.raises(CodecError):
        decode_record(spec, "12x4")


def test_spec_validation():
    with pytest.raises(CodecError, match="field name must be non-empty"):
        FieldSpec("", 0, 4, "text")
    with pytest.raises(CodecError, match="field x: bad pad 'dots'"):
        FieldSpec("x", 0, 4, "integer", pad="dots")
    with pytest.raises(CodecError, match="field x: bad align 'center'"):
        FieldSpec("x", 0, 4, "text", align="center")
    with pytest.raises(CodecError):
        FieldSpec("x", 0, 4, "float")
    with pytest.raises(CodecError):
        FieldSpec("x", 0, 4, "integer", align="left")
    with pytest.raises(CodecError):
        FieldSpec("x", 0, 4, "text", pad="zero")
    with pytest.raises(CodecError):
        FieldSpec("x", 0, 4, "integer", scale=2)
    with pytest.raises(CodecError):
        FieldSpec("x", 0, 4, "decimal", scale=4)
    with pytest.raises(CodecError):
        MessageSpec(4, (FieldSpec("a", 0, 3, "text"), FieldSpec("b", 2, 2, "text")))
    with pytest.raises(CodecError):
        MessageSpec(4, (FieldSpec("a", 0, 8, "text"),))
    with pytest.raises(CodecError):
        MessageSpec(8, (FieldSpec("a", 0, 2, "text"), FieldSpec("a", 4, 2, "text")))


def test_a_message_spec_from_a_document_names_its_fields():
    spec = MessageSpec.from_dict(
        {"record_length": 6, "fields": [{"name": "n", "offset": 2, "length": 4, "kind": "integer"}]}
    )
    assert spec == MessageSpec(6, (FieldSpec("n", 2, 4, "integer"),))
    assert spec.field("n").pad == "zero"
    with pytest.raises(CodecError, match="no field named 'm'"):
        spec.field("m")


@pytest.mark.parametrize(
    "value",
    ["Infinity", "-inf", "NaN", "sNaN", Decimal("Infinity")],
    ids=["Infinity", "-inf", "NaN", "sNaN", "Decimal-Infinity"],
)
def test_non_finite_decimals_are_refused(value):
    spec = MessageSpec(record_length=6, fields=(FieldSpec("d", 0, 6, "decimal", scale=2),))
    with pytest.raises(CodecError, match="expected decimal"):
        encode_record(spec, {"d": value})


@pytest.mark.parametrize(
    "kind, value, message",
    [
        ("decimal", "1e999999999", "overflows width 8"),
        ("decimal", "-1e999999999", "overflows width 8"),
        ("decimal", "1e999990", "overflows width 8"),
        ("decimal", Decimal("1e999999999"), "overflows width 8"),
        ("decimal", "1e-999999999", "does not fit scale 2"),
        ("decimal", "1e-1500000000000000000", "does not fit scale 2"),
        ("integer", "9" * 5000, "integer has too many digits"),
        ("integer", 10**5000, "integer overflows width 8"),
    ],
    ids=[
        "decimal-huge", "decimal-huge-negative", "decimal-past-int-digits", "decimal-object-huge",
        "decimal-tiny", "decimal-tiny-past-etiny", "integer-string-5000-digits", "integer-5000-digits",
    ],
)
def test_oversized_numbers_are_codec_errors(kind, value, message):
    scale = 2 if kind == "decimal" else 0
    spec = MessageSpec(record_length=8, fields=(FieldSpec("n", 0, 8, kind, scale=scale),))
    with pytest.raises(CodecError, match=f"field n: .*{message}"):
        encode_record(spec, {"n": value})


def test_zero_with_a_huge_exponent_still_fits():
    spec = MessageSpec(record_length=8, fields=(FieldSpec("d", 0, 8, "decimal", scale=2),))
    assert encode_record(spec, {"d": "0e999999999"}) == "00000000"
    assert encode_record(spec, {"d": "999999.99"}) == "99999999"
    assert decode_record(spec, "99999999") == {"d": Decimal("999999.99")}


def test_decimals_past_28_digits_are_exact_or_refused():
    spec = MessageSpec(record_length=30, fields=(FieldSpec("d", 0, 30, "decimal", scale=2),))
    wide = Decimal("123456789012345678901234567.89")  # 29 significant digits
    assert decode_record(spec, encode_record(spec, {"d": wide}))["d"] == wide
    narrow = MessageSpec(record_length=12, fields=(FieldSpec("d", 0, 12, "decimal", scale=2),))
    with pytest.raises(CodecError, match="does not fit scale 2"):
        encode_record(narrow, {"d": "1234567.0000000000000000000000000001"})


# text from every Unicode category (lone surrogates and control characters
# included), with the ASCII edges of the printable range mixed in
_ANY_TEXT = st.text(
    st.one_of(
        st.characters(categories=("L", "M", "N", "P", "S", "Z", "C")),
        st.sampled_from([" ", "~", "\x1f", "\x7f", "\x80", "\t", "\u00e9", "\ud800"]),
    ),
    max_size=12,
)


@given(_ANY_TEXT)
@example("\u00e9")
@example("\x7f")
@example("a\tb")
@example("\ud800")
@example("")
def test_printable_rule_is_exactly_u0020_to_u007e(value):
    value = value.rstrip(" ")  # trailing spaces are refused by a rule of their own
    spec = MessageSpec(12, (FieldSpec("f", 0, 12, "text"),))
    printable = all(32 <= ord(c) < 127 for c in value)
    try:
        record = encode_record(spec, {"f": value})
    except CodecError as exc:
        assert not printable
        assert str(exc) == "field f: non-printable character"
    else:
        assert printable
        assert record == value.ljust(12)


def _reference_encode(spec, values):
    """The record as a buffer of spaces with each field's cell slice-assigned
    at its offset, fields taken in declaration order; each cell is the
    field's own one-field record."""
    buf = [" "] * spec.record_length
    for f in spec.fields:
        alone = MessageSpec(f.length, (FieldSpec(f.name, 0, f.length, f.kind, f.pad, f.align, f.scale),))
        buf[f.offset : f.end] = encode_record(alone, {f.name: values[f.name]})
    return "".join(buf)


@st.composite
def shuffled_spec_and_values(draw):
    """A spec with gaps and a tail whose fields are declared in any order."""
    spec, values = draw(spec_and_values())
    fields = tuple(draw(st.permutations(spec.fields)))
    return MessageSpec(spec.record_length, fields), values


@given(shuffled_spec_and_values())
def test_encode_matches_the_buffer_reference(case):
    spec, values = case
    record = encode_record(spec, values)
    assert record == _reference_encode(spec, values)
    assert decode_record(spec, record) == values


@given(shuffled_spec_and_values(), st.data())
def test_the_first_declared_bad_field_is_reported(case, data):
    spec, values = case
    assume(len(spec.fields) >= 2)
    i, j = sorted(data.draw(st.lists(
        st.integers(0, len(spec.fields) - 1), min_size=2, max_size=2, unique=True
    )))
    bad = dict(values)
    for f in (spec.fields[i], spec.fields[j]):
        bad[f.name] = 5 if f.kind == "text" else "x"
    with pytest.raises(CodecError) as exc:
        encode_record(spec, bad)
    first = spec.fields[i]
    assert exc.value.field == first.name
    assert str(exc.value) == f"field {first.name}: expected {first.kind}, got {bad[first.name]!r}"
