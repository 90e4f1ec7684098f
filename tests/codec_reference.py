"""Interpretive reference codec that the compiled ``kerbpk.codec`` must match.

This walks each schema's declared field list on every call and copies each
nested value out of its parent.  It reads the schemas registered with
``kerbpk.codec`` and is used only by tests, which compare bytes, decoded
objects, exception classes and messages between the two.
"""

from __future__ import annotations

from typing import Any

from kerbpk import codec
from kerbpk.errors import (
    FieldTooLarge,
    MalformedValue,
    SchemaMismatch,
    TrailingGarbage,
    Truncated,
    UnknownTag,
)

_HEADER = codec._HEADER
_MAX_FIELD = 0xFFFFFFFF
_INT_WIDTH = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}


def _field(tag: int, value: bytes) -> bytes:
    if len(value) > _MAX_FIELD:
        raise FieldTooLarge(f"field value of {len(value)} bytes exceeds u32 length")
    return _HEADER.pack(tag, len(value)) + bytes(value)


def _encode_value(kind: str, arg, value: Any) -> bytes:
    width = _INT_WIDTH.get(kind)
    if width is not None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise MalformedValue(f"expected int for {kind}, got {type(value).__name__}")
        if value < 0 or value >= 1 << (8 * width):
            raise FieldTooLarge(f"{value} does not fit in {kind}")
        return value.to_bytes(width, "big")
    if kind == "bytes":
        if not isinstance(value, (bytes, bytearray)):
            raise MalformedValue(f"expected bytes, got {type(value).__name__}")
        return bytes(value)
    if kind == "str":
        if not isinstance(value, str):
            raise MalformedValue(f"expected str, got {type(value).__name__}")
        return value.encode("utf-8")
    if kind == "struct":
        return encode(value)
    if kind == "opt":
        return b"" if value is None else encode(value)
    return b"".join(encode(item) for item in value)


def encode(obj: Any) -> bytes:
    schema = codec._by_type.get(type(obj))
    if schema is None:
        raise TypeError(f"no schema registered for {type(obj).__name__}")
    parts = []
    for index, (name, kind, arg) in enumerate(schema.fields, start=1):
        parts.append(_field(index, _encode_value(kind, arg, getattr(obj, name))))
    return _field(schema.schema_id, b"".join(parts))


def _read_tlv(data: bytes, off: int) -> tuple[int, bytes, int]:
    if off + _HEADER.size > len(data):
        raise Truncated(f"need {_HEADER.size} header bytes at offset {off}, have {len(data) - off}")
    tag, length = _HEADER.unpack_from(data, off)
    end = off + _HEADER.size + length
    if end > len(data):
        raise Truncated(f"field at offset {off} declares {length} bytes, {len(data) - off - _HEADER.size} remain")
    return tag, data[off + _HEADER.size:end], end


def _decode_value(kind: str, arg, value: bytes):
    width = _INT_WIDTH.get(kind)
    if width is not None:
        if len(value) != width:
            raise MalformedValue(f"{kind} field has {len(value)} bytes")
        return int.from_bytes(value, "big")
    if kind == "bytes":
        return value
    if kind == "str":
        try:
            return value.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedValue(f"invalid UTF-8 in string field: {exc}") from None
    if kind == "struct":
        return _decode_exact(value, _require_schema(arg))
    if kind == "opt":
        if not value:
            return None
        return _decode_exact(value, _require_schema(arg))
    items = []
    pos = 0
    schema = _require_schema(arg)
    while pos < len(value):
        item, pos = _decode_at(value, pos, schema)
        items.append(item)
    return items


def _require_schema(cls: type):
    schema = codec._by_type.get(cls)
    if schema is None:
        raise TypeError(f"no schema registered for {cls.__name__}")
    return schema


def _decode_at(data: bytes, off: int, schema) -> tuple[Any, int]:
    tag, value, end = _read_tlv(data, off)
    if tag != schema.schema_id:
        if tag in codec._KNOWN_IDS:
            raise SchemaMismatch(f"expected schema {schema.schema_id:#x}, found {tag:#x}")
        raise UnknownTag(f"unknown schema tag {tag:#x}")
    kwargs = {}
    pos = 0
    for index, (name, kind, arg) in enumerate(schema.fields, start=1):
        if pos >= len(value):
            raise Truncated(f"missing field {index} ({name}) of {schema.cls.__name__}")
        ftag, fval, pos = _read_tlv(value, pos)
        if ftag != index:
            raise UnknownTag(f"expected field tag {index} in {schema.cls.__name__}, found {ftag}")
        kwargs[name] = _decode_value(kind, arg, fval)
    if pos != len(value):
        raise TrailingGarbage(f"{len(value) - pos} unread bytes inside {schema.cls.__name__}")
    return schema.cls(**kwargs), end


def _decode_exact(data: bytes, schema) -> Any:
    obj, end = _decode_at(data, 0, schema)
    if end != len(data):
        raise TrailingGarbage(f"{len(data) - end} bytes after {schema.cls.__name__}")
    return obj


def decode(data: bytes, expected: int) -> Any:
    schema = codec._by_id.get(int(expected))
    if schema is None:
        raise TypeError(f"no schema registered for id {int(expected):#x}")
    return _decode_exact(bytes(data), schema)
