"""Deterministic tag-length-value codec for all wire structures.

Every structure is a frozen dataclass declared with ``@codec.structure(id)``.
Its init fields, in order, are the wire fields, and each field's annotation
names its kind: ``U8``/``U16``/``U32``/``U64`` for fixed-width integers,
``bytes``, ``str``, a registered dataclass, ``Optional`` of one, or a ``list``
of one.  Field order is the wire order and never changes once published.  The
encoding of a structure is one outer TLV whose tag is the schema id and whose
value is the concatenation of its field TLVs in that order, field tags
numbered 1..n.  A nested structure has one header, its field header: the
field's value is the nested field TLVs, and its position names its schema.
Each list item keeps its schema-id header, as a whole encoding does.  All
integers are fixed-width big-endian, strings are UTF-8.  There are no
defaults and no skipped fields, so equal values encode to identical bytes and
decode(encode(x)) == x.

Field header layout: tag (u8) then length (u32, big-endian), then the value.

Each schema is compiled once, when it is declared: every field gets its own
encoder and decoder holding its precomputed tag, header, integer width and
range, or nested schema, so no value looks up its field's kind, width, tag or
schema; a nested class is declared first, and an undeclared one fails at
import.  Decoding walks the one input buffer by offsets and copies out only
leaf values.  An encoded nested value must be an instance of exactly the
declared class.

A sealed part is a plain ``bytes`` field, its bare ciphertext: the seal binds
its label and any associated data, so the codec carries neither.  A request's
signature or digest covers every field but the last, under its body's own
schema id (``encode_body``).  Every ``SchemaId`` is a known tag, registered or
not; retired ids (0x09 context token, 0x14 sealed box, 0x16 key pair, 0x18 wrap
body) are never reused.  On disk, each structure is one line of hex, in files that only their
owner may read, because they hold keys.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from enum import IntEnum
from typing import Annotated, Any, Iterable, Optional, Union, get_args, get_origin, get_type_hints

from .errors import (
    FieldTooLarge,
    KerbPkError,
    MalformedValue,
    SchemaMismatch,
    TrailingGarbage,
    Truncated,
    UnknownTag,
)

_HEADER = struct.Struct(">BI")
_HEADER_SIZE = _HEADER.size
_MAX_FIELD = 0xFFFFFFFF


class SchemaId(IntEnum):
    AS_REQUEST = 0x01
    AS_REPLY = 0x02
    TGS_REQUEST = 0x03
    TGS_REPLY = 0x04
    AP_REQUEST = 0x05
    AP_REPLY = 0x06
    TICKET_SEALED = 0x07
    AUTHENTICATOR = 0x08
    WRAP_TOKEN = 0x0A
    ENC_PART_AS = 0x0B
    ENC_PART_TGS = 0x0C
    ENC_PART_AP = 0x0D

    PRINCIPAL = 0x10
    CERTIFICATE = 0x11
    VALIDITY = 0x12
    TICKET_BODY = 0x13
    SYMMETRIC_KEY = 0x15
    CONTEXT_AUTHENTICATOR = 0x17
    AP_REQ_BODY = 0x19
    TGS_REQ_BODY = 0x1A
    TGS_AUTHENTICATOR = 0x1B
    AS_REQ_BODY = 0x1C

    PRINCIPAL_RECORD = 0x20
    CREDENTIAL_CACHE = 0x21
    CRED_ENTRY = 0x22
    SERVICE_KEY_FILE = 0x23
    IDENTITY_FILE = 0x24
    SERVICE_CRED = 0x25

    APP_REQUEST = 0x30
    APP_RESPONSE = 0x31
    ERROR_REPLY = 0x3F


_KNOWN_IDS = frozenset(int(schema_id) for schema_id in SchemaId)

_INT_CODECS = {kind: struct.Struct(fmt) for kind, fmt in
               (("u8", ">B"), ("u16", ">H"), ("u32", ">I"), ("u64", ">Q"))}

# Integer field annotations; the metadata is the field's wire kind.
U8 = Annotated[int, "u8"]
U16 = Annotated[int, "u16"]
U32 = Annotated[int, "u32"]
U64 = Annotated[int, "u64"]


def _too_large(length: int) -> FieldTooLarge:
    return FieldTooLarge(f"field value of {length} bytes exceeds u32 length")


def _short_header(offset: int, have: int) -> Truncated:
    return Truncated(f"need {_HEADER_SIZE} header bytes at offset {offset}, have {have}")


def _overlong(offset: int, length: int, remain: int) -> Truncated:
    return Truncated(f"field at offset {offset} declares {length} bytes, {remain} remain")


def _require_schema(cls: type) -> "_Schema":
    schema = _by_type.get(cls)
    if schema is None:
        raise TypeError(f"no schema registered for {cls.__name__}")
    return schema


# Field codecs.  Each kind gets a pair built once per field: the encoder takes
# the attribute value and returns the whole field TLV; the decoder reads the
# value that a field header bounded to ``data[start:stop]``.

def _int_codec(tag: int, kind: str):
    packer = _INT_CODECS[kind]
    head = _HEADER.pack(tag, packer.size)
    limit = 1 << (8 * packer.size)

    def encode_int(value) -> bytes:
        if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
            raise MalformedValue(f"expected int for {kind}, got {type(value).__name__}")
        if value < 0 or value >= limit:
            raise FieldTooLarge(f"{value} does not fit in {kind}")
        return head + packer.pack(value)

    def decode_int(data: bytes, start: int, stop: int) -> int:
        if stop - start != packer.size:
            raise MalformedValue(f"{kind} field has {stop - start} bytes")
        return packer.unpack_from(data, start)[0]
    return encode_int, decode_int


def _bytes_codec(tag: int):
    def encode_bytes(value) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise MalformedValue(f"expected bytes, got {type(value).__name__}")
        if len(value) > _MAX_FIELD:
            raise _too_large(len(value))
        return _HEADER.pack(tag, len(value)) + value

    def decode_bytes(data: bytes, start: int, stop: int) -> bytes:
        return data[start:stop]
    return encode_bytes, decode_bytes


def _str_codec(tag: int):
    def encode_str(value) -> bytes:
        if not isinstance(value, str):
            raise MalformedValue(f"expected str, got {type(value).__name__}")
        raw = value.encode("utf-8")
        if len(raw) > _MAX_FIELD:
            raise _too_large(len(raw))
        return _HEADER.pack(tag, len(raw)) + raw

    def decode_str(data: bytes, start: int, stop: int) -> str:
        try:
            return data[start:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedValue(f"invalid UTF-8 in string field: {exc}") from None
    return encode_str, decode_str


def _struct_codec(tag: int, cls: type, optional: bool):
    """A nested ``cls`` value; ``optional`` (kind opt) also allows None."""
    sub = _require_schema(cls)

    def encode_struct(value) -> bytes:
        if type(value) is not cls:
            if optional and value is None:
                return _HEADER.pack(tag, 0)
            raise MalformedValue(f"expected {cls.__name__}, got {type(value).__name__}")
        return _encode_fields(tag, sub.encoders, value)

    def decode_struct(data: bytes, start: int, stop: int):
        if optional and start == stop:
            return None
        return sub.decode_fields(data, start, stop)
    return encode_struct, decode_struct


def _list_codec(tag: int, cls: type):
    sub = _require_schema(cls)

    def encode_list(items) -> bytes:
        parts = []
        for item in items:
            if type(item) is not cls:
                raise MalformedValue(f"expected {cls.__name__} items, got {type(item).__name__}")
            parts.append(_encode_fields(sub.schema_id, sub.encoders, item))
        raw = b"".join(parts)
        if len(raw) > _MAX_FIELD:
            raise _too_large(len(raw))
        return _HEADER.pack(tag, len(raw)) + raw

    def decode_list(data: bytes, start: int, stop: int) -> list:
        items = []
        pos = start
        while pos < stop:
            item, pos = sub.decode_at(data, pos, start, stop)
            items.append(item)
        return items
    return encode_list, decode_list


def _field_codec(tag: int, kind: str, cls):
    if kind in _INT_CODECS:
        return _int_codec(tag, kind)
    if kind == "bytes":
        return _bytes_codec(tag)
    if kind == "str":
        return _str_codec(tag)
    if kind == "list":
        return _list_codec(tag, cls)
    return _struct_codec(tag, cls, optional=kind == "opt")


def _encode_fields(tag: int, encoders: tuple, obj) -> bytes:
    """One TLV tagged ``tag`` holding the field TLVs that ``encoders`` make of ``obj``."""
    body = b"".join([encode_field(getattr(obj, name)) for name, encode_field in encoders])
    if len(body) > _MAX_FIELD:
        raise _too_large(len(body))
    return _HEADER.pack(tag, len(body)) + body


class _Schema:
    """One registered structure, with its field codecs built once."""

    __slots__ = ("schema_id", "cls", "fields", "encoders", "_decoders")

    def __init__(self, schema_id: int, cls: type, fields: tuple):
        self.schema_id = schema_id
        self.cls = cls
        self.fields = fields
        encoders, decoders = [], []
        for index, (name, kind, arg) in enumerate(fields, start=1):
            encode_field, decode_field = _field_codec(index, kind, arg)
            encoders.append((name, encode_field))
            decoders.append((index, name, decode_field))
        self.encoders = tuple(encoders)
        self._decoders = tuple(decoders)

    def decode_at(self, data: bytes, off: int, base: int, limit: int) -> tuple[Any, int]:
        """Decode the structure whose schema-id header is at ``off`` inside the
        value ``data[base:limit]``.

        Returns the object and the offset just after it.  Nothing the structure
        declares may reach past ``limit``; error messages give offsets from the
        start of the value that holds the header at fault.
        """
        if off + _HEADER_SIZE > limit:
            raise _short_header(off - base, limit - off)
        tag, length = _HEADER.unpack_from(data, off)
        pos = off + _HEADER_SIZE
        end = pos + length
        if end > limit:
            raise _overlong(off - base, length, limit - pos)
        if tag != self.schema_id:
            if tag in _KNOWN_IDS:
                raise SchemaMismatch(f"expected schema {self.schema_id:#x}, found {tag:#x}")
            raise UnknownTag(f"unknown schema tag {tag:#x}")
        return self.decode_fields(data, pos, end), end

    def decode_fields(self, data: bytes, pos: int, end: int) -> Any:
        """Decode the field TLVs that fill ``data[pos:end]`` exactly."""
        unpack_from = _HEADER.unpack_from
        body = pos
        values = []
        for index, name, decode_field in self._decoders:
            if pos >= end:
                raise Truncated(f"missing field {index} ({name}) of {self.cls.__name__}")
            if pos + _HEADER_SIZE > end:
                raise _short_header(pos - body, end - pos)
            tag, length = unpack_from(data, pos)
            start = pos + _HEADER_SIZE
            if start + length > end:
                raise _overlong(pos - body, length, end - start)
            pos = start + length
            if tag != index:
                raise UnknownTag(f"expected field tag {index} in {self.cls.__name__}, found {tag}")
            values.append(decode_field(data, start, pos))
        if pos != end:
            raise TrailingGarbage(f"{end - pos} unread bytes inside {self.cls.__name__}")
        return self.cls(*values)


_by_type: dict[type, _Schema] = {}
_by_id: dict[int, _Schema] = {}


def _field_kind(name: str, hint) -> tuple[str, Optional[type]]:
    """The wire kind and nested class that a field's annotation names."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is bytes or hint is str:
        return hint.__name__, None
    if origin is Annotated and args[0] is int and args[1] in _INT_CODECS:
        return args[1], None
    kind, nested = "struct", hint
    if origin is Union and len(args) == 2 and args[1] is type(None):
        kind, nested = "opt", args[0]
    elif origin is list and len(args) == 1:
        kind, nested = "list", args[0]
    if not (isinstance(nested, type) and dataclasses.is_dataclass(nested)):
        raise ValueError(f"field {name}: annotation {hint!r} has no wire kind")
    return kind, nested


def structure(schema_id: SchemaId):
    """Class decorator: register a dataclass under ``schema_id``.

    The wire fields are the dataclass's init fields, in order, each of the kind
    its annotation names.  The field encoders and decoders are built here,
    once, so a nested class must be declared before any class that holds it.
    """
    def register(cls: type) -> type:
        if int(schema_id) in _by_id:
            raise ValueError(f"schema id {schema_id:#x} registered twice")
        if not dataclasses.is_dataclass(cls):
            raise ValueError(f"{cls.__name__} is not a dataclass")
        hints = get_type_hints(cls, include_extras=True)
        fields = tuple((f.name, *_field_kind(f.name, hints[f.name]))
                       for f in dataclasses.fields(cls) if f.init)
        schema = _Schema(int(schema_id), cls, fields)
        _by_type[cls] = schema
        _by_id[int(schema_id)] = schema
        return cls
    return register


def schema_id_of(payload: bytes) -> Optional[int]:
    """Peek the leading schema id of an encoded structure, if recognizable."""
    if not payload:
        return None
    tag = payload[0]
    return tag if tag in _KNOWN_IDS else None


def encode(obj: Any) -> bytes:
    """Encode a registered structure to its canonical bytes."""
    schema = _require_schema(type(obj))
    return _encode_fields(schema.schema_id, schema.encoders, obj)


def encode_body(obj: Any, body_id: SchemaId) -> bytes:
    """Encode every field of ``obj`` but the last, as one structure tagged ``body_id``."""
    return _encode_fields(int(body_id), _require_schema(type(obj)).encoders[:-1], obj)


def decode(data: bytes, expected: SchemaId) -> Any:
    """Decode one structure; the leading tag must equal ``expected``."""
    schema = _by_id.get(int(expected))
    if schema is None:
        raise TypeError(f"no schema registered for id {int(expected):#x}")
    data = bytes(data)
    obj, end = schema.decode_at(data, 0, 0, len(data))
    if end != len(data):
        raise TrailingGarbage(f"{len(data) - end} bytes after {schema.cls.__name__}")
    return obj


# On-disk form: one structure per line, as the hex of its encoding.

def save_records(path: str, records: Iterable) -> None:
    """Replace ``path`` atomically with one hex line per structure, owner-only (keys)."""
    text = "".join(encode(record).hex() + "\n" for record in records)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "w",
              encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_text(path: str, error: type, what: str) -> str:
    """The UTF-8 text of ``path``; an unreadable file raises ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def load_records(path: str, expected: SchemaId, error: type, what: str) -> list:
    """Read what ``save_records`` wrote; every failure raises ``error``."""
    records = []
    for lineno, line in enumerate(read_text(path, error, what).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(decode(bytes.fromhex(line), expected))
        except (ValueError, KerbPkError) as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
    return records


def load_record(path: str, expected: SchemaId, error: type, what: str) -> Any:
    """Read a file that ``save_records`` wrote with exactly one structure."""
    records = load_records(path, expected, error, what)
    if len(records) != 1:
        raise error(f"{path}: expected exactly one {what} record, found {len(records)}")
    return records[0]
