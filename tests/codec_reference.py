"""Interpretive reference codec that the compiled ``kerbpk.codec`` must match.

It states the wire format on its own terms and imports nothing of
``kerbpk.codec``: it keeps its own table of schema ids, reads each field's kind
from the class annotations on every call, and copies each nested value out of
its parent.  Tests compare bytes, decoded objects, exception classes and
messages between the two.

The rule: a whole encoding is one TLV tagged with the schema id, around the
field TLVs tagged 1..n.  A nested structure's field value is its field TLVs
alone, with no header of its own; an optional one that is absent is empty.  A
list's value is its items' whole encodings, back to back.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Annotated, Any, Union, get_args, get_origin, get_type_hints

from kerbpk.app import AppRequest, AppResponse
from kerbpk.client import CredentialCacheFile, CredEntry, IdentityFile, ServiceCred
from kerbpk.crypto import SymmetricKey
from kerbpk.errors import (
    FieldTooLarge,
    MalformedValue,
    SchemaMismatch,
    TrailingGarbage,
    Truncated,
    UnknownTag,
)
from kerbpk.gss import ContextAuthenticator, WrapToken
from kerbpk.kdc import PrincipalRecord, ServiceKeyFile
from kerbpk.messages import (ApEncPart, ApReply, ApRequest, AsEncPart, AsReply, AsRequest,
                             Authenticator, Certificate, Principal, SealedTicket, TgsAuthenticator,
                             TgsEncPart, TgsReply, TgsRequest, TicketBody, Validity)
from kerbpk.transport import ErrorReply

_HEADER = struct.Struct(">BI")
_MAX_FIELD = 0xFFFFFFFF
_INT_WIDTH = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}

#: Every structure on the wire or on disk, by schema id.
SCHEMAS = {
    0x01: AsRequest, 0x02: AsReply, 0x03: TgsRequest, 0x04: TgsReply,
    0x05: ApRequest, 0x06: ApReply, 0x07: SealedTicket, 0x08: Authenticator,
    0x0A: WrapToken, 0x0B: AsEncPart, 0x0C: TgsEncPart, 0x0D: ApEncPart,
    0x10: Principal, 0x11: Certificate, 0x12: Validity, 0x13: TicketBody,
    0x15: SymmetricKey, 0x17: ContextAuthenticator,
    0x1B: TgsAuthenticator,
    0x20: PrincipalRecord, 0x21: CredentialCacheFile, 0x22: CredEntry,
    0x23: ServiceKeyFile, 0x24: IdentityFile, 0x25: ServiceCred,
    0x30: AppRequest, 0x31: AppResponse, 0x3F: ErrorReply,
}
SCHEMA_ID = {cls: schema_id for schema_id, cls in SCHEMAS.items()}

#: The request bodies that signatures and digests cover: known, not decodable.
BODY_IDS = {"AP_REQ_BODY": 0x19, "TGS_REQ_BODY": 0x1A, "AS_REQ_BODY": 0x1C}
KNOWN_IDS = set(SCHEMAS) | set(BODY_IDS.values())


def fields(cls: type) -> list[tuple[str, str, Any]]:
    """(name, kind, nested class or None) for each init field of ``cls``, in order."""
    hints = get_type_hints(cls, include_extras=True)
    out = []
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        hint = hints[f.name]
        origin, args = get_origin(hint), get_args(hint)
        if hint in (bytes, str):
            out.append((f.name, hint.__name__, None))
        elif origin is Annotated:
            out.append((f.name, args[1], None))
        elif origin is Union:
            out.append((f.name, "opt", args[0]))
        elif origin is list:
            out.append((f.name, "list", args[0]))
        else:
            out.append((f.name, "struct", hint))
    return out


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
    if kind == "opt" and value is None:
        return b""
    if kind in ("struct", "opt"):
        if type(value) is not arg:
            raise MalformedValue(f"expected {arg.__name__}, got {type(value).__name__}")
        return encode_fields(value)
    items = []
    for item in value:
        if type(item) is not arg:
            raise MalformedValue(f"expected {arg.__name__} items, got {type(item).__name__}")
        items.append(encode(item))
    return b"".join(items)


def encode_fields(obj: Any) -> bytes:
    """The field TLVs of ``obj``, with no header around them."""
    return b"".join(_field(index, _encode_value(kind, arg, getattr(obj, name)))
                    for index, (name, kind, arg) in enumerate(fields(type(obj)), start=1))


def encode(obj: Any) -> bytes:
    schema_id = SCHEMA_ID.get(type(obj))
    if schema_id is None:
        raise TypeError(f"no schema registered for {type(obj).__name__}")
    return _field(schema_id, encode_fields(obj))


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
    if kind == "opt" and not value:
        return None
    if kind in ("struct", "opt"):
        return decode_fields(value, arg)
    items = []
    pos = 0
    while pos < len(value):
        item, pos = _decode_at(value, pos, arg)
        items.append(item)
    return items


def decode_fields(value: bytes, cls: type) -> Any:
    """A ``cls`` from field TLVs that fill ``value`` exactly."""
    kwargs = {}
    pos = 0
    for index, (name, kind, arg) in enumerate(fields(cls), start=1):
        if pos >= len(value):
            raise Truncated(f"missing field {index} ({name}) of {cls.__name__}")
        ftag, fval, pos = _read_tlv(value, pos)
        if ftag != index:
            raise UnknownTag(f"expected field tag {index} in {cls.__name__}, found {ftag}")
        kwargs[name] = _decode_value(kind, arg, fval)
    if pos != len(value):
        raise TrailingGarbage(f"{len(value) - pos} unread bytes inside {cls.__name__}")
    return cls(**kwargs)


def _decode_at(data: bytes, off: int, cls: type) -> tuple[Any, int]:
    tag, value, end = _read_tlv(data, off)
    if tag != SCHEMA_ID[cls]:
        if tag in KNOWN_IDS:
            raise SchemaMismatch(f"expected schema {SCHEMA_ID[cls]:#x}, found {tag:#x}")
        raise UnknownTag(f"unknown schema tag {tag:#x}")
    return decode_fields(value, cls), end


def decode(data: bytes, expected: int) -> Any:
    cls = SCHEMAS.get(int(expected))
    if cls is None:
        raise TypeError(f"no schema registered for id {int(expected):#x}")
    data = bytes(data)
    obj, end = _decode_at(data, 0, cls)
    if end != len(data):
        raise TrailingGarbage(f"{len(data) - end} bytes after {cls.__name__}")
    return obj
