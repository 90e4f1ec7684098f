"""The plain application protocol: what a backend behind the gateway speaks.

One AppRequest frame in, one AppResponse frame out.  A response says whether
it came from a backend or the gateway's cache, so hit counting is observable
end to end.  A backend needs only this module, ``codec``, ``errors`` and
``transport``: it never loads the crypto provider or the ticket layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import codec
from .errors import KerbPkError
from .transport import error_reply

SERVED_BACKEND = 1
SERVED_CACHE = 2


@codec.structure(codec.SchemaId.APP_REQUEST)
@dataclass(frozen=True)
class AppRequest:
    method: str
    resource: str
    body: bytes


@codec.structure(codec.SchemaId.APP_RESPONSE)
@dataclass(frozen=True)
class AppResponse:
    status: codec.U16
    body: bytes
    served_from: codec.U8


def echo_handler(request: AppRequest) -> AppResponse:
    """Reference app behavior: answer 200 with the request body."""
    return AppResponse(200, request.body, SERVED_BACKEND)


class BackendSession:
    """Plain app session: decode a request, run the handler, answer.

    A frame of another schema closes the connection silently; a request that
    fails to decode, or whose handler raises, answers an ErrorReply and closes.
    """

    def __init__(self, handler: Callable[[AppRequest], AppResponse] = echo_handler):
        self.handler = handler

    def feed(self, payload: bytes, now: int) -> tuple[list[bytes], bool]:
        if codec.schema_id_of(payload) != codec.SchemaId.APP_REQUEST:
            return [], True
        try:
            request = codec.decode(payload, codec.SchemaId.APP_REQUEST)
            response = self.handler(request)
        except KerbPkError as exc:
            return [error_reply(exc)], True
        return [codec.encode(response)], False
