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
from .transport import TableSession

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


class BackendSession(TableSession):
    """Plain app session: each AppRequest frame runs the handler, and its
    AppResponse is the reply.  Any other frame, or a handler that raises,
    gets an ErrorReply, and then the connection closes."""

    def __init__(self, handler: Callable[[AppRequest], AppResponse] = echo_handler):
        super().__init__({codec.SchemaId.APP_REQUEST: lambda request, now: handler(request)})
