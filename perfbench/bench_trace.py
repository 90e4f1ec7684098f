"""Span recorder and the wrappers that time kerbpk's layers from outside.

Each wrapper replaces one public function or method of a kerbpk module with a
version that records a span around the original call: a sequence id, the
enclosing span's id, a name, start and end (ns), self time (the duration minus
the spans directly inside it) and the op id the calling thread is working on
(-1 in server processes). Spans stay in memory; ``dump`` writes them out when
the run ends. Nothing in ``src/`` knows about this module.

The same ``install`` runs in the load generator and, through
``hook/sitecustomize.py``, in every server process the benchmark starts.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (seq, parent, name, start, end, self_ns, op, value)
        self._local = threading.local()
        self._seq = itertools.count(1)

    def set_op(self, op: int) -> None:
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name, value=None, flat: bool = False) -> None:
        """Record a span around ``owner.attr``.

        ``name`` is a span name or a function of the call's arguments.
        ``value(args, result, failed)`` gives the number the span carries, such
        as bytes encoded; without it a span carries 1 if the call raised.
        ``flat`` skips the span when the caller is already inside a span of the
        same name (recursive calls, such as nested structures in the codec).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer._stack()
            if flat and stack and stack[-1][2] == span_name:
                return original(*args, **kwargs)
            seq = next(tracer._seq)
            frame = [seq, stack[-1][0] if stack else 0, span_name, perf_counter_ns(), 0]
            stack.append(frame)
            failed = True
            result = None
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[3]
                if stack:
                    stack[-1][4] += duration
                carried = value(args, result, failed) if value is not None else int(failed)
                tracer.spans.append((seq, frame[1], span_name, frame[3], end,
                                     duration - frame[4], getattr(tracer._local, "op", -1),
                                     carried))

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every kerbpk layer."""
    from kerbpk import client, codec, gateway, gss, kdc, messages, scenario, transport
    from kerbpk.crypto import StandardProvider, ToyProvider

    wrap = tracer.wrap
    # codec: top-level calls only; nested structures recurse through encode
    wrap(codec, "encode", "codec.encode", flat=True, value=lambda a, r, f: 0 if f else len(r))
    wrap(codec, "decode", "codec.decode", value=lambda a, r, f: len(a[0]))

    for cls, tag in ((ToyProvider, "toy"), (StandardProvider, "std")):
        wrap(cls, "seal", f"crypto.{tag}.seal", value=lambda a, r, f: len(a[2]))
        wrap(cls, "open", f"crypto.{tag}.open")
        for method in ("sign", "verify", "pk_encrypt", "pk_decrypt"):
            wrap(cls, method, f"crypto.{tag}.pk")
        wrap(cls, "derive_key_from_password", f"crypto.{tag}.password")

    wrap(messages.ReplayCache, "check_and_insert", "messages.replay_check",
         value=lambda a, r, f: len(a[0]))
    # a rejected request raises inside handle; the session turns it into an ErrorReply
    wrap(kdc.KdcService, "handle", lambda a: "kdc.as" if a[1] == kdc.ROLE_AS else "kdc.tgs")

    wrap(client.ClientAgent, "kinit", "client.kinit")
    wrap(client, "request_service_ticket", "client.tgs")

    # an initiator's first leg (no input token) starts one handshake
    wrap(gss.ContextInitiator, "step", "gss.handshake", value=lambda a, r, f: int(a[1] is None))
    wrap(gss.ContextAcceptor, "step", "gss.handshake", value=lambda a, r, f: 0)
    wrap(gss.SecurityContext, "wrap", "gss.wrap")
    wrap(gss.SecurityContext, "unwrap", "gss.unwrap")

    wrap(transport.FrameClient, "__init__", "transport.connect")
    wrap(transport.FrameClient, "send", "transport.send")
    wrap(transport.FrameClient, "recv", "transport.recv_wait")
    wrap(transport.FrameClient, "close", "transport.close")
    wrap(transport.SimConnection, "send", "transport.sim")
    wrap(transport.SimConnection, "recv", "transport.sim")

    wrap(gateway.GatewayCore, "handle", "gateway.core")
    wrap(gateway.ResponseCache, "get",
         lambda a: "gateway.cache_get" if a[1] == "GET" else "gateway.cache_other",
         value=lambda a, r, f: int(r is not None))

    wrap(scenario.ScenarioRunner, "__init__", "scenario.setup")
    wrap(scenario.ScenarioRunner, "run", "scenario.run",
         value=lambda a, r, f: 0 if f else len(r.transcript))
