"""Per-layer metrics from the spans of a traced run.

Spans come from every process of the run, keyed by role: ``loadgen`` (this
process) and, on the TCP workloads, ``kdc``, ``backend`` and ``gateway``.  Only
spans inside the traced measurement window count; set-up work is left out.

A ``*_us`` metric is self time per call unless its line says otherwise; a
``*_per_op`` metric is a count divided by the ops completed in the window.  A
layer that does not run on a workload reports 0.
"""

from __future__ import annotations

from collections import defaultdict


class _Totals:
    """calls, self ns, inclusive ns and carried value per span name."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.value = defaultdict(int)

    def add(self, name: str, start: int, end: int, self_ns: int, value: int) -> None:
        self.calls[name] += 1
        self.self_ns[name] += self_ns
        self.incl_ns[name] += end - start
        self.value[name] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans_by_role: dict, untraced: dict, traced: dict) -> tuple[dict, float]:
    """Return (metric name -> (value, unit, samples), the largest share of an
    op's wall time that its own spans' self times add up to)."""
    lo, hi = traced["window_ns"]
    roles = defaultdict(_Totals)
    every = _Totals()
    op_self = defaultdict(int)
    for role, spans in spans_by_role.items():
        for _seq, _parent, name, start, end, self_ns, op, value in spans:
            if start < lo or end > hi:
                continue
            roles[role].add(name, start, end, self_ns, value)
            every.add(name, start, end, self_ns, value)
            if role == "loadgen" and op >= 0:
                op_self[op] += self_ns
    walls = {op.id: op.ns for op in traced["ops"]}
    selftime_share = max((_ratio(op_self[op], walls[op]) for op in op_self if op in walls),
                         default=0.0)

    ops = sum(1 for op in traced["ops"] if op.error is None)
    client = roles["loadgen"]
    gateway = roles["gateway"]

    def us(totals: _Totals, *names: str, per=None) -> tuple:
        calls = sum(totals.calls[n] for n in names) if per is None else per
        return (_ratio(sum(totals.self_ns[n] for n in names), calls) / 1e3, "us", calls)

    def per_op(amount: float) -> tuple:
        return (_ratio(amount, ops), "count", ops)

    handshakes = every.value["gss.handshake"]
    sim_frames = every.value["scenario.run"]
    backend_connects = gateway.calls["transport.connect"]
    cache_gets = every.calls["gateway.cache_get"]
    password = us(every, "crypto.std.password")
    metrics = {
        "codec.encode_us": us(every, "codec.encode"),
        "codec.decode_us": us(every, "codec.decode"),
        "codec.calls_per_op": per_op(every.calls["codec.encode"] + every.calls["codec.decode"]),
        "codec.bytes_per_op": (_ratio(every.value["codec.encode"] + every.value["codec.decode"],
                                      ops), "B", ops),
        "crypto.toy.seal_us": us(every, "crypto.toy.seal"),
        "crypto.toy.open_us": us(every, "crypto.toy.open"),
        "crypto.toy.seal_bytes_per_op": (_ratio(every.value["crypto.toy.seal"], ops), "B", ops),
        "crypto.std.seal_us": us(every, "crypto.std.seal"),
        "crypto.std.open_us": us(every, "crypto.std.open"),
        "crypto.std.pk_us": us(every, "crypto.std.pk"),
        "crypto.std.password_ms": (password[0] / 1e3, "ms", password[2]),
        "messages.replay_check_us": us(every, "messages.replay_check"),
        "messages.replay_entries": (_ratio(every.value["messages.replay_check"],
                                           every.calls["messages.replay_check"]), "count",
                                    every.calls["messages.replay_check"]),
        "kdc.as_us": us(every, "kdc.as"),
        "kdc.tgs_us": us(every, "kdc.tgs"),
        "kdc.rejects_per_op": per_op(every.value["kdc.as"] + every.value["kdc.tgs"]),
        "client.tgs_us": us(every, "client.tgs"),
        "client.kinit_us": us(every, "client.kinit"),
        # both legs, initiator and acceptor, per handshake
        "gss.handshake_us": us(every, "gss.handshake", per=handshakes),
        "gss.wrap_us": us(every, "gss.wrap"),
        "gss.unwrap_us": us(every, "gss.unwrap"),
        "gss.handshakes_per_op": per_op(handshakes),
        # the client side of TCP: what the load generator's connections cost
        "transport.connect_us": us(client, "transport.connect"),
        "transport.connects_per_op": per_op(client.calls["transport.connect"]),
        "transport.recv_wait_us": us(client, "transport.recv_wait"),
        "transport.server_threads_peak": (traced["threads_peak"], "count", 1),
        "transport.frames_per_op": per_op(client.calls["transport.send"]
                                          + client.calls["transport.recv_wait"]),
        "transport.sim_frames_per_op": per_op(sim_frames),
        # simulated switch work per frame, server sessions excluded
        "transport.sim_deliver_us": us(every, "transport.sim", per=sim_frames),
        "gateway.hit_ratio": (_ratio(every.value["gateway.cache_get"], cache_gets), "ratio",
                              cache_gets),
        # routing and cache lookups, without the backend exchange or the codec
        "gateway.core_us": us(gateway, "gateway.core", "gateway.cache_get",
                              "gateway.cache_other", per=gateway.calls["gateway.core"]),
        # one backend exchange as the gateway waits for it: connect, send, recv, close
        "gateway.backend_us": (_ratio(sum(gateway.incl_ns[n] for n in (
            "transport.connect", "transport.send", "transport.recv_wait", "transport.close")),
            backend_connects) / 1e3, "us", backend_connects),
        "gateway.backend_connects_per_op": per_op(backend_connects),
        "scenario.setup_us": us(every, "scenario.setup"),
        "scenario.run_us": us(every, "scenario.run"),
        # CPU seconds per wall second, from the untraced half
        "host.server_cpu_share": (untraced["server_cpu_share"], "ratio", 1),
        "host.loadgen_cpu_share": (untraced["loadgen_cpu_share"], "ratio", 1),
    }
    return metrics, selftime_share
