"""Line-oriented scenario scripts and the harness that runs them.

A script declares a realm, users, services, and optional wire faults, then
lists steps: initial authentication (``kinit``, with optional ``bad-cert`` or
``forged-sig`` attack variants), the ticket exchange, the application
handshake, sends over the established tunnel (single or pipelined), and clock
advances.  Example::

    realm EXAMPLE
    user alice hunter2
    service echo
    fault dup 5
    step kinit alice hunter2
    step ticket alice echo
    step handshake alice echo
    step send alice echo hello

Runs are reproducible: the toy crypto provider is seeded, the clock is
logical, and the simulated network delivers frames in lockstep.  The same
script also runs over real sockets on the loopback interface (``tcp``
transport, faults rejected there) and must produce the same report.

A kinit against a user nobody declared exercises the unknown-principal path:
the runner invents a local identity for them, but the KDC has no record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, Optional

from . import codec
from .client import ClientAgent, ClientIdentity, CredentialCache
from .crypto import get_provider
from .errors import KerbPkError, NoTicket, ScenarioParseError, StateError
from .gateway import (
    AppRequest,
    ProtectedAppSession,
    SecureChannel,
    echo_handler,
    open_channel,
)
from .gss import initiator_for
from .kdc import (
    KdcConfig,
    KdcFrameSession,
    KdcService,
    PrincipalDb,
    ROLE_AS,
    ROLE_TGS,
)
from .messages import (
    DEFAULT_LIFETIME,
    Certificate,
    Principal,
    ReplayCache,
    Validity,
    as_request_signable,
)
from .transport import (
    Fault,
    FrameClient,
    SimClock,
    SimNetwork,
    ThreadedFrameServer,
    call,
    parse_fault,
)

KINIT_VARIANTS = ("bad-cert", "forged-sig")


@dataclass(frozen=True)
class Step:
    kind: str
    args: tuple
    lineno: int


@dataclass(frozen=True)
class Script:
    name: str
    realm: str
    users: tuple[tuple[str, str], ...]
    services: tuple[str, ...]
    faults: tuple[Fault, ...]
    steps: tuple[Step, ...]


def parse_scenario(text: str, name: str = "inline") -> Script:
    realm = "EXAMPLE"
    users: list[tuple[str, str]] = []
    services: list[str] = []
    faults: list[Fault] = []
    steps: list[Step] = []

    def fail(lineno: int, why: str) -> None:
        raise ScenarioParseError(f"{name}:{lineno}: {why}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "realm":
            if len(tokens) != 2:
                fail(lineno, "realm takes exactly one value")
            realm = tokens[1]
        elif keyword == "user":
            if len(tokens) != 3:
                fail(lineno, "expected: user NAME PASSWORD")
            if tokens[1] in (u for u, _ in users):
                fail(lineno, f"user {tokens[1]} declared twice")
            users.append((tokens[1], tokens[2]))
        elif keyword == "service":
            if len(tokens) != 2:
                fail(lineno, "expected: service NAME")
            if tokens[1] in services:
                fail(lineno, f"service {tokens[1]} declared twice")
            services.append(tokens[1])
        elif keyword == "fault":
            try:
                faults.append(parse_fault(tokens[1:]))
            except ScenarioParseError as exc:
                fail(lineno, str(exc))
        elif keyword == "step":
            if len(tokens) < 2:
                fail(lineno, "step needs a kind")
            kind = tokens[1]
            rest = tokens[2:]
            if kind == "kinit":
                if len(rest) not in (2, 3):
                    fail(lineno, "expected: step kinit USER PASSWORD [bad-cert|forged-sig]")
                if len(rest) == 3 and rest[2] not in KINIT_VARIANTS:
                    fail(lineno, f"unknown kinit variant {rest[2]!r}")
                steps.append(Step(kind, tuple(rest), lineno))
            elif kind in ("ticket", "handshake"):
                if len(rest) != 2:
                    fail(lineno, f"expected: step {kind} USER SERVICE")
                steps.append(Step(kind, tuple(rest), lineno))
            elif kind == "send":
                if len(rest) < 3:
                    fail(lineno, "expected: step send USER SERVICE TEXT")
                steps.append(Step(kind, (rest[0], rest[1], " ".join(rest[2:])), lineno))
            elif kind == "pipeline":
                if len(rest) != 4:
                    fail(lineno, "expected: step pipeline USER SERVICE TEXT1 TEXT2")
                steps.append(Step(kind, tuple(rest), lineno))
            elif kind == "advance":
                if len(rest) != 1 or not rest[0].isdigit():
                    fail(lineno, "expected: step advance TICKS")
                steps.append(Step(kind, (int(rest[0]),), lineno))
            else:
                fail(lineno, f"unknown step kind {kind!r}")
        else:
            fail(lineno, f"unknown keyword {keyword!r}")
    return Script(name, realm, tuple(users), tuple(services), tuple(faults), tuple(steps))


def load_scenario(name: str) -> Script:
    """Load one of the scripts bundled with the package."""
    ref = resources.files("kerbpk").joinpath("scenarios", f"{name}.scn")
    try:
        text = ref.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise ScenarioParseError(f"no bundled scenario named {name!r}; "
                                 f"available: {', '.join(list_scenarios())}") from None
    return parse_scenario(text, name)


def list_scenarios() -> list[str]:
    folder = resources.files("kerbpk").joinpath("scenarios")
    names = [entry.name[:-4] for entry in folder.iterdir() if entry.name.endswith(".scn")]
    return sorted(names)


@dataclass
class StepResult:
    index: int
    name: str
    params: dict
    outcome: str
    error: Optional[str] = None
    detail: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"step={self.index}", f"name={self.name}"]
        parts += [f"{k}={v}" for k, v in self.params.items()]
        parts.append(f"outcome={self.outcome}")
        if self.error:
            parts.append(f"error={self.error}")
        parts += [f"{k}={v}" for k, v in self.detail.items()]
        return " ".join(parts)


@dataclass(frozen=True)
class EventRecord:
    step: int
    actor: str
    error: str

    def render(self) -> str:
        return f"event step={self.step} actor={self.actor} error={self.error}"


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    transport: str
    steps: list
    events: list
    frames: int
    kdc_requests: int
    handshake_legs: int
    transcript: list = field(default_factory=list, repr=False)

    def render(self) -> str:
        lines = [f"scenario={self.scenario} seed={self.seed} transport={self.transport}"]
        lines += [s.render() for s in self.steps]
        lines += [e.render() for e in self.events]
        lines.append(f"frames={self.frames} kdc_requests={self.kdc_requests} "
                     f"handshake_legs={self.handshake_legs}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "scenario": self.scenario,
            "seed": self.seed,
            "transport": self.transport,
            "steps": [{"index": s.index, "name": s.name, "params": s.params,
                       "outcome": s.outcome, "error": s.error, "detail": s.detail}
                      for s in self.steps],
            "events": [{"step": e.step, "actor": e.actor, "error": e.error}
                       for e in self.events],
            "frames": self.frames,
            "kdc_requests": self.kdc_requests,
            "handshake_legs": self.handshake_legs,
        }, indent=2)

    @property
    def ok(self) -> bool:
        return all(s.outcome == "ok" for s in self.steps)


class _CountingConn:
    """Counts client-visible frames so both transports report alike."""

    def __init__(self, conn, runner: "ScenarioRunner"):
        self._conn = conn
        self._runner = runner

    def send(self, payload: bytes) -> None:
        self._conn.send(payload)
        self._runner.frames += 1

    def recv(self):
        payload = self._conn.recv()
        self._runner.frames += 1
        return payload

    def close(self) -> None:
        self._conn.close()


class ScenarioRunner:
    """Executes one parsed script against a fresh realm."""

    def __init__(self, script: Script, seed: int = 0, transport: str = "sim",
                 extra_faults: tuple = ()):
        if transport not in ("sim", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        all_faults = tuple(script.faults) + tuple(extra_faults)
        if transport == "tcp" and all_faults:
            raise ScenarioParseError("wire faults need the simulated transport")
        self.script = script
        self.seed = seed
        self.transport = transport
        self.provider = get_provider("toy", seed=seed)
        self.clock = SimClock()
        self.db = PrincipalDb.create(script.realm, self.provider)
        self.kdc = KdcService(self.db, KdcConfig(), self.provider)
        self.frames = 0
        self.handshake_legs = 0
        self.step_results: list[StepResult] = []
        self.events: list[EventRecord] = []
        self._step_index = 0
        self._identities: dict[str, ClientIdentity] = {}
        self._caches: dict[str, CredentialCache] = {}
        self._channels: dict[tuple[str, str], SecureChannel] = {}
        self._service_replay = {name: ReplayCache() for name in script.services}
        self._servers: list[ThreadedFrameServer] = []
        self._network: Optional[SimNetwork] = None
        self._ports: dict[str, int] = {}

        for name, password in script.users:
            self._register_user(name, password)
        for name in script.services:
            self.db.register_service(name, self.provider)

        factories = self._endpoint_factories()
        if transport == "sim":
            self._network = SimNetwork(self.clock, all_faults)
            for address, factory in factories.items():
                self._network.register(address, factory)
        else:
            for address, factory in factories.items():
                server = ThreadedFrameServer(factory, now_fn=self.clock.now).start()
                self._servers.append(server)
                self._ports[address] = server.port

    # -- realm plumbing ------------------------------------------------------

    def _register_user(self, name: str, password: str) -> None:
        keypair = self.provider.generate_keypair()
        record = self.db.register_user(name, password, keypair.public_key, self.provider)
        self._identities[name] = ClientIdentity(record.principal, password,
                                                keypair, record.certificate)

    def _identity(self, user: str) -> ClientIdentity:
        if user not in self._identities:
            # nobody registered this user; give them keys so the KDC can say no
            keypair = self.provider.generate_keypair()
            principal = Principal(user, self.script.realm)
            cert = Certificate(principal, keypair.public_key, 0)
            self._identities[user] = ClientIdentity(principal, "", keypair, cert)
        return self._identities[user]

    def _cache(self, user: str) -> CredentialCache:
        if user not in self._caches:
            self._caches[user] = CredentialCache(self._identity(user).principal)
        return self._caches[user]

    def _agent(self, user: str, password: Optional[str] = None) -> ClientAgent:
        identity = self._identity(user)
        if password is not None and password != identity.password:
            identity = replace(identity, password=password)
        return ClientAgent(identity, self.provider, cache=self._cache(user))

    def _event_cb(self, actor: str, error: str) -> None:
        self.events.append(EventRecord(self._step_index, actor, error))

    def _endpoint_factories(self) -> dict[str, Callable[[], object]]:
        factories = {
            "as": lambda: KdcFrameSession(self.kdc, ROLE_AS, on_event=self._event_cb),
            "tgs": lambda: KdcFrameSession(self.kdc, ROLE_TGS, on_event=self._event_cb),
        }
        for name in self.script.services:
            record = self.db.lookup(name)
            factories[f"app:{name}"] = (
                lambda record=record, name=name: ProtectedAppSession(
                    record.principal, record.long_term_key, self.provider,
                    self._service_replay[name], handler=echo_handler,
                    on_event=self._event_cb))
        return factories

    def _connect(self, address: str, label: str) -> _CountingConn:
        if self._network is not None:
            return _CountingConn(self._network.connect(address, label), self)
        return _CountingConn(FrameClient("127.0.0.1", self._ports[address]), self)

    # -- step execution ------------------------------------------------------

    def run(self) -> ScenarioReport:
        try:
            for step in self.script.steps:
                self._step_index += 1
                handler = getattr(self, f"_step_{step.kind}")
                try:
                    result = handler(step)
                except KerbPkError as exc:
                    result = StepResult(self._step_index, step.kind,
                                        self._base_params(step), "error", exc.name)
                self.step_results.append(result)
        finally:
            for channel in self._channels.values():
                channel.close()
            for server in self._servers:
                server.stop()
        return ScenarioReport(
            scenario=self.script.name, seed=self.seed, transport=self.transport,
            steps=self.step_results, events=self.events, frames=self.frames,
            kdc_requests=self.kdc.request_count, handshake_legs=self.handshake_legs,
            transcript=self._network.transcript if self._network else [])

    @staticmethod
    def _base_params(step: Step) -> dict:
        if step.kind == "kinit":
            params = {"user": step.args[0]}
            if len(step.args) == 3:
                params["variant"] = step.args[2]
            return params
        if step.kind in ("ticket", "handshake", "send", "pipeline"):
            return {"user": step.args[0], "service": step.args[1]}
        return {"ticks": str(step.args[0])}  # advance

    def _step_kinit(self, step: Step) -> StepResult:
        user, password = step.args[0], step.args[1]
        variant = step.args[2] if len(step.args) == 3 else None
        params = self._base_params(step)
        agent = self._agent(user, password)
        now = self.clock.now()
        request = agent.build_as_request(self.db.tgs_name,
                                         Validity(now, now + DEFAULT_LIFETIME))
        if variant == "bad-cert":
            rogue = self.provider.generate_keypair()
            request = replace(request, certificate=Certificate(
                agent.identity.principal, rogue.public_key,
                agent.identity.certificate.serial))
        elif variant == "forged-sig":
            rogue = self.provider.generate_keypair()
            request = replace(request, signature=self.provider.sign(
                rogue.private_key, as_request_signable(request)))
        conn = self._connect("as", f"{user}<->as")
        try:
            agent.process_as_reply(call(conn, request, codec.SchemaId.AS_REPLY), request.nonce1)
            outcome, error = "ok", None
        except KerbPkError as exc:
            outcome, error = "error", exc.name
        finally:
            conn.close()
        stored = self._cache(user).get_tgt(self.clock.now()) is not None
        return StepResult(self._step_index, "kinit", params, outcome, error,
                          {"ccache": "stored" if stored else "absent"})

    def _send_tgs(self, user: str):
        def send(request):
            conn = self._connect("tgs", f"{user}<->tgs")
            try:
                return call(conn, request, codec.SchemaId.TGS_REPLY)
            finally:
                conn.close()
        return send

    def _step_ticket(self, step: Step) -> StepResult:
        user, service = step.args
        agent = self._agent(user)
        agent.get_service_ticket(service, self.clock.now(), self._send_tgs(user))
        return StepResult(self._step_index, "ticket", self._base_params(step), "ok")

    def _step_handshake(self, step: Step) -> StepResult:
        user, service = step.args
        cache = self._cache(user)

        def present_anyway(target_principal: Principal, now: int):
            # hand over whatever is cached; expiry is the server's call
            entry = cache.peek_service(target_principal.name)
            if entry is None:
                raise NoTicket(f"no cached service ticket for {target_principal.name}")
            return entry.ticket, entry.key

        initiator = initiator_for(cache, service, self.provider, present_anyway)
        conn = self._connect(f"app:{service}", f"{user}<->{service}")
        try:
            channel = open_channel(initiator, conn, self.clock.now)
        except Exception:
            conn.close()
            raise
        self.handshake_legs += 2
        old = self._channels.pop((user, service), None)
        if old is not None:
            old.close()
        self._channels[(user, service)] = channel
        return StepResult(self._step_index, "handshake", self._base_params(step),
                          "ok", detail={"legs": "2"})

    def _channel(self, user: str, service: str) -> SecureChannel:
        channel = self._channels.get((user, service))
        if channel is None:
            raise StateError(f"no established channel for {user}->{service}")
        return channel

    def _step_send(self, step: Step) -> StepResult:
        user, service, text = step.args
        channel = self._channel(user, service)
        try:
            response = channel.call(AppRequest("POST", "/echo", text.encode()))
        except KerbPkError:
            self._channels.pop((user, service), None)
            channel.close()
            raise
        params = self._base_params(step)
        if response.body != text.encode():
            return StepResult(self._step_index, "send", params, "error",
                              "EchoMismatch", {"bytes": str(len(response.body))})
        return StepResult(self._step_index, "send", params, "ok",
                          detail={"bytes": str(len(response.body)), "status": str(response.status)})

    def _step_pipeline(self, step: Step) -> StepResult:
        user, service, first, second = step.args
        channel = self._channel(user, service)
        for text in (first, second):
            channel.send(AppRequest("POST", "/echo", text.encode()))
        replies = 0
        try:
            for text in (first, second):
                response = channel.receive()
                if response.body != text.encode():
                    raise StateError("pipelined echo came back reordered")
                replies += 1
        except KerbPkError:
            self._channels.pop((user, service), None)
            channel.close()
            raise
        return StepResult(self._step_index, "pipeline", self._base_params(step),
                          "ok", detail={"replies": str(replies)})

    def _step_advance(self, step: Step) -> StepResult:
        self.clock.advance(step.args[0])
        return StepResult(self._step_index, "advance", self._base_params(step),
                          "ok", detail={"now": str(self.clock.now())})


def run_scenario(source, seed: int = 0, transport: str = "sim",
                 extra_faults: tuple = (), name: str = "inline") -> ScenarioReport:
    """Parse (if needed) and execute a scenario, returning its report."""
    script = source if isinstance(source, Script) else parse_scenario(source, name)
    return ScenarioRunner(script, seed=seed, transport=transport,
                          extra_faults=extra_faults).run()
