"""``kerbpk`` command line.

Subcommands mirror the moving parts: ``kdc`` owns the principal database and
serves the two issuing endpoints, ``client`` performs initial auth / ticket
fetches / gateway requests, ``service`` runs an echo responder (protected or
plain), ``gateway`` fronts backends with the prefix policy and response
cache, ``scenario`` executes scripted runs, and ``db`` inspects the database
file.

Conventions: results print as ``key=value`` pairs (or ``--json`` where
offered); success exits 0, failures exit 1 with ``error=<Name>`` on stderr,
usage problems exit 2, and a command interrupted before it finishes (Ctrl-C at
a password prompt, say) exits 130.  ``KERBPK_DB``, ``KERBPK_CCACHE``, and
``KERBPK_REALM`` supply defaults for the corresponding flags.

Each process runs one command, so this module imports only what every command
shares: ``codec``, ``errors`` and ``transport``.  A command imports the rest
of what it runs when it runs, so ``service serve-echo --plain`` and ``client
fetch --plain`` load no crypto provider and no ticket layer.  A command that
handles keys builds a standard provider, which loads ``cryptography``; only
``scenario run`` builds a toy provider, which loads ``hashlib``, so no process
maps two OpenSSLs.
"""

from __future__ import annotations

import argparse
import getpass
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from . import __version__, codec
from .errors import FetchError, KerbPkError, NoTgt, PolicyParseError, ScenarioParseError
from .transport import FrameClient, ThreadedFrameServer, call, is_count

DEFAULT_AS_PORT = 8801
DEFAULT_TGS_PORT = 8802


def _now() -> int:
    return int(time.time())


def _env(value: Optional[str], var: str, fallback: str) -> str:
    if value is not None:
        return value
    return os.environ.get(var, fallback)


def _db_path(args) -> str:
    return _env(args.db, "KERBPK_DB", "kerbpk.db")


def _ccache_path(args) -> str:
    return _env(args.ccache, "KERBPK_CCACHE", "kerbpk.ccache")


def _realm(args) -> str:
    return _env(args.realm, "KERBPK_REALM", "EXAMPLE")


def _call(host: str, port: int, request, expected: codec.SchemaId):
    conn = FrameClient(host, port)
    try:
        return call(conn, request, expected)
    finally:
        conn.close()


def _serve(servers: list[ThreadedFrameServer], banner: str) -> int:
    print(banner, flush=True)
    try:
        while True:
            time.sleep(0.25)
    except KeyboardInterrupt:
        pass
    finally:
        for server in servers:
            server.stop()
    return 0


# -- kdc ---------------------------------------------------------------------


def cmd_kdc_serve(args) -> int:
    from .crypto import StandardProvider
    from .kdc import ROLE_AS, ROLE_TGS, KdcFrameSession, KdcService, PrincipalDb
    db = PrincipalDb.load(_db_path(args))
    service = KdcService(db, StandardProvider())
    as_server = ThreadedFrameServer(lambda: KdcFrameSession(service, ROLE_AS),
                                    now_fn=_now, port=args.as_port).start()
    tgs_server = ThreadedFrameServer(lambda: KdcFrameSession(service, ROLE_TGS),
                                     now_fn=_now, port=args.tgs_port).start()
    return _serve([as_server, tgs_server],
                  f"kdc listening realm={db.realm} as_port={as_server.port} "
                  f"tgs_port={tgs_server.port}")


@contextmanager
def _registering(args, provider) -> Iterator:
    """The db at ``_db_path(args)``, or a fresh one, saved when the block ends.
    A lock on ``<db>.lock`` held from load to save keeps overlapping runs from
    losing principals; ``kdc serve`` needs none, as a save is an atomic rename."""
    import fcntl  # only the register commands lock
    from .kdc import PrincipalDb
    path = _db_path(args)
    with open(f"{path}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        db = (PrincipalDb.load(path) if os.path.exists(path)
              else PrincipalDb.create(_realm(args), provider))
        yield db
        db.save(path)


def cmd_kdc_register_user(args) -> int:
    from .client import ClientIdentity, save_identity
    from .crypto import StandardProvider
    provider = StandardProvider()
    password = args.password if args.password is not None else getpass.getpass("password: ")
    keypair = provider.generate_keypair()
    with _registering(args, provider) as db:
        record = db.register_user(args.name, password, keypair.public_key, provider)
    if args.identity_out:
        identity = ClientIdentity(record.principal, password, keypair, record.certificate)
        save_identity(identity, args.identity_out)
    line = (f"registered principal={record.principal.name}@{record.principal.realm} "
            f"kind=user serial={record.certificate.serial} db={_db_path(args)}")
    if args.identity_out:
        line += f" identity={args.identity_out}"
    print(line)
    return 0


def cmd_kdc_register_service(args) -> int:
    from .crypto import StandardProvider
    from .kdc import save_service_key
    provider = StandardProvider()
    with _registering(args, provider) as db:
        record = db.register_service(args.name, provider)
    line = (f"registered principal={record.principal.name}@{record.principal.realm} "
            f"kind=service db={_db_path(args)}")
    if args.keytab_out:
        save_service_key(record, args.keytab_out)
        line += f" keytab={args.keytab_out}"
    print(line)
    return 0


# -- client ------------------------------------------------------------------


def cmd_client_kinit(args) -> int:
    from .client import ClientAgent, CredentialCache, load_identity
    from .crypto import StandardProvider
    from .messages import Validity
    provider = StandardProvider()
    password = args.password if args.password is not None else getpass.getpass("password: ")
    identity = load_identity(args.identity, password)
    cache = CredentialCache(identity.principal)
    agent = ClientAgent(identity, provider, cache=cache)
    now = _now()

    def send_as(request):
        return _call(args.as_host, args.as_port, request, codec.SchemaId.AS_REPLY)

    validity = Validity(now, now + args.lifetime) if args.lifetime is not None else None
    entry = agent.kinit(send_as, now, requested_validity=validity)
    cache.save(_ccache_path(args))
    print(f"kinit ok principal={identity.principal.name}@{identity.principal.realm} "
          f"tgt_till={entry.validity.till} ccache={_ccache_path(args)}")
    return 0


def _tgs_sender(args):
    def send_tgs(request):
        return _call(args.tgs_host, args.tgs_port, request, codec.SchemaId.TGS_REPLY)
    return send_tgs


def cmd_client_get_ticket(args) -> int:
    from .client import CredentialCache, request_service_ticket
    from .crypto import StandardProvider
    provider = StandardProvider()
    path = _ccache_path(args)
    cache = CredentialCache.load(path)
    entry = request_service_ticket(cache, provider, args.service, _now(),
                                   _tgs_sender(args))
    cache.save(path)
    print(f"ticket ok service={args.service} till={entry.validity.till} ccache={path}")
    return 0


def cmd_client_fetch(args) -> int:
    from .app import SERVED_CACHE, AppRequest
    request = AppRequest(args.method, args.resource, args.body.encode())
    if args.plain:
        response = _call(args.gateway_host, args.gateway_port, request,
                         codec.SchemaId.APP_RESPONSE)
    else:
        response = _fetch_protected(args, request)
    served = "cache" if response.served_from == SERVED_CACHE else "backend"
    if args.json:
        print(json.dumps({"status": response.status, "served_from": served,
                          "body": response.body.decode("utf-8", errors="replace")}))
    else:
        print(f"status={response.status} served_from={served} "
              f"body={response.body.decode('utf-8', errors='replace')}")
    return 0 if response.status < 400 else 1


def _fetch_protected(args, request):
    from .client import CredentialCache, request_service_ticket
    from .crypto import StandardProvider
    from .gateway import GatewayClient
    from .gss import initiator_for
    provider = StandardProvider()
    path = _ccache_path(args)
    cache = CredentialCache.load(path)
    send_tgs = _tgs_sender(args)

    def ticket_source(target, now: int):
        entry = cache.get_service(target.name, now)
        if entry is None:
            try:
                entry = request_service_ticket(cache, provider, target.name,
                                               now, send_tgs)
            except NoTgt as exc:
                raise FetchError("AS", exc) from exc
            except KerbPkError as exc:
                raise FetchError("TGS", exc) from exc
            cache.save(path)
        return entry.ticket, entry.key

    client = GatewayClient(
        lambda: FrameClient(args.gateway_host, args.gateway_port),
        lambda now: initiator_for(cache, args.service, provider, ticket_source), _now)
    try:
        return client.fetch(request.resource, request.method, request.body)
    finally:
        client.close()


# -- service / gateway -------------------------------------------------------


def cmd_service_serve_echo(args) -> int:
    if args.plain:
        from .app import BackendSession
        server = ThreadedFrameServer(BackendSession, now_fn=_now, port=args.port).start()
        return _serve([server], f"service listening mode=plain port={server.port}")
    if not args.keytab:
        raise KerbPkError("a protected service needs --keytab (or use --plain)")
    from .crypto import StandardProvider
    from .gateway import protected_endpoint
    from .kdc import load_service_key
    keyfile = load_service_key(args.keytab)
    server = ThreadedFrameServer(
        protected_endpoint(keyfile.key, StandardProvider()),
        now_fn=_now, port=args.port).start()
    return _serve([server],
                  f"service listening name={keyfile.principal.name}"
                  f"@{keyfile.principal.realm} mode=protected port={server.port}")


def _parse_backend(spec: str):
    prefix, sep, hostport = spec.partition("=")
    host, sep2, port = hostport.rpartition(":")
    if not sep or not sep2 or not prefix.startswith("/") or not _is_port(port):
        raise KerbPkError(f"backend spec must look like /prefix=host:port with a port "
                          f"of 1..65535, got {spec!r}")
    return prefix, (host, int(port))


def cmd_gateway(args) -> int:
    from .gateway import (GatewayCore, GatewayPolicy, GatewaySession, ResponseCache,
                          backend_connector, protected_endpoint)
    from .crypto import StandardProvider
    from .kdc import load_service_key
    provider = StandardProvider()
    policy = GatewayPolicy.parse(codec.read_text(args.policy, PolicyParseError, "policy"))
    keyfile = load_service_key(args.keytab)
    backends = []
    for spec in args.backend or []:
        prefix, (host, port) = _parse_backend(spec)
        backends.append((prefix, backend_connector(host, port)))
    cache = ResponseCache(args.cache_capacity) if args.cache_capacity > 0 else None
    core = GatewayCore(policy, cache, backends)
    protected = protected_endpoint(keyfile.key, provider, handler=core.handle)
    server = ThreadedFrameServer(lambda: GatewaySession(core, protected()),
                                 now_fn=_now, port=args.port).start()
    status = _serve([server],
                    f"gateway listening name={keyfile.principal.name}"
                    f"@{keyfile.principal.realm} port={server.port} "
                    f"backends={len(backends)}")
    core.close()
    return status


# -- scenario / db -----------------------------------------------------------


def cmd_scenario_run(args) -> int:
    from .scenario import load_scenario, parse_scenario, run_scenario
    if os.path.exists(args.scenario):
        name = os.path.splitext(os.path.basename(args.scenario))[0]
        text = codec.read_text(args.scenario, ScenarioParseError, "scenario")
        script = parse_scenario(text, name)
    else:
        script = load_scenario(args.scenario)
    report = run_scenario(script, seed=args.seed, transport=args.transport)
    print(report.to_json() if args.json else report.render())
    return 0


def cmd_db_inspect(args) -> int:
    from .kdc import PrincipalDb, RecordKind
    kind_names = {int(RecordKind.USER): "user", int(RecordKind.SERVICE): "service",
                  int(RecordKind.TGS_SERVICE): "tgs"}
    db = PrincipalDb.load(_db_path(args))
    records = sorted(db.records(), key=lambda r: r.principal.name)
    if args.json:
        print(json.dumps({
            "realm": db.realm,
            "tgs": db.tgs_name,
            "principals": [{
                "name": r.principal.name,
                "kind": kind_names.get(r.kind, str(r.kind)),
                "serial": r.certificate.serial if r.certificate else None,
            } for r in records],
        }, indent=2))
        return 0
    print(f"realm={db.realm} tgs={db.tgs_name} principals={db.key_count()}")
    for record in records:
        serial = record.certificate.serial if record.certificate else "-"
        print(f"principal={record.principal.name} "
              f"kind={kind_names.get(record.kind, record.kind)} serial={serial}")
    return 0


# -- wiring ------------------------------------------------------------------


def _entries(text: str) -> int:
    """An argument that counts entries: an integer, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _is_port(text: str, low: int = 1) -> bool:
    """Whether ``text`` is a port of ``low``..65535 in ASCII digits."""
    return is_count(text) and low <= int(text) <= 65535


def _port(text: str, low: int = 1) -> int:
    """A port to connect to."""
    if not _is_port(text, low):
        raise argparse.ArgumentTypeError(f"must be a port of {low}..65535, got {text!r}")
    return int(text)


def _listen_port(text: str) -> int:
    """A port to listen on; 0 lets the system pick a free one."""
    return _port(text, low=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kerbpk",
                                     description="ticket-based auth playground")
    parser.add_argument("--version", action="version", version=f"kerbpk {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    kdc = top.add_parser("kdc", help="key distribution center").add_subparsers(
        dest="subcommand", required=True)
    p = kdc.add_parser("serve", help="serve the AS and TGS endpoints")
    p.add_argument("--db", default=None, help="principal db path (env KERBPK_DB)")
    p.add_argument("--as-port", type=_listen_port, default=DEFAULT_AS_PORT)
    p.add_argument("--tgs-port", type=_listen_port, default=DEFAULT_TGS_PORT)
    p.set_defaults(func=cmd_kdc_serve)

    p = kdc.add_parser("register-user", help="add a user principal")
    p.add_argument("name")
    p.add_argument("--password", default=None)
    p.add_argument("--db", default=None)
    p.add_argument("--realm", default=None, help="realm for a fresh db (env KERBPK_REALM)")
    p.add_argument("--identity-out", default=None,
                   help="also write the client identity file here")
    p.set_defaults(func=cmd_kdc_register_user)

    p = kdc.add_parser("register-service", help="add a service principal")
    p.add_argument("name")
    p.add_argument("--db", default=None)
    p.add_argument("--realm", default=None)
    p.add_argument("--keytab-out", default=None,
                   help="also write the service key file here")
    p.set_defaults(func=cmd_kdc_register_service)

    client = top.add_parser("client", help="user-side operations").add_subparsers(
        dest="subcommand", required=True)
    p = client.add_parser("kinit", help="initial authentication")
    p.add_argument("--identity", required=True, help="identity file from register-user")
    p.add_argument("--password", default=None)
    p.add_argument("--as-host", default="127.0.0.1")
    p.add_argument("--as-port", type=_port, default=DEFAULT_AS_PORT)
    p.add_argument("--lifetime", type=int, default=None)
    p.add_argument("--ccache", default=None, help="credential cache path (env KERBPK_CCACHE)")
    p.set_defaults(func=cmd_client_kinit)

    p = client.add_parser("get-ticket", help="fetch a service ticket")
    p.add_argument("service")
    p.add_argument("--ccache", default=None)
    p.add_argument("--tgs-host", default="127.0.0.1")
    p.add_argument("--tgs-port", type=_port, default=DEFAULT_TGS_PORT)
    p.set_defaults(func=cmd_client_get_ticket)

    p = client.add_parser("fetch", help="request a resource through the gateway")
    p.add_argument("resource")
    p.add_argument("--gateway-host", default="127.0.0.1")
    p.add_argument("--gateway-port", type=_port, required=True)
    p.add_argument("--service", default="gateway",
                   help="gateway service principal name")
    p.add_argument("--method", default="GET")
    p.add_argument("--body", default="")
    p.add_argument("--plain", action="store_true",
                   help="no authentication; bypass resources only")
    p.add_argument("--ccache", default=None)
    p.add_argument("--tgs-host", default="127.0.0.1")
    p.add_argument("--tgs-port", type=_port, default=DEFAULT_TGS_PORT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_client_fetch)

    service = top.add_parser("service", help="application server").add_subparsers(
        dest="subcommand", required=True)
    p = service.add_parser("serve-echo", help="echo responder")
    p.add_argument("--keytab", default=None, help="service key file")
    p.add_argument("--port", type=_listen_port, default=0)
    p.add_argument("--plain", action="store_true",
                   help="no tickets; serve as a bare backend")
    p.set_defaults(func=cmd_service_serve_echo)

    p = top.add_parser("gateway", help="caching gateway in front of backends")
    p.add_argument("--policy", required=True, help="protect/bypass prefix rules")
    p.add_argument("--keytab", required=True, help="gateway service key file")
    p.add_argument("--port", type=_listen_port, default=0)
    p.add_argument("--backend", action="append", default=None,
                   metavar="/prefix=host:port")
    p.add_argument("--cache-capacity", type=_entries, default=16,
                   help="response cache entries; 0 turns caching off")
    p.set_defaults(func=cmd_gateway)

    scenario = top.add_parser("scenario", help="scripted runs").add_subparsers(
        dest="subcommand", required=True)
    p = scenario.add_parser("run", help="execute a bundled or on-disk scenario")
    p.add_argument("scenario", help="bundled name (happy_path, replay_attack, "
                                    "expired_ticket, expired_tunnel) or a file path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transport", choices=("sim", "tcp"), default="sim")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scenario_run)

    db = top.add_parser("db", help="principal database").add_subparsers(
        dest="subcommand", required=True)
    p = db.add_parser("inspect", help="list principals")
    p.add_argument("--db", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_db_inspect)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KerbPkError as exc:
        print(f"error={exc.name} detail={exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error=ConnectionError detail={exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130

