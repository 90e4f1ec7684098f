"""The command line against real sockets, run in this process through ``cli.main``.

Servers start through their own ``cmd_*`` functions; only ``cli._serve``, which
would block until interrupted, is replaced: by one that holds until the
module's tests are done, or, where a server should not start at all, by one
that stops it at once.  Some tests start a child process: the ``python -m kerbpk``
entry point, a server's banner and shutdown (also with ``cryptography``
unimportable), a usage error's exit status, and the modules a fresh
interpreter loads at start-up and for a command.
"""

import contextlib
import io
import json
import os
import queue
import selectors
import signal
import socket
import subprocess
import sys
import threading
from typing import NamedTuple

import pytest

import kerbpk
from kerbpk import cli, codec
from kerbpk.client import CredentialCache
from kerbpk.kdc import PrincipalDb
from kerbpk.app import AppRequest, BackendSession
from kerbpk.messages import Principal
from kerbpk.transport import FrameClient, ThreadedFrameServer, call

# Children run in a temporary directory, so a relative PYTHONPATH such as
# "src" would not find the package; put its absolute source root first.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(kerbpk.__file__)))
CHILD_PYTHONPATH = os.pathsep.join(
    [SRC_DIR] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


class Result(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args) -> Result:
    """``kerbpk ARGS`` in this process; a usage error's SystemExit gives its status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


def run_child(*args, cwd) -> Result:
    proc = subprocess.run([sys.executable, "-m", "kerbpk", *args],
                          capture_output=True, text=True, cwd=str(cwd), timeout=120,
                          env=dict(os.environ, PYTHONPATH=CHILD_PYTHONPATH))
    return Result(proc.returncode, proc.stdout, proc.stderr)


def banner_fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def unused_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return sock.getsockname()[1]


class Stack:
    """A registered realm plus kdc, backend, gateway and protected echo servers,
    each started by its own command on a thread of this process.  The echo
    service uses the gateway's key, so the realm keeps three principals."""

    def __init__(self, root):
        self.root = root
        self.banners: queue.Queue = queue.Queue()
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []

    def cli(self, *args):
        return run_cli(*args)

    def hold(self, servers, banner):
        """Stands in for ``cli._serve``: serve until the module is done."""
        self.banners.put(banner)
        self.stop.wait()
        for server in servers:
            server.stop()
        return 0

    def serve(self, *args):
        thread = threading.Thread(target=cli.main, args=(list(args),), daemon=True)
        thread.start()
        self.threads.append(thread)
        return banner_fields(self.banners.get(timeout=15))


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-stack")
    s = Stack(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("KERBPK_DB", str(root / "realm.db"))
        mp.setenv("KERBPK_CCACHE", str(root / "alice.ccache"))
        mp.setenv("KERBPK_REALM", "EXAMPLE")

        s.registered_user = s.cli("kdc", "register-user", "alice",
                                  "--password", "hunter2",
                                  "--identity-out", str(root / "alice.id"))
        s.registered_service = s.cli("kdc", "register-service", "gateway",
                                     "--keytab-out", str(root / "gateway.keytab"))
        assert s.registered_user.returncode == 0, s.registered_user.stderr
        assert s.registered_service.returncode == 0, s.registered_service.stderr

        (root / "policy.txt").write_text("bypass /public\n")
        with pytest.MonkeyPatch.context() as serving:
            serving.setattr(cli, "_serve", s.hold)
            kdc = s.serve("kdc", "serve", "--as-port", "0", "--tgs-port", "0")
            backend = s.serve("service", "serve-echo", "--plain", "--port", "0")
            gateway = s.serve("gateway", "--policy", str(root / "policy.txt"),
                              "--keytab", str(root / "gateway.keytab"), "--port", "0",
                              "--backend", f"/=127.0.0.1:{backend['port']}")
            s.protected = s.serve("service", "serve-echo",
                                  "--keytab", str(root / "gateway.keytab"), "--port", "0")
        s.as_port, s.tgs_port = kdc["as_port"], kdc["tgs_port"]
        s.gateway_port = gateway["port"]

        s.kinit = s.cli("client", "kinit", "--identity", str(root / "alice.id"),
                        "--password", "hunter2", "--as-port", s.as_port)
        s.ticket = s.cli("client", "get-ticket", "gateway",
                         "--tgs-port", s.tgs_port)
        yield s
        s.stop.set()
        for thread in s.threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in s.threads)


def fetch(stack, *extra):
    return stack.cli("client", "fetch", *extra,
                     "--gateway-port", stack.gateway_port,
                     "--tgs-port", stack.tgs_port)


def test_registration_output(stack):
    assert "registered principal=alice@EXAMPLE kind=user" in stack.registered_user.stdout
    assert "identity=" in stack.registered_user.stdout
    assert "registered principal=gateway@EXAMPLE kind=service" in \
        stack.registered_service.stdout
    assert (stack.root / "alice.id").exists()
    assert (stack.root / "gateway.keytab").exists()


def test_db_inspect(stack):
    text = stack.cli("db", "inspect")
    assert text.returncode == 0
    assert "realm=EXAMPLE tgs=krbtgt principals=3" in text.stdout
    data = json.loads(stack.cli("db", "inspect", "--json").stdout)
    kinds = {p["name"]: p["kind"] for p in data["principals"]}
    assert kinds == {"alice": "user", "gateway": "service", "krbtgt": "tgs"}
    assert kinds and data["realm"] == "EXAMPLE"


def test_wrong_password_exits_1_and_writes_nothing(stack):
    scratch = stack.root / "never.ccache"
    result = stack.cli("client", "kinit", "--identity", str(stack.root / "alice.id"),
                       "--password", "wrong", "--as-port", stack.as_port,
                       "--ccache", str(scratch))
    assert result.returncode == 1
    assert "error=WrongPassword" in result.stderr
    assert not scratch.exists()


def test_kinit_and_service_ticket(stack):
    assert stack.kinit.returncode == 0, stack.kinit.stderr
    assert "kinit ok principal=alice@EXAMPLE" in stack.kinit.stdout
    assert (stack.root / "alice.ccache").exists()
    assert stack.ticket.returncode == 0, stack.ticket.stderr
    assert "ticket ok service=gateway" in stack.ticket.stdout


def test_fetch_cold_then_cached(stack):
    cold = fetch(stack, "/data/report", "--body", "numbers")
    assert cold.returncode == 0, cold.stderr
    assert "status=200 served_from=backend body=numbers" in cold.stdout
    warm = fetch(stack, "/data/report", "--body", "numbers")
    assert "served_from=cache" in warm.stdout


def test_plain_fetch_respects_the_policy(stack):
    public = fetch(stack, "/public/page", "--plain", "--body", "hi")
    assert public.returncode == 0
    assert "status=200" in public.stdout
    private = fetch(stack, "/data/report", "--plain")
    assert private.returncode == 1
    assert "status=401" in private.stdout


def test_fetch_json_output(stack):
    result = fetch(stack, "/data/other", "--body", "x", "--json")
    data = json.loads(result.stdout)
    assert data == {"status": 200, "served_from": "backend", "body": "x"}


def test_fetch_without_a_service_ticket_gets_and_saves_one(stack):
    assert (stack.protected["name"], stack.protected["mode"]) == ("gateway@EXAMPLE", "protected")
    ccache = str(stack.root / "tgt-only.ccache")
    kinit = stack.cli("client", "kinit", "--identity", str(stack.root / "alice.id"),
                      "--password", "hunter2", "--as-port", stack.as_port, "--ccache", ccache)
    assert kinit.returncode == 0, kinit.stderr
    assert CredentialCache.load(ccache).peek_service("gateway") is None
    result = stack.cli("client", "fetch", "/echo", "--body", "ping", "--ccache", ccache,
                       "--gateway-port", stack.protected["port"], "--tgs-port", stack.tgs_port)
    assert result.returncode == 0, result.stderr
    assert "status=200 served_from=backend body=ping" in result.stdout
    assert CredentialCache.load(ccache).peek_service("gateway") is not None


def test_fetch_names_the_step_that_failed(stack):
    empty = stack.root / "empty.ccache"
    CredentialCache(Principal("alice", "EXAMPLE")).save(str(empty))
    no_tgt = fetch(stack, "/data/report", "--ccache", str(empty))
    assert no_tgt.returncode == 1
    assert "error=FetchError detail=AS: NoTgt" in no_tgt.stderr
    unknown = fetch(stack, "/data/report", "--service", "nosuch")
    assert unknown.returncode == 1
    assert "error=FetchError detail=TGS: UnknownService" in unknown.stderr


def test_server_commands_reject_bad_configuration(stack):
    no_keytab = stack.cli("service", "serve-echo")
    assert no_keytab.returncode == 1
    assert "error=KerbPkError detail=a protected service needs --keytab" in no_keytab.stderr
    bad_backend = stack.cli("gateway", "--policy", str(stack.root / "policy.txt"),
                            "--keytab", str(stack.root / "gateway.keytab"),
                            "--backend", "/data=nowhere")
    assert bad_backend.returncode == 1
    assert "backend spec must look like /prefix=host:port" in bad_backend.stderr


def start_gateway(stack, monkeypatch, *extra) -> Result:
    """``kerbpk gateway`` on the stack's policy and keytab; a gateway that
    starts stops at once instead of serving."""
    def stop_at_once(servers, banner):
        for server in servers:
            server.stop()
        return 0
    monkeypatch.setattr(cli, "_serve", stop_at_once)
    return stack.cli("gateway", "--policy", str(stack.root / "policy.txt"),
                     "--keytab", str(stack.root / "gateway.keytab"), "--port", "0", *extra)


@pytest.mark.parametrize("port", ["\u00b2", "\u0661\u0662", "99999"],
                         ids=["superscript", "arabic-indic", "above-65535"])
def test_gateway_rejects_a_bad_backend_port(stack, monkeypatch, port):
    result = start_gateway(stack, monkeypatch, "--backend", f"/=127.0.0.1:{port}")
    assert result.returncode == 1
    assert "error=KerbPkError detail=backend spec must look like /prefix=host:port" \
        in result.stderr


def test_gateway_refuses_a_negative_cache_capacity(stack, monkeypatch):
    assert start_gateway(stack, monkeypatch, "--cache-capacity", "0").returncode == 0
    result = start_gateway(stack, monkeypatch, "--cache-capacity", "-1")
    assert result.returncode == 2
    assert "--cache-capacity: must be 0 or more, got -1" in result.stderr


def test_unreadable_policy_is_a_policy_error(stack):
    missing = str(stack.root / "no-such-policy.txt")
    result = stack.cli("gateway", "--policy", missing, "--keytab", "x")
    assert result.returncode == 1
    assert f"error=PolicyParseError detail=cannot read policy {missing}" in result.stderr


def test_unreadable_scenario_is_a_scenario_error(stack):
    result = stack.cli("scenario", "run", str(stack.root))  # a directory
    assert result.returncode == 1
    assert f"error=ScenarioParseError detail=cannot read scenario {stack.root}" in result.stderr


def test_overlapping_registrations_keep_both_principals(tmp_path, monkeypatch):
    db_path = str(tmp_path / "realm.db")
    assert run_cli("kdc", "register-service", "echo", "--db", db_path,
                   "--provider", "toy").returncode == 0
    first_saving, second_loaded = threading.Event(), threading.Event()
    load, save = PrincipalDb.load.__func__, PrincipalDb.save

    def loading(cls, path):
        db = load(cls, path)
        if first_saving.is_set():
            second_loaded.set()
        return db

    def saving(db, path):
        # the first writer waits, at most 1 s, for the second to load
        if not first_saving.is_set():
            first_saving.set()
            second_loaded.wait(timeout=1.0)
        save(db, path)

    monkeypatch.setattr(PrincipalDb, "load", classmethod(loading))
    monkeypatch.setattr(PrincipalDb, "save", saving)
    codes = []

    def register(name):
        codes.append(cli.main(["kdc", "register-user", name, "--password", "pw",
                               "--db", db_path, "--provider", "toy"]))

    first = threading.Thread(target=register, args=("alice",))
    first.start()
    assert first_saving.wait(timeout=10)
    second = threading.Thread(target=register, args=("bob",))
    second.start()
    for thread in (first, second):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert codes == [0, 0]
    names = {record.principal.name for record in load(PrincipalDb, db_path).records()}
    assert names == {"krbtgt", "echo", "alice", "bob"}


def test_unreachable_kdc_is_a_connection_error(stack):
    result = stack.cli("client", "kinit", "--identity", str(stack.root / "alice.id"),
                       "--password", "hunter2", "--as-port", str(unused_port()),
                       "--ccache", str(stack.root / "unreached.ccache"))
    assert result.returncode == 1
    assert "error=ConnectionError" in result.stderr


def test_passwords_are_prompted_for(stack, monkeypatch):
    other_db = str(stack.root / "other.db")
    monkeypatch.setattr(cli.getpass, "getpass", lambda prompt: "hunter2")
    registered = stack.cli("kdc", "register-user", "carol", "--db", other_db)
    assert registered.returncode == 0, registered.stderr
    kinit = stack.cli("client", "kinit", "--identity", str(stack.root / "alice.id"),
                      "--as-port", stack.as_port, "--ccache", str(stack.root / "prompted.ccache"))
    assert kinit.returncode == 0, kinit.stderr
    assert "kinit ok principal=alice@EXAMPLE" in kinit.stdout

    def interrupted(prompt):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli.getpass, "getpass", interrupted)
    assert stack.cli("kdc", "register-user", "dave", "--db", other_db).returncode == 130
    listed = stack.cli("db", "inspect", "--db", other_db).stdout
    assert "principal=carol" in listed and "principal=dave" not in listed


def test_scenario_run_bundled(stack):
    result = stack.cli("scenario", "run", "happy_path")
    assert result.returncode == 0, result.stderr
    assert "frames=8 kdc_requests=2 handshake_legs=2" in result.stdout


def test_scenario_run_from_file(stack):
    path = stack.root / "mini.scn"
    path.write_text("realm EXAMPLE\nuser bob pw\nservice echo\n"
                    "step kinit bob pw\nstep ticket bob echo\n")
    result = stack.cli("scenario", "run", str(path), "--json")
    data = json.loads(result.stdout)
    assert data["scenario"] == "mini"
    assert all(step["outcome"] == "ok" for step in data["steps"])
    assert (data["frames"], data["kdc_requests"]) == (4, 2)


def test_scenario_unknown_name(stack):
    result = stack.cli("scenario", "run", "no_such_thing")
    assert result.returncode == 1
    assert "error=ScenarioParseError" in result.stderr


def test_usage_errors_exit_2(stack):
    assert stack.cli("client", "kinit").returncode == 2
    assert stack.cli("nonsense").returncode == 2
    seeded = stack.cli("kdc", "register-service", "x", "--seed", "7")
    assert seeded.returncode == 2
    assert "--seed requires --provider toy" in seeded.stderr
    assert run_child("nonsense", cwd=stack.root).returncode == 2


def test_version_flag(stack):
    result = run_child("--version", cwd=stack.root)
    assert result.returncode == 0
    assert result.stdout.startswith("kerbpk ")


def test_serve_stops_its_servers_when_interrupted(capsys, monkeypatch):
    server = ThreadedFrameServer(BackendSession).start()

    def interrupted(seconds):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli.time, "sleep", interrupted)
    assert cli._serve([server], "service listening") == 0
    assert capsys.readouterr().out == "service listening\n"
    with pytest.raises(OSError):
        FrameClient(server.host, server.port, timeout=1.0)


@contextlib.contextmanager
def serving_child(argv, cwd):
    """A server child started as ``argv``; yields its banner fields, then
    interrupts it and checks that it stopped cleanly and quietly."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=str(cwd), env=dict(os.environ, PYTHONPATH=CHILD_PYTHONPATH))
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            assert sel.select(15.0), "server printed no banner in time"
        yield banner_fields(proc.stdout.readline())
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=15) == 0
        assert proc.stderr.read() == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def echo_once(port: str) -> None:
    conn = FrameClient("127.0.0.1", int(port))
    try:
        reply = call(conn, AppRequest("POST", "/", b"hi"), codec.SchemaId.APP_RESPONSE)
    finally:
        conn.close()
    assert (reply.status, reply.body) == (200, b"hi")


def test_server_child_prints_its_banner_and_stops_on_interrupt(tmp_path):
    argv = [sys.executable, "-m", "kerbpk", "service", "serve-echo", "--plain", "--port", "0"]
    with serving_child(argv, tmp_path) as banner:
        assert banner["mode"] == "plain"
        echo_once(banner["port"])


def test_plain_echo_serves_while_cryptography_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every import of that name fail
    blocked = ("import sys\n"
               "sys.modules['cryptography'] = None\n"
               "from kerbpk.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    argv = [sys.executable, "-c", blocked, "service", "serve-echo", "--plain", "--port", "0"]
    with serving_child(argv, tmp_path) as banner:
        echo_once(banner["port"])


# Runs one command in a fresh interpreter and prints its exit status and every
# module it loaded; a server stops as soon as it is up instead of serving.
LOADED_BY = (
    "import contextlib, io, json, sys\n"
    "from kerbpk import cli\n"
    "def stop_at_once(servers, banner):\n"
    "    for server in servers:\n"
    "        server.stop()\n"
    "    return 0\n"
    "cli._serve = stop_at_once\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    status = cli.main(sys.argv[1:])\n"
    "print(json.dumps([status, sorted(sys.modules)]))\n")

KERBEROS_LAYERS = {"kerbpk.crypto", "kerbpk.messages", "kerbpk.gss", "kerbpk.kdc",
                   "kerbpk.client", "kerbpk.gateway", "kerbpk.scenario"}


def modules_loaded_by(*args) -> tuple[int, set]:
    proc = subprocess.run([sys.executable, "-c", LOADED_BY, *args], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=CHILD_PYTHONPATH))
    assert proc.returncode == 0, proc.stderr
    status, loaded = json.loads(proc.stdout)
    return status, set(loaded)


def cryptography_modules(loaded: set) -> set:
    return {m for m in loaded if m == "cryptography" or m.startswith("cryptography.")}


def test_start_up_loads_only_the_shared_modules():
    """Every command pays for what ``import kerbpk.cli`` loads: the codec, the
    errors and the transport.  Every other layer loads only in the commands
    that run it."""
    probe = (
        "import json, sys\n"
        "import kerbpk\n"
        "bare = sorted(m for m in sys.modules if m.startswith('kerbpk.'))\n"
        "import kerbpk.cli\n"
        "print(json.dumps([bare, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=CHILD_PYTHONPATH))
    assert proc.returncode == 0, proc.stderr
    bare, loaded = json.loads(proc.stdout)
    assert bare == []
    assert {m for m in loaded if m.startswith("kerbpk.")} == \
        {"kerbpk.cli", "kerbpk.codec", "kerbpk.errors", "kerbpk.transport"}
    deferred = KERBEROS_LAYERS | {"kerbpk.app", "_hashlib", "cryptography"}
    assert deferred.isdisjoint(loaded)


@pytest.mark.parametrize("args", [
    ("service", "serve-echo", "--plain", "--port", "0"),
    ("client", "fetch", "/public/page", "--plain", "--gateway-port", "1"),
], ids=["serve-echo", "fetch"])
def test_plain_commands_load_no_crypto_or_ticket_layer(args):
    status, loaded = modules_loaded_by(*args)
    assert status == (0 if args[0] == "service" else 1)  # nothing listens on port 1
    assert "kerbpk.app" in loaded
    assert KERBEROS_LAYERS.isdisjoint(loaded)
    assert "_hashlib" not in loaded
    assert cryptography_modules(loaded) == set()


def test_toy_scenario_run_loads_no_cryptography():
    status, loaded = modules_loaded_by("scenario", "run", "happy_path")
    assert status == 0
    assert "kerbpk.crypto" in loaded and "kerbpk.scenario" in loaded
    assert cryptography_modules(loaded) == set()


def test_the_probe_sees_a_standard_provider_load_cryptography(tmp_path):
    status, loaded = modules_loaded_by("kdc", "register-service", "echo",
                                       "--db", str(tmp_path / "realm.db"))
    assert status == 0
    assert "cryptography.hazmat.primitives.ciphers.aead" in loaded
