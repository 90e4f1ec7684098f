"""End-to-end command line runs against real sockets, via subprocess."""

import json
import os
import selectors
import subprocess
import sys

import pytest

import kerbpk

# Children run in a temporary directory, so a relative PYTHONPATH such as
# "src" would not find the package; put its absolute source root first.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(kerbpk.__file__)))
CHILD_PYTHONPATH = os.pathsep.join(
    [SRC_DIR] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def run_cli(args, env, cwd):
    return subprocess.run([sys.executable, "-m", "kerbpk", *args],
                          capture_output=True, text=True, env=env, cwd=str(cwd),
                          timeout=120)


def read_banner(proc, timeout=15.0):
    """First stdout line of a server process, parsed as key=value pairs."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    if not sel.select(timeout):
        proc.terminate()
        raise AssertionError("server printed no banner in time")
    line = proc.stdout.readline()
    assert line, "server exited before printing its banner"
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


class Stack:
    """A registered realm plus live kdc, backend, and gateway processes."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ,
                        PYTHONPATH=CHILD_PYTHONPATH,
                        KERBPK_DB=str(root / "realm.db"),
                        KERBPK_CCACHE=str(root / "alice.ccache"),
                        KERBPK_REALM="EXAMPLE")
        self.procs = []

    def cli(self, *args):
        return run_cli(list(args), self.env, self.root)

    def serve(self, *args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "kerbpk", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            bufsize=1, env=self.env, cwd=str(self.root))
        self.procs.append(proc)
        return read_banner(proc)


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-stack")
    s = Stack(root)

    s.registered_user = s.cli("kdc", "register-user", "alice",
                              "--password", "hunter2",
                              "--identity-out", str(root / "alice.id"))
    s.registered_service = s.cli("kdc", "register-service", "gateway",
                                 "--keytab-out", str(root / "gateway.keytab"))
    assert s.registered_user.returncode == 0, s.registered_user.stderr
    assert s.registered_service.returncode == 0, s.registered_service.stderr

    (root / "policy.txt").write_text("bypass /public\n")
    kdc = s.serve("kdc", "serve", "--as-port", "0", "--tgs-port", "0")
    backend = s.serve("service", "serve-echo", "--plain", "--port", "0")
    gateway = s.serve("gateway", "--policy", str(root / "policy.txt"),
                      "--keytab", str(root / "gateway.keytab"), "--port", "0",
                      "--backend", f"/=127.0.0.1:{backend['port']}")
    s.as_port, s.tgs_port = kdc["as_port"], kdc["tgs_port"]
    s.gateway_port = gateway["port"]

    s.kinit = s.cli("client", "kinit", "--identity", str(root / "alice.id"),
                    "--password", "hunter2", "--as-port", s.as_port)
    s.ticket = s.cli("client", "get-ticket", "gateway",
                     "--tgs-port", s.tgs_port)
    yield s
    for proc in s.procs:
        proc.terminate()
    for proc in s.procs:
        proc.wait(timeout=10)


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


def test_version_flag(stack):
    result = stack.cli("--version")
    assert result.returncode == 0
    assert result.stdout.startswith("kerbpk ")
