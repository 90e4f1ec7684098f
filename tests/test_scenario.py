"""Scenario DSL: parsing, bundled scripts, fault variants, transport parity."""

import hashlib
import json

import pytest

from kerbpk import codec, scenario
from kerbpk.crypto import ToyProvider
from kerbpk.errors import ScenarioParseError
from kerbpk.app import SERVED_BACKEND, AppResponse
from kerbpk.scenario import (list_scenarios, load_scenario, parse_scenario,
                             run_scenario)
from kerbpk.transport import Delay, Drop, FlipBit

HAPPY = """\
realm EXAMPLE
user alice hunter2
service echo

step kinit alice hunter2
step ticket alice echo
step handshake alice echo
step send alice echo hello-world
"""


# -------------------------------------------------------------------- parsing

def test_parse_scenario_collects_declarations():
    script = parse_scenario(HAPPY, name="happy")
    assert script.realm == "EXAMPLE"
    assert script.users == (("alice", "hunter2"),)
    assert script.services == ("echo",)
    assert [s.kind for s in script.steps] == ["kinit", "ticket", "handshake", "send"]
    assert script.steps[3].args == ("alice", "echo", "hello-world")  # text joined


def test_parse_scenario_faults_and_comments():
    script = parse_scenario("""\
# a comment
realm R
fault drop 2
fault delay 3 10

step advance 5
""")
    assert script.faults == (Drop(2), Delay(3, 10))
    assert script.steps[0].args == (5,)


@pytest.mark.parametrize("text,lineno", [
    ("nonsense here", 1),
    ("realm R\nstep warp alice", 2),
    ("realm R\nuser alice", 2),                       # password missing
    ("realm R\n\nstep kinit alice pw extra-variant", 3),
    ("realm R\nfault flip 1 2", 2),
    ("realm R EXTRA", 1),
    ("realm R\nuser alice pw\nuser alice pw2", 3),    # declared twice
    ("service", 1),
    ("service echo\nservice echo", 2),
    ("step", 1),
    ("step kinit alice", 1),
    ("step ticket alice", 1),
    ("step send alice echo", 1),
    ("step pipeline alice echo one", 1),
    ("step advance soon", 1),
    ("step advance \u00b2", 1),            # a digit, but not a number
    ("step advance \u0661\u0662", 1),      # Arabic-Indic 12
])
def test_parse_scenario_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ScenarioParseError, match=rf"inline:{lineno}:"):
        parse_scenario(text)


def test_bundled_scenarios_load():
    names = list_scenarios()
    for name in ("happy_path", "replay_attack", "expired_ticket", "expired_tunnel"):
        assert name in names
        load_scenario(name)
    with pytest.raises(ScenarioParseError, match="happy_path"):
        load_scenario("no_such_script")  # the error lists what exists


# ------------------------------------------------------------------ happy path

def test_happy_path_report():
    report = run_scenario(load_scenario("happy_path"), seed=11)
    assert report.ok
    assert (report.frames, report.kdc_requests, report.handshake_legs) == (8, 2, 2)
    assert report.events == []
    assert [s.outcome for s in report.steps] == ["ok"] * 4
    text = report.render()
    assert "frames=8 kdc_requests=2 handshake_legs=2" in text
    assert "ccache=stored" in text


def test_inline_scenario_runs():
    report = run_scenario(HAPPY, seed=2)
    assert report.ok and report.frames == 8


def test_report_json_shape():
    data = json.loads(run_scenario(HAPPY, seed=2).to_json())
    assert data["scenario"] == "inline"
    assert data["frames"] == 8
    assert [s["name"] for s in data["steps"]] == ["kinit", "ticket", "handshake", "send"]


def test_runs_are_seed_deterministic():
    first = run_scenario(HAPPY, seed=9).render()
    second = run_scenario(HAPPY, seed=9).render()
    assert first == second


# errors, a pipeline, and a ticket that expires mid-run, over both transports
MIXED = """\
realm EXAMPLE
user alice hunter2
service echo

step kinit alice hunter2
step kinit alice wrong-guess
step ticket alice echo
step handshake alice echo
step send alice echo hello-world
step pipeline alice echo first second
step advance 29200
step handshake alice echo
"""


def test_sim_and_tcp_agree_on_fault_free_scripts():
    for script, clean in ((HAPPY, True), (MIXED, False),
                          (load_scenario("expired_tunnel"), False)):
        sim = run_scenario(script, seed=4, transport="sim")
        tcp = run_scenario(script, seed=4, transport="tcp")
        assert tcp.ok is clean
        assert (sim.frames, sim.kdc_requests, sim.handshake_legs) == \
            (tcp.frames, tcp.kdc_requests, tcp.handshake_legs)
        assert [s.outcome for s in sim.steps] == [s.outcome for s in tcp.steps]
        # every line but the first, which names the transport
        assert sim.render().splitlines()[1:] == tcp.render().splitlines()[1:]


def test_tcp_transport_rejects_wire_faults():
    with pytest.raises(ScenarioParseError, match="simulated transport"):
        run_scenario(HAPPY, seed=1, transport="tcp", extra_faults=(Drop(2),))


def test_unknown_transport_rejected():
    with pytest.raises(ValueError, match="unknown transport"):
        run_scenario(HAPPY, transport="pigeon")


# ------------------------------------------------------------- attack variants

def test_replay_attack_detected_exactly_once():
    report = run_scenario(load_scenario("replay_attack"), seed=5)
    assert [e.error for e in report.events] == ["ReplayDetected"]
    assert report.events[0].actor == "echo"
    # the honest handshake still completed; only the replayed copy was refused
    assert report.steps[2].outcome == "ok"


def test_expired_ticket_refused():
    report = run_scenario(load_scenario("expired_ticket"), seed=5)
    assert not report.ok
    failing = [s for s in report.steps if s.outcome == "error"]
    assert [(s.name, s.error) for s in failing] == [("handshake", "TicketExpired")]
    assert [e.error for e in report.events] == ["TicketExpired"]


def test_tunnel_ends_with_its_ticket():
    report = run_scenario(load_scenario("expired_tunnel"), seed=5)
    assert [(s.name, s.outcome, s.error) for s in report.steps[3:]] == [
        ("send", "ok", None), ("advance", "ok", None), ("send", "error", "TicketExpired")]
    assert [e.render() for e in report.events] == ["event step=6 actor=echo error=TicketExpired"]


# SHA-256 of to_json() + render() and then every transcript wire image, in
# order: any change to a byte on the wire or in a report shows here.
REPORT_PINS = {
    ("happy_path", 0): "e2f16f92534bd3e6d4c2b978cba67efdbf5d5f84d8582d848f549fcad7a36a89",
    ("happy_path", 7): "31faa31c4d60a7d6cdd3b8d7e1e6487c85822b443803304ba6b1d8af71ff99f0",
    ("replay_attack", 0): "a95d9241e2d5f6ca0ba0d35d63a76c7529bf55b96fc18b0882b2bfe23c4c7f9f",
    ("replay_attack", 7): "81113e3b548eb0c629ebdfb891901931b19a9512360febcb64d56d073909b37d",
    ("expired_ticket", 0): "c2a29b76b454ab81a549e704a4e5937d23e5e34bde93a8149d5cabc82eb152b4",
    ("expired_ticket", 7): "8c7da3be58828655242cd4bf5a4506e77deed0c94386d20f6c1052d63f00a235",
    ("expired_tunnel", 0): "8897b63e93cb6d74ff742f3d7557d169448be60b4dac67bba3737cb3630c7bd2",
    ("expired_tunnel", 7): "039b41f137da2054114dd120403dc56dbc7aae9df2ffe90ee61fb092a9624d0c",
}


@pytest.mark.parametrize("name,seed", sorted(REPORT_PINS))
def test_bundled_reports_and_wires_are_pinned(name, seed):
    report = run_scenario(load_scenario(name), seed=seed)
    digest = hashlib.sha256((report.to_json() + report.render()).encode())
    digest.update(b"".join(record.wire for record in report.transcript))
    assert digest.hexdigest() == REPORT_PINS[name, seed], report.render()


# happy_path's frames at seed 0, in transcript order, and each one's size on the
# wire in bytes.  Beside the opaque pins above, this shows which frame a wire
# change moved, and by how much.
HAPPY_PATH_FRAME_SIZES = [
    ("alice<->as", "c->s", 215),     # AS request
    ("alice<->as", "s->c", 341),     # AS reply
    ("alice<->tgs", "c->s", 332),    # TGS request
    ("alice<->tgs", "s->c", 342),    # TGS reply
    ("alice<->echo", "c->s", 299),   # handshake, first leg
    ("alice<->echo", "s->c", 111),   # handshake, reply leg
    ("alice<->echo", "c->s", 94),    # wrapped request
    ("alice<->echo", "s->c", 88),    # wrapped response
]


def test_happy_path_frame_sizes_are_pinned():
    report = run_scenario(load_scenario("happy_path"), seed=0)
    assert [(r.channel, r.direction, len(r.wire)) for r in report.transcript] == \
        HAPPY_PATH_FRAME_SIZES


# Calls that one clean happy_path run at seed 0 makes to each codec entry point
# and to the toy seal and open: beside the bytes above, the work they cost.  A
# re-encode added anywhere on the path shows here as a number.
HAPPY_PATH_CALLS = {"codec.encode": 17, "codec.decode": 17, "codec.encode_body": 6,
                    "ToyProvider.seal": 9, "ToyProvider.open": 9}


def test_happy_path_call_counts_are_pinned(monkeypatch):
    calls = dict.fromkeys(HAPPY_PATH_CALLS, 0)

    def counted(owner, name):
        original = getattr(owner, name)
        key = f"{owner.__name__.rpartition('.')[2]}.{name}"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("encode", "decode", "encode_body"):
        counted(codec, name)
    for name in ("seal", "open"):
        counted(ToyProvider, name)
    assert run_scenario(load_scenario("happy_path"), seed=0).ok
    assert calls == HAPPY_PATH_CALLS


def test_wrong_password_leaves_no_credentials():
    report = run_scenario("""\
realm EXAMPLE
user alice hunter2
service echo
step kinit alice wrong-guess
""", seed=3)
    step = report.steps[0]
    assert (step.outcome, step.error) == ("error", "WrongPassword")
    assert step.detail.get("ccache") == "absent"
    assert report.events == []  # the reply opened fine; the client rejected it


def test_unknown_principal_rejected_by_the_kdc():
    report = run_scenario("""\
realm EXAMPLE
user alice hunter2
step kinit mallory guess
""", seed=3)
    step = report.steps[0]
    assert (step.outcome, step.error) == ("error", "UnknownPrincipal")
    assert step.detail.get("ccache") == "absent"
    assert [e.actor for e in report.events] == ["kdc-as"]


@pytest.mark.parametrize("variant,error", [
    ("bad-cert", "CertificateMismatch"),
    ("forged-sig", "SignatureInvalid"),
])
def test_doctored_login_attempts(variant, error):
    report = run_scenario(f"""\
realm EXAMPLE
user alice hunter2
step kinit alice hunter2 {variant}
""", seed=3)
    step = report.steps[0]
    assert (step.outcome, step.error) == ("error", error)
    assert step.detail.get("ccache") == "absent"
    assert [e.error for e in report.events] == [error]


def test_ticket_without_login_fails():
    report = run_scenario("""\
realm EXAMPLE
user alice hunter2
service echo
step ticket alice echo
""", seed=3)
    assert (report.steps[0].outcome, report.steps[0].error) == ("error", "NoTgt")


# --------------------------------------------------------------- fault variants

def test_dropped_request_times_out():
    report = run_scenario(HAPPY, seed=8, extra_faults=(Drop(1),))
    assert (report.steps[0].outcome, report.steps[0].error) == ("error", "Timeout")


def test_delayed_reply_still_succeeds():
    report = run_scenario(HAPPY, seed=8, extra_faults=(Delay(2, 10),))
    assert report.ok


def test_flipped_kdc_frame_is_reported_not_accepted():
    report = run_scenario(HAPPY, seed=8, extra_faults=(FlipBit(2, 60, 0),))
    assert not report.ok
    assert report.steps[0].outcome == "error"
    assert report.steps[0].error  # named, never silent


def test_oversize_length_prefix_is_refused_as_an_event():
    # the top bit of the AS request's length prefix: the header claims 2 GiB
    report = run_scenario(HAPPY, seed=8, extra_faults=(FlipBit(1, 0, 0),))
    assert (report.steps[0].outcome, report.steps[0].error) == ("error", "FrameTooLarge")
    assert [e.render() for e in report.events] == ["event step=1 actor=kdc-as error=FrameTooLarge"]


def test_request_cut_short_by_its_length_prefix_is_refused_when_the_client_gives_up():
    # the TGS request's header claims 2 bytes more than come: the server waits
    # inside the frame until the client times out and closes the connection
    report = run_scenario(HAPPY, seed=8, extra_faults=(FlipBit(3, 3, 1),))
    assert (report.steps[1].outcome, report.steps[1].error) == ("error", "Timeout")
    assert [e.render() for e in report.events] == ["event step=2 actor=kdc-tgs error=Truncated"]
    assert report.kdc_requests == 1  # the cut request never reached the TGS


def test_pipeline_and_swap_reorders_are_caught():
    script = """\
realm EXAMPLE
user alice hunter2
service echo
fault swap 7 8
step kinit alice hunter2
step ticket alice echo
step handshake alice echo
step pipeline alice echo one two
"""
    report = run_scenario(script, seed=8)
    failing = [s for s in report.steps if s.outcome == "error"]
    assert [s.name for s in failing] == ["pipeline"]
    assert [e.error for e in report.events] == ["OutOfSequence"]


def test_pipeline_without_faults_keeps_order():
    script = """\
realm EXAMPLE
user alice hunter2
service echo
step kinit alice hunter2
step ticket alice echo
step handshake alice echo
step pipeline alice echo one two
"""
    report = run_scenario(script, seed=8)
    assert report.ok
    pipeline = report.steps[3]
    assert pipeline.detail.get("replies") == "2"  # renders as text
    assert report.frames == 10  # two wrapped calls add four frames to the six


def test_second_handshake_replaces_the_channel():
    report = run_scenario(HAPPY + "step handshake alice echo\nstep send alice echo again\n",
                          seed=8)
    assert report.ok, report.render()
    assert report.handshake_legs == 4
    assert report.steps[-1].detail == {"bytes": "5", "status": "200"}


def test_echo_that_comes_back_altered_is_an_error(monkeypatch):
    endpoint = scenario.protected_endpoint
    monkeypatch.setattr(scenario, "protected_endpoint", lambda *args: endpoint(
        *args, handler=lambda request: AppResponse(200, request.body.upper(),
                                                   SERVED_BACKEND)))
    report = run_scenario(HAPPY + "step handshake alice echo\n"
                          "step pipeline alice echo one two\n", seed=8)
    assert [(s.name, s.outcome, s.error) for s in report.steps[3:]] == [
        ("send", "error", "EchoMismatch"),
        ("handshake", "ok", None),
        ("pipeline", "error", "StateError"),
    ]
    assert report.steps[3].detail == {"bytes": "11"}
