"""Source hygiene: every name a library or test module imports is used in that
module, only one function makes a replay cache, only one function reads a
frame's length header, only ``TableSession.refuse`` builds an ErrorReply and
the scenario never names one, AES-GCM is built once per key or per public-key
wrap, no per-message path runs an import statement, every registered
structure is reachable, and every name the benchmark takes from the library
resolves."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "kerbpk"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def replay_cache_calls(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Call) and
               getattr(node.func, "id", getattr(node.func, "attr", None)) == "ReplayCache"
               for node in ast.walk(tree))


def length_header_reads(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Attribute) and node.attr.startswith("unpack")
               and getattr(node.value, "id", None) == "_LEN" for node in ast.walk(tree))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert len(MODULES) >= 10 and len(TEST_MODULES) >= 10  # both trees were found
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


def test_only_protected_endpoint_makes_a_replay_cache():
    # An endpoint's connections share its one cache (RFC 4120 3.2.3).  The
    # KDC's comes from KdcService's default_factory, a reference, not a call.
    trees = [ast.parse(path.read_text()) for path in MODULES]
    builder = next(node for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "protected_endpoint")
    assert sum(replay_cache_calls(tree) for tree in trees) == replay_cache_calls(builder) == 1


def test_only_take_frame_reads_a_length_header():
    # Every connection end, sim or TCP, client or server, cuts frames with
    # take_frame, so a corrupted header fails the same way on both transports.
    trees = [ast.parse(path.read_text()) for path in MODULES]
    cutter = next(node for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "take_frame")
    assert sum(length_header_reads(tree) for tree in trees) == length_header_reads(cutter) == 1


def error_reply_builds(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Call) and
               getattr(node.func, "id", getattr(node.func, "attr", None)) == "ErrorReply"
               for node in ast.walk(tree))


def test_only_transport_builds_an_error_reply():
    # serve_frame refuses every frame a server will not answer, an oversize
    # header included, through the session's refuse: one answer path.
    trees = [ast.parse(path.read_text()) for path in MODULES]
    session = next(node for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name == "TableSession")
    refuse = next(node for node in session.body
                  if isinstance(node, ast.FunctionDef) and node.name == "refuse")
    assert sum(error_reply_builds(tree) for tree in trees) == error_reply_builds(refuse) == 1


def aesgcm_builds(tree: ast.AST) -> int:
    return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AESGCM"
               for node in ast.walk(tree))


def test_aes_gcm_is_built_once_per_key_or_per_public_key_wrap():
    # seal and open reuse the cipher kept with their key; only the public-key
    # wrap, whose keys are ephemeral, builds one per call
    trees = [ast.parse(path.read_text()) for path in MODULES]
    builders = {node.name: aesgcm_builds(node) for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and aesgcm_builds(node)}
    assert builders == {"_cipher_for": 1, "pk_encrypt": 1, "pk_decrypt": 1}
    assert sum(aesgcm_builds(tree) for tree in trees) == 3


def test_the_scenario_never_names_the_error_reply():
    # the scenario sees a refusal through the session's refuse, not by
    # decoding the replies a session sends
    tree = ast.parse((SOURCE / "scenario.py").read_text())
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names & {"ErrorReply", "ERROR_REPLY"} == set()


def test_no_per_message_path_imports():
    # cryptography loads once, when the first StandardProvider is built, and
    # hashlib when the first ToyProvider is; the functions that run once per
    # message or request never import anything
    per_message = {"seal", "open", "digest", "feed", "refuse", "call", "handle", "wrap",
                   "unwrap"}
    functions = [node for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name in per_message]
    assert {node.name for node in functions} == per_message  # the names still exist
    importing = [node.name for node in functions
                 if any(isinstance(inner, (ast.Import, ast.ImportFrom))
                        for inner in ast.walk(node))]
    assert importing == []


def test_every_registered_structure_is_reachable():
    # A structure is used where a src/ line other than its decorator names its
    # schema id (to decode or load it), or where a used structure holds it.
    from kerbpk import codec
    lines = [line for path in MODULES for line in path.read_text().splitlines()]
    decorated = [line for line in lines if line.lstrip().startswith("@codec.structure(")]
    for path in MODULES:
        importlib.import_module(f"kerbpk.{path.stem}")
    assert len(decorated) == len(codec._by_id)  # the scan sees every registration
    named = {name for line in lines if line not in decorated
             for name in re.findall(r"SchemaId\.([A-Z_]+)", line)}
    reachable, todo = set(), [codec._by_id[codec.SchemaId[name]] for name in named
                              if codec.SchemaId[name] in codec._by_id]
    while todo:
        schema = todo.pop()
        if schema.cls not in reachable:
            reachable.add(schema.cls)
            todo += [codec._by_type[nested] for _, _, nested in schema.fields if nested]
    assert sorted(schema.cls.__name__ for schema in codec._by_id.values()
                  if schema.cls not in reachable) == []


def test_the_benchmark_resolves_against_src():
    # perfbench imports kerbpk names and its tracer wraps more by name; a
    # rename in src/ must not wait for a benchmark run to show.
    probe = ("import bench_layers, bench_sim, bench_tcp, bench_trace\n"
             "bench_trace.install(bench_trace.Tracer())\n")
    path = os.pathsep.join([str(SOURCE.parent), str(TESTS.parent / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
