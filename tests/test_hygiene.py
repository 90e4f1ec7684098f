"""Source hygiene: every name a library or test module imports is used in that
module, only one function makes a replay cache, only one function reads a
frame's length header, no per-message path runs an import statement, and
every name the benchmark takes from the library resolves."""

import ast
import os
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


def test_no_per_message_path_imports():
    # cryptography loads once, when the first StandardProvider is built; the
    # functions that run once per message or request never import anything
    per_message = {"seal", "open", "feed", "call", "handle", "wrap", "unwrap"}
    functions = [node for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name in per_message]
    assert {node.name for node in functions} == per_message  # the names still exist
    importing = [node.name for node in functions
                 if any(isinstance(inner, (ast.Import, ast.ImportFrom))
                        for inner in ast.walk(node))]
    assert importing == []


def test_the_benchmark_resolves_against_src():
    # perfbench imports kerbpk names and its tracer wraps more by name; a
    # rename in src/ must not wait for a benchmark run to show.
    probe = ("import bench_layers, bench_sim, bench_tcp, bench_trace\n"
             "bench_trace.install(bench_trace.Tracer())\n")
    path = os.pathsep.join([str(SOURCE.parent), str(TESTS.parent / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
