"""Line ledger: every ``src/kerbpk`` line that tier-1 never executes.

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, without the bit-flip sweep, whose 60-s time gate
tracing would break, then prints
each executable source line that no test reached and the totals, and the
physical line counts of ``src/kerbpk/*.py`` and ``tests/*.py``.  Standard
library only; tracing makes the suite take about three times as long, so the
ledger is a separate check rather than a test.

    python tests/line_ledger.py

Exits 1 when a test fails or when more than ``CEILING`` lines outside
``__main__.py`` go unexecuted.  ``__main__.py`` runs only as ``python -m
kerbpk``, in a child process, so it is listed but not counted.
"""

from __future__ import annotations

import os
import sys
import threading

CEILING = 4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kerbpk")
SKIPPED_TEST = "tests/test_acceptance.py::test_every_wire_bit_flip_is_rejected"
UNCOUNTED = "__main__.py"


def executable_lines(path: str) -> set[int]:
    """Line numbers that carry bytecode, over every code object in the file."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def physical_lines(folder: str) -> int:
    """Lines in the ``*.py`` files directly inside ``folder``."""
    total = 0
    for name in os.listdir(folder):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                total += len(fh.read().splitlines())
    return total


def main() -> int:
    sources = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    hits: dict[str, set[int]] = {os.path.realpath(path): set() for path in sources}
    # code filename -> its source's hit set, or None for code outside the package
    owners: dict[str, set[int] | None] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            owners[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in owners:
            owners[filename] = hits.get(os.path.realpath(filename))
        if owners[filename] is None:
            return None
        owners[filename].add(frame.f_lineno)
        return trace_lines

    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", SKIPPED_TEST])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = uncounted = 0
    for path in sources:
        lines = executable_lines(path)
        unrun = sorted(lines - hits[os.path.realpath(path)])
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in unrun:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        total += len(lines)
        if os.path.basename(path) == UNCOUNTED:
            uncounted += len(unrun)
        else:
            missed += len(unrun)
    print(f"unexecuted {missed} of {total} executable src/kerbpk lines "
          f"(ceiling {CEILING}), plus {uncounted} in {UNCOUNTED}")
    print(f"lines: src/kerbpk/*.py {physical_lines(PACKAGE)}, "
          f"tests/*.py {physical_lines(os.path.join(ROOT, 'tests'))}")
    if status != 0:
        print(f"tier-1 exited {int(status)}")
        return 1
    return 0 if missed <= CEILING else 1


if __name__ == "__main__":
    sys.exit(main())
