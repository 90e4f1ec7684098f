"""Installs the layer wrappers in a server process started by the benchmark.

The benchmark puts this directory on the server's PYTHONPATH only for a traced
run, so the server itself is the unchanged ``python -m kerbpk ...`` command.
``PERFBENCH_TRACE_OUT`` names the file the spans go to when the server exits.
"""

import os

_out = os.environ.get("PERFBENCH_TRACE_OUT")
if _out:
    import atexit
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import bench_trace

    _tracer = bench_trace.Tracer()
    bench_trace.install(_tracer)
    atexit.register(_tracer.dump, _out)
