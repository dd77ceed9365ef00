"""`gcmi` command line with the tracer installed, for cli_mixed's traced run.

    python cli_traced.py SPANS_DIR <gcmi arguments...>

Equivalent to ``python -m gcmi <gcmi arguments...>`` except that the
import of gcmi.cli and the whole command are recorded as spans along
with those of tracing.WRAPPED, and written to SPANS_DIR on exit.
"""

import sys
import time

t0 = time.perf_counter()
import tracing  # noqa: E402

tracer = tracing.Tracer(sys.argv[1])
t1 = time.perf_counter()
import gcmi.cli  # noqa: E402

tracer.add("cli.import", t1, time.perf_counter())
tracer.install()
try:
    code = tracer.call("cli.main", gcmi.cli.cli_main, sys.argv[2:])
finally:
    tracer.close()
sys.exit(code)
