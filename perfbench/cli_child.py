"""``python -m effalg.cli ARGS`` with the benchmark's tracer installed.

The traced cli run starts each command through this file; the untraced
run starts ``python -m effalg.cli`` itself.  The figures are written as
JSON to the file named by PERFBENCH_TRACE, also when the command raises.
"""

import json
import os
import sys
import time

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [os.path.dirname(here)] + [p for p in sys.path if os.path.abspath(p or ".") != here]
start = time.perf_counter()
import effalg.cli  # noqa: E402

import_s = time.perf_counter() - start
from perfbench.tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.import_s = import_s
try:
    code = effalg.cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_TRACE"], "w") as fh:
        json.dump(tracer.to_dict(), fh)
sys.exit(code)
