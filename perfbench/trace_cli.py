"""Run one pia command under the tracer (traced pia-readme runs only).

Usage: python3 perfbench/trace_cli.py <metrics.json> <pia arguments...>

Times the import of phaseintegral.cli, installs the tracer, runs cli.main
and writes the per-layer metrics to <metrics.json> and the spans next to it.
The exit code is the command's.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import phaseintegral.cli as cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.extra["cli.import_s"] = import_s
    tracer.install()
    try:
        rc = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({"metrics": tracer.metrics()}, fh)
    tracer.dump(os.path.splitext(sys.argv[1])[0] + "-spans.json.gz")
    sys.exit(rc)
