"""Run one amenlab CLI command in this fresh interpreter and record timings.

Usage: python3 bench/jobproc.py RECORD TRACE -- ARGS...

Imports ``amenlab.cli`` exactly as the ``amenlab`` console script does,
optionally installs the layer tracer (TRACE = 1), then runs
``amenlab.cli.main(ARGS)``.  RECORD receives one JSON object: the
CLOCK_MONOTONIC instants at which the job started (import done) and ended
(envelope written), the exit code, the process's peak RSS, the file
``amenlab`` was imported from and, when traced, the span aggregates.
"""

import json
import resource
import sys
import time

import amenlab.cli


def main() -> None:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: jobproc.py RECORD TRACE -- ARGS...")
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        code = amenlab.cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    sys.stdout.flush()
    record = {
        "ready_ns": ready,
        "end_ns": end,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": amenlab.cli.__file__,
        "trace": tracer.summary() if tracer else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
