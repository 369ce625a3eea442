"""``repro-sec serve`` with the engine spans of :mod:`tracer` installed.

Usage: ``traced_serve.py TRACE_DIR serve [serve options...]``.  The daemon
forks one worker per job, and each worker inherits the wrappers.  After its
job a worker writes its span aggregates to ``TRACE_DIR/<pid>.json``; the
benchmark sums those files per pass.
"""

import json
import os
import sys

from tracer import ENGINE_SPANS, Tracer


def main(argv):
    trace_dir = argv[0]
    tracer = Tracer()
    tracer.install(ENGINE_SPANS)

    from repro.service import worker

    run_job = worker.run_job

    def traced_run_job(*args, **kwargs):
        try:
            return run_job(*args, **kwargs)
        finally:
            path = os.path.join(trace_dir, "{}.json".format(os.getpid()))
            with open(path, "w") as fh:
                json.dump(tracer.snapshot(), fh)
            tracer.reset()

    worker.run_job = traced_run_job

    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
