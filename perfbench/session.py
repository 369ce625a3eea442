"""One benchmark session: set a workload up, then run its passes.

``run.py`` starts this as a child process, so interpreter start and imports
count in the set-up time.  The session writes JSON lines to its standard
output: ``{"ready": true, "probes": [...]}`` once set up (pairs
synthesized, faults injected, daemon booted, warm-up job done), then
``{"result": ...}`` with one record per job and pass.  Anything else the
program prints goes to standard error.

Each verdict is checked right after its job's clock stops: a wrong verdict
or a counterexample that does not replay on the original circuits
(:func:`repro.fuzz.replay.validate_refutation`) marks the run incorrect.
A pass's wall time is the sum of its job latencies, so the checks are not
timed.  A core-speed probe (:mod:`probe`) runs as the session starts, when
it is set up and after every job; each job record carries the probes
either side of it.
"""

import argparse
import gc
import json
import math
import os
import resource
import signal
import sys
import time

import probe

#: Core speed as the session starts, before the imports of its set-up.
START_PROBE = probe.measure()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402
from repro.client import (ServerError, job_payload,  # noqa: E402
                          remote_job_result)
from repro.fuzz.replay import validate_refutation  # noqa: E402

from daemon import Daemon  # noqa: E402
from jobs import (METHODS, WARM_UP_ROW, build_stream,  # noqa: E402
                  synthesize_pairs)
from tracer import ENGINE_SPANS, SETUP_SPANS, Tracer  # noqa: E402

MIN_JOBS = 72


def work_counts(result):
    """The per-job counts that must repeat exactly across runs."""
    details = result.details or {}
    cex = result.counterexample
    return {
        "iterations": result.iterations,
        "peak_nodes": result.peak_nodes,
        "eqs_percent": details.get("eqs_percent"),
        "solver_stats": details.get("solver_stats"),
        "cex_length": None if cex is None else cex.length,
    }


def job_record(job, latency, result, **extra):
    """Check one job's verdict; returns its JSON record."""
    verdict = None if result is None else result.equivalent
    replay = None
    if verdict is False:
        replay = validate_refutation(job.spec, job.impl, result).valid
    record = {
        "key": job.key,
        "kind": job.kind,
        "latency": latency,
        "expected": job.expected,
        "verdict": verdict,
        "decided": verdict == job.expected and replay is not False,
        "wrong": verdict is not None and verdict != job.expected,
        "replay": replay,
        "counts": None if result is None else work_counts(result),
    }
    record.update(extra)
    return record


class InProcessRunner:
    """Calls ``repro.verify`` in this process, one job at a time."""

    def __init__(self, method, tracer):
        self.method = method
        self.tracer = tracer

    def warm_up(self, spec, impl):
        repro.verify(spec, impl, method=self.method)

    def begin_pass(self, modes):
        self.tracer.reset()

    def run_job(self, job, traced):
        # Each job starts from a collected heap, not from the previous
        # job's garbage (the daemon forks a fresh worker per job).
        gc.collect()
        if traced:
            self.tracer.install(ENGINE_SPANS)
        try:
            began = time.perf_counter()
            result = repro.verify(job.spec, job.impl, method=self.method)
            latency = time.perf_counter() - began
        finally:
            self.tracer.uninstall()
        return job_record(job, latency, result)

    def end_pass(self, traced, records):
        return {"traced": traced,
                "layers": self.tracer.snapshot() if traced else None,
                "jobs": records}

    def close(self):
        return True


class DaemonRunner:
    """Submits every job to a daemon and follows its SSE stream.

    A traced run boots a second daemon whose workers carry the span
    wrappers; each job then goes to both, one after the other.
    """

    def __init__(self, workdir, jobs, traced):
        self.payloads = {}
        for job in jobs:
            if job.key not in self.payloads:
                self.payloads[job.key] = job_payload(
                    job.spec, job.impl, name=job.key, method="van_eijk")
        self.daemons = {False: Daemon(os.path.join(workdir, "plain"), SRC)}
        self.trace_dir = None
        if traced:
            self.trace_dir = os.path.join(workdir, "spans")
            os.makedirs(self.trace_dir)
            try:
                self.daemons[True] = Daemon(os.path.join(workdir, "traced"),
                                            SRC, trace_dir=self.trace_dir)
            except BaseException:
                self.close()
                raise
        self._stats_before = {}

    def warm_up(self, spec, impl):
        payload = job_payload(spec, impl, name="warm-up", method="van_eijk")
        for daemon in self.daemons.values():
            _, _, record = daemon.run(payload)
            if record is None or record["state"] != "done":
                raise RuntimeError("warm-up job failed: {!r}".format(record))
        self._collect_spans()

    def _collect_spans(self):
        """Sum and remove the span files the traced workers wrote."""
        totals = {}
        if self.trace_dir is None:
            return totals
        for name in os.listdir(self.trace_dir):
            path = os.path.join(self.trace_dir, name)
            with open(path) as fh:
                spans = json.load(fh)
            os.unlink(path)
            for span, agg in spans.items():
                into = totals.setdefault(span, {"calls": 0, "total": 0.0,
                                                "self": 0.0})
                for field in into:
                    into[field] += agg[field]
        return totals

    def begin_pass(self, modes):
        """Each pass starts from an empty result cache."""
        for traced in modes:
            self.daemons[traced].clear_cache()
            self._stats_before[traced] = self.daemons[traced].stats()

    def run_job(self, job, traced):
        began = time.perf_counter()
        try:
            latency, submit, record = self.daemons[traced].run(
                self.payloads[job.key])
        except ServerError as exc:
            return job_record(job, time.perf_counter() - began, None,
                              rejected=exc.status == 429,
                              error=exc.status != 429)
        outcome = remote_job_result(record)
        computed = not record.get("cached")
        return job_record(
            job, latency, outcome.result, submit=submit,
            cached=not computed, rejected=False,
            error=record["state"] != "done",
            queue_wait=(record["started_at"] - record["submitted_at"]
                        if computed and record.get("started_at") else None),
            run=outcome.wall_seconds if computed else None)

    def end_pass(self, traced, records):
        before = self._stats_before[traced]["cache"]
        after = self.daemons[traced].stats()["cache"]
        hits = after["hits"] - before["hits"]
        return {"traced": traced,
                "layers": self._collect_spans() if traced else None,
                "cache_hits": hits,
                "cache_lookups": hits + after["misses"] - before["misses"],
                "jobs": records}

    def close(self):
        clean = True
        for daemon in self.daemons.values():
            clean = daemon.stop() and clean
        return clean


def run_passes(runner, jobs, passes, trace):
    """Run the passes; returns one record per pass.

    A run holds at least ``MIN_JOBS`` job latencies, so its percentiles
    rest on that many samples and, on table1_sat, p90 (the 62nd of 72)
    falls inside the block of the five multi-second rows instead of on a
    single 0.1-s row.

    A traced run holds half as many paired passes: each job runs untraced
    and traced back to back (alternating which goes first), so both see
    the same host speed and their ratio gives the tracing overhead.
    """
    passes = max(passes, math.ceil(MIN_JOBS / len(jobs)))
    modes = (False, True) if trace else (False,)
    count = max(1, (passes + 1) // 2) if trace else passes
    results = []
    for _ in range(count):
        runner.begin_pass(modes)
        records = {traced: [] for traced in modes}
        before = probe.measure()
        for position, job in enumerate(jobs):
            for traced in modes[::-1] if position % 2 else modes:
                record = runner.run_job(job, traced)
                after = probe.measure()
                record["probes"] = [before, after]
                records[traced].append(record)
                before = after
        results += [runner.end_pass(traced, records[traced])
                    for traced in modes]
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(METHODS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the finally below, which stops the daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # The protocol owns the real stdout; stray prints go to stderr.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(message):
        out.write(json.dumps(message) + "\n")
        out.flush()

    tracer = Tracer()
    if args.trace:
        tracer.install(SETUP_SPANS)
    pairs = synthesize_pairs()
    jobs = build_stream(args.workload, args.seed, pairs)
    tracer.uninstall()
    setup_spans = tracer.snapshot()
    if args.workload == "daemon":
        runner = DaemonRunner(args.workdir, jobs, bool(args.trace))
    else:
        runner = InProcessRunner(METHODS[args.workload], tracer)
    try:
        runner.warm_up(*pairs[WARM_UP_ROW])
        # The two probes are part of the set-up interval; run.py takes
        # their time out again.
        emit({"ready": True, "probes": [START_PROBE, probe.measure()]})
        passes = []
        if not args.setup_only:
            passes = run_passes(runner, jobs, args.passes, args.trace)
    finally:
        clean = runner.close()
    if args.setup_only:
        return 0 if clean else 1
    who = (resource.RUSAGE_CHILDREN if args.workload == "daemon"
           else resource.RUSAGE_SELF)
    emit({"result": {
        "passes": passes,
        "setup_spans": setup_spans,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "clean_shutdown": clean,
    }})
    return 0


if __name__ == "__main__":
    sys.exit(main())
