"""Table-1 verdict benchmark: time to a checked verdict, end to end.

One run::

    python3 perfbench/run.py --workload table1_sat --seed 1 --seconds 40
    python3 perfbench/run.py --workload daemon --seed 1 --seconds 40 --trace 1

Workloads (``BENCHMARK.json`` lists the first two and why each was chosen):

* ``table1_sat``: ``repro.verify(method="sat_sweep")`` on the 24 Table-1
  rows the paper's method decides, serially, in a child process;
* ``daemon``: one ``repro-sec serve`` daemon; a closed-loop client submits
  the 24 proofs, one injected-fault pair per row and ``REPEATS`` repeats
  (result-cache hits), one job outstanding, all on ``van_eijk``;
* ``table1_bdd``: the 24 proofs in-process on ``van_eijk``.  It is left
  out of ``BENCHMARK.json``: the daemon workload runs the same BDD engine
  work, and the time it would take goes to more passes of table1_sat.

A run holds a fixed number of whole passes over the job list: as many as
fit in ``--seconds`` at the reference host's pass time (``PASS_SECONDS``),
and at least enough for ``session.MIN_JOBS`` jobs.  So every run of a
workload holds the same jobs and its percentiles fall on the same ranks.
Set-up (interpreter start, imports, pair synthesis, fault injection,
daemon boot, one warm-up job) is timed ``SETUP_SAMPLES`` times per run and
reported as the median.

All processes of a run are pinned to one CPU, and every time (each job's
latency, each set-up) is converted to seconds at a reference core speed
with the core-speed probes taken either side of it (:mod:`probe`): on a
shared host one core's speed moves by up to half within seconds, which
no run length averages out.  The human-readable lines print the measured
seconds beside the converted ones.  Medians and the tail percentile are
Harrell-Davis estimates (:func:`metrics.quantile`), so they do not jump
between rows as noise reorders neighbouring latencies.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is the JSON result.  Every verdict
is checked and every refutation replayed on the original circuits; a wrong
verdict, a counterexample that does not replay, work counts that differ
between passes or a daemon process that outlives SIGTERM make the run
incorrect.

Steadiness report (runs each workload with seeds 1..N, prints the median,
quartiles and spread of every end-to-end metric, plus host facts)::

    python3 perfbench/run.py --steadiness 10 --seconds 40 [--workload daemon]
"""

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

import metrics  # noqa: E402

WORKLOADS = ("table1_bdd", "table1_sat", "daemon")
#: The workloads BENCHMARK.json lists.
BENCHMARK_WORKLOADS = ("table1_sat", "daemon")
#: Seconds of one pass on the reference host (2-core Xeon, CPython 3.11).
PASS_SECONDS = {"table1_bdd": 6.7, "table1_sat": 21.0, "daemon": 14.8}
SETUP_SAMPLES = 5
#: A run must end well inside the 180 s a run may take.
RUN_DEADLINE = 165.0


class BenchError(RuntimeError):
    pass


def passes_for(workload, seconds):
    """Whole passes that fit in ``seconds`` on the reference host (the
    session adds passes up to its minimum job count)."""
    return max(1, int(seconds // PASS_SECONDS[workload]))


def _read_lines(stream, lines):
    for line in stream:
        lines.put((time.perf_counter(), line))
    lines.put((time.perf_counter(), None))


def run_session(workload, seed, passes, trace, workdir, deadline,
                setup_only=False):
    """Run one session; returns ``((setup seconds, probes), result or
    None)``: the set-up time without the session's two core-speed probes,
    and those probes' seconds."""
    command = [sys.executable, SESSION, "--workload", workload,
               "--seed", str(seed), "--passes", str(passes),
               "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        command.append("--setup-only")
    os.makedirs(workdir)
    env = dict(os.environ, TMPDIR=workdir)
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, env=env,
                            stdout=subprocess.PIPE, text=True)
    lines = queue.Queue()
    reader = threading.Thread(target=_read_lines, args=(proc.stdout, lines),
                              daemon=True)
    reader.start()
    setup = result = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("{} session overran the run deadline".format(
                    workload))
            try:
                stamp, line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            message = json.loads(line)
            if message.get("ready"):
                probes = message["probes"]
                setup = (stamp - start - sum(probes), probes)
            elif "result" in message:
                result = message["result"]
        if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise BenchError("{} session exited with {}".format(
                workload, proc.returncode))
    finally:
        if proc.poll() is None:
            # SIGTERM lets the session stop its daemons before it exits.
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
    if setup is None or (result is None and not setup_only):
        raise BenchError("{} session ended without a result".format(workload))
    return setup, result


def run_benchmark(workload, seed, seconds, trace):
    """One run; returns ``(report dict, printable lines, result)``."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError("no repro sources under {}".format(ROOT))
    deadline = time.monotonic() + RUN_DEADLINE
    passes = passes_for(workload, seconds)
    # Every process of the run (sessions, daemons and their workers)
    # inherits this one CPU, so the sessions' probes time the engines' core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK_ROOT)
    try:
        setups = []
        if not trace:
            for index in range(SETUP_SAMPLES - 1):
                setup, _ = run_session(
                    workload, seed, passes, trace,
                    os.path.join(workdir, "setup{}".format(index)),
                    deadline, setup_only=True)
                setups.append(setup)
        setup, result = run_session(workload, seed, passes, trace,
                                    os.path.join(workdir, "run"), deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    problems = metrics.check_runs(result)
    jobs = [job for p in result["passes"] for job in p["jobs"]]
    failed = sum(bool(job.get("error") or job.get("rejected"))
                 for job in jobs)
    lines = ["workload {} seed {}: {} passes, {} jobs".format(
        workload, seed, len(result["passes"]), len(jobs))]
    lines += ["INCORRECT: " + problem for problem in problems]
    if trace:
        values = metrics.per_layer(result)
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        notes = {}
    else:
        values, notes = metrics.end_to_end(result, setups)
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    for name, value in values.items():
        lines.append("  {:<26} {:>14.6g} {:<6} {}".format(
            name, value, units[name], notes.get(name, "")))
    report = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return report, lines, result


def host_facts():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version}


def steadiness(workloads, runs, seconds):
    """Run each workload ``runs`` times (seeds 1..runs) and print spreads."""
    print("host: " + json.dumps(host_facts()), flush=True)
    ok = True
    for workload in workloads:
        values = {name: [] for name in metrics.END_TO_END}
        counts = None
        for seed in range(1, runs + 1):
            began = time.monotonic()
            report, lines, result = run_benchmark(workload, seed, seconds, 0)
            elapsed = time.monotonic() - began
            ok = ok and report["correct"]
            for line in lines:
                if line.startswith("INCORRECT"):
                    print(line)
            for name, entry in report["metrics"].items():
                values[name].append(entry["value"])
            pinned = metrics.exact_counts(result)
            if counts is None:
                counts = pinned
            elif pinned != counts:
                ok = False
                print("{}: exact counts differ between seeds 1 and {}".format(
                    workload, seed))
            print("{} seed {} ({:.0f} s): {}".format(
                workload, seed, elapsed, json.dumps(
                    {k: round(v["value"], 5)
                     for k, v in report["metrics"].items()})), flush=True)
        print("{} over {} runs (median, q1, q3, (q3-q1)/median, "
              "(max-min)/median):".format(workload, runs))
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            scale = median or 1.0
            print("  {:<14} {:>11.5g} {:>11.5g} {:>11.5g} {:>8.2%} "
                  "{:>8.2%}".format(name, median, q1, q3, (q3 - q1) / scale,
                                    (max(series) - min(series)) / scale),
                  flush=True)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="steadiness report over RUNS seeds per workload")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args.workload or BENCHMARK_WORKLOADS,
                          args.steadiness,
                          args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    try:
        report, lines, _ = run_benchmark(args.workload[0], args.seed,
                                         args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark failed: {}".format(exc), file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
