"""Metric definitions and their computation from session output.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric lists
in ``BENCHMARK.json`` (``test_counts.py`` checks that the two agree).  Each
per-layer entry also records which end-to-end metric on which workload it
should move, and where it should stay put, so a later change can be
judged against a prediction written down before it was measured.
"""

import math
import statistics

import probe

#: name -> (unit, better).  Every workload reports all six.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "verdict_p50_s": ("s", "lower"),
    "verdict_p90_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "decided_frac": ("frac", "higher"),
}

#: (name, unit, better, should move, should not move).  Times and counts
#: are per pass (summed over the pass's computed jobs, averaged over the
#: traced passes); server latencies are medians per job.
PER_LAYER = (
    ("sat.solve_s", "s", "lower",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("sat.solve_calls", "count", "lower",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("sat.conflicts", "count", "lower",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("sat.decisions", "count", "lower",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("sat.propagations", "count", "lower",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("sat.props_per_s", "1/s", "higher",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("sat.encode_s", "s", "lower",
     "table1_sat wall_s and verdict_p90_s", "daemon"),
    ("bdd.vector_compose_s", "s", "lower",
     "daemon wall_s and verdict_p90_s", "table1_sat"),
    ("bdd.vector_compose_calls", "count", "lower",
     "daemon wall_s and verdict_p90_s", "table1_sat"),
    ("bdd.build_s", "s", "lower",
     "daemon wall_s and verdict_p90_s", "table1_sat"),
    ("bdd.peak_nodes", "count", "lower",
     "daemon peak_rss_mb", "table1_sat"),
    ("core.fixpoint_s", "s", "lower",
     "wall_s of the workload whose engine runs it (self time)", "-"),
    ("core.timeframe_s", "s", "lower",
     "daemon wall_s", "table1_sat"),
    ("core.retime_aug_s", "s", "lower",
     "daemon wall_s", "table1_sat"),
    ("core.replay_s", "s", "lower", "table1_sat wall_s", "daemon"),
    ("core.split_s", "s", "lower",
     "wall_s of the workload whose engine runs it", "-"),
    ("core.rounds", "count", "lower",
     "wall_s of the workload whose engine runs it", "-"),
    ("core.cex_patterns", "count", "lower", "table1_sat wall_s",
     "daemon"),
    ("netlist.product_s", "s", "lower",
     "verdict_p50_s on both workloads", "-"),
    ("netlist.sim_s", "s", "lower",
     "verdict_p50_s on both workloads", "-"),
    ("transform.synthesize_s", "s", "lower",
     "setup_s on both workloads", "every other metric"),
    ("server.submit_s", "s", "lower", "daemon verdict_p50_s",
     "table1_sat"),
    ("server.queue_wait_s", "s", "lower", "daemon verdict_p50_s",
     "table1_sat"),
    ("server.run_s", "s", "lower", "daemon wall_s",
     "table1_sat"),
    ("server.overhead_s", "s", "lower", "daemon verdict_p50_s",
     "table1_sat"),
    ("server.cache_hit_s", "s", "lower", "daemon verdict_p50_s",
     "table1_sat"),
    ("cache.hit_rate", "frac", "higher", "daemon verdict_p50_s",
     "table1_sat"),
    ("server.rejected", "count", "lower", "daemon decided_frac",
     "table1_sat"),
    ("server.errors", "count", "lower", "daemon decided_frac",
     "table1_sat"),
    ("trace.overhead_frac", "frac", "lower",
     "nothing: traced wall_s over untraced wall_s, minus 1", "-"),
)

#: Span aggregate behind each per-layer time: (span, "total" or "self").
SPAN_TIMES = {
    "sat.solve_s": ("sat.solve", "total"),
    "sat.encode_s": ("sat.encode", "total"),
    "bdd.vector_compose_s": ("bdd.vector_compose", "total"),
    "bdd.build_s": ("bdd.build", "total"),
    "core.fixpoint_s": ("core.fixpoint", "self"),
    "core.timeframe_s": ("core.timeframe", "total"),
    "core.retime_aug_s": ("core.retime_aug", "total"),
    "core.replay_s": ("core.replay", "total"),
    "core.split_s": ("core.split", "total"),
    "netlist.product_s": ("netlist.product", "total"),
    "netlist.sim_s": ("netlist.sim", "total"),
}

SPAN_CALLS = {
    "sat.solve_calls": "sat.solve",
    "bdd.vector_compose_calls": "bdd.vector_compose",
}


def quantile(samples, q, steps=32):
    """Harrell-Davis estimate of the ``q`` quantile of ``samples``.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution (integrated per rank by the
    midpoint rule).  A job list mixes rows whose latencies differ by
    tens of times, and a single order statistic jumps from row to row as
    noise reorders neighbours; this estimate moves smoothly instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)

    def log_density(x):
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    peak = log_density(min(max((a - 1) / (a + b - 2), 1e-9), 1 - 1e-9))
    weights = [sum(math.exp(log_density((i + (k + 0.5) / steps) / n) - peak)
                   for k in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(samples, q=0.9, beyond=10):
    """``(value, percentile, n)``: the ``q`` quantile or, when fewer than
    ``beyond`` samples lie past its nearest rank, the quantile at the
    highest rank that still has ``beyond`` samples beyond it."""
    n = len(samples)
    rank = min(math.ceil(q * n), n - beyond)
    return quantile(samples, rank / n), 100.0 * rank / n, n


def pass_wall(one_pass, key="latency"):
    """Wall seconds of a closed-loop pass: the sum of its job latencies."""
    return sum(job[key] for job in one_pass["jobs"])


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(result, setups):
    """The six end-to-end metrics of one untraced run.

    ``setups`` holds ``(seconds, probes)`` per set-up.  Every time is
    converted to seconds at the reference core speed with the probes
    either side of it (:mod:`probe`); the notes give the measured seconds.
    """
    passes = [p for p in result["passes"] if not p["traced"]]
    jobs = [job for p in passes for job in p["jobs"]]
    for job in jobs:
        job["ref_latency"] = job["latency"] * probe.factor(*job["probes"])
    latencies = [job["ref_latency"] for job in jobs]
    p90, pct, n = tail_percentile(latencies)
    values = {
        "wall_s": _median([pass_wall(p, "ref_latency") for p in passes]),
        "verdict_p50_s": quantile(latencies, 0.5),
        "verdict_p90_s": p90,
        "setup_s": _median([seconds * probe.factor(*probes)
                            for seconds, probes in setups]),
        "peak_rss_mb": result["peak_rss_mb"],
        "decided_frac": sum(job["decided"] for job in jobs) / len(jobs),
    }
    measured = [job["latency"] for job in jobs]
    notes = {
        "wall_s": "median of {} passes; measured {:.4g} s".format(
            len(passes), _median([pass_wall(p) for p in passes])),
        "verdict_p50_s": "of {} jobs; measured {:.4g} s".format(
            n, quantile(measured, 0.5)),
        "verdict_p90_s": "p{:.0f} of {} jobs; measured {:.4g} s".format(
            pct, n, tail_percentile(measured)[0]),
        "setup_s": "median of {} set-ups; measured {:.4g} s".format(
            len(setups), _median([seconds for seconds, _ in setups])),
    }
    return values, notes


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(result):
    """Every per-layer metric of one traced run."""
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    values = {}
    for metric, (span, field) in SPAN_TIMES.items():
        values[metric] = _mean([p["layers"].get(span, {}).get(field, 0.0)
                                for p in traced])
    for metric, span in SPAN_CALLS.items():
        values[metric] = _mean([p["layers"].get(span, {}).get("calls", 0)
                                for p in traced])

    def computed(p):
        return [job for job in p["jobs"]
                if job["counts"] is not None and not job.get("cached")]

    def solver_total(p, key):
        return sum((job["counts"]["solver_stats"] or {}).get(key, 0)
                   for job in computed(p))

    for key in ("conflicts", "decisions", "propagations", "cex_patterns"):
        metric = ("core." if key == "cex_patterns" else "sat.") + key
        values[metric] = _mean([solver_total(p, key) for p in traced])
    values["sat.props_per_s"] = (
        values["sat.propagations"] / values["sat.solve_s"]
        if values["sat.solve_s"] else 0.0)
    values["bdd.peak_nodes"] = max(
        (job["counts"]["peak_nodes"] or 0 for p in traced
         for job in computed(p)), default=0)
    values["core.rounds"] = _mean([
        sum(job["counts"]["iterations"] or 0 for job in computed(p))
        for p in traced])
    values["transform.synthesize_s"] = result["setup_spans"].get(
        "transform.synthesize", {}).get("total", 0.0)

    plain_jobs = [job for p in plain for job in p["jobs"]]
    fresh = [job for job in plain_jobs
             if job.get("run") is not None]
    values["server.submit_s"] = _median(
        [job.get("submit") for job in plain_jobs])
    values["server.queue_wait_s"] = _median(
        [job.get("queue_wait") for job in fresh])
    values["server.run_s"] = _mean(
        [sum(job.get("run") or 0.0 for job in p["jobs"]) for p in plain])
    values["server.overhead_s"] = _median(
        [job["latency"] - job["run"] for job in fresh])
    values["server.cache_hit_s"] = _median(
        [job["latency"] for job in plain_jobs if job.get("cached")])
    lookups = sum(p.get("cache_lookups", 0) for p in plain)
    values["cache.hit_rate"] = (
        sum(p.get("cache_hits", 0) for p in plain) / lookups
        if lookups else 0.0)
    values["server.rejected"] = sum(
        bool(job.get("rejected")) for job in plain_jobs)
    values["server.errors"] = sum(
        bool(job.get("error")) for job in plain_jobs)
    values["trace.overhead_frac"] = (
        sum(map(pass_wall, traced)) / sum(map(pass_wall, plain)) - 1.0)
    return values


def check_runs(result):
    """Problems that make a run incorrect (empty list when correct)."""
    problems = []
    seen = {}
    for p in result["passes"]:
        for job in p["jobs"]:
            if job["wrong"]:
                problems.append("{}: wrong verdict {}".format(
                    job["key"], job["verdict"]))
            if job["replay"] is False:
                problems.append("{}: counterexample does not replay".format(
                    job["key"]))
            if job["counts"] is None:
                continue
            first = seen.setdefault(job["key"], job["counts"])
            if first != job["counts"]:
                problems.append("{}: work counts differ between passes: "
                                "{} vs {}".format(job["key"], first,
                                                  job["counts"]))
    if not result["clean_shutdown"]:
        problems.append("a daemon process outlived SIGTERM")
    return problems


def exact_counts(result):
    """``{job key: counts}`` of one run, for comparison across runs."""
    return {job["key"]: job["counts"] for p in result["passes"]
            for job in p["jobs"] if job["counts"] is not None}
