"""The benchmark's own checks.

Run with ``python3 -m pytest perfbench/test_counts.py``.

* Work counts that must repeat exactly (``solver_stats``, ``iterations``,
  ``peak_nodes``, ``eqs_percent``, counterexample length) agree between two
  processes with different hash seeds, so nondeterminism cannot pass as
  host noise.
* ``BENCHMARK.json`` lists exactly the metrics :mod:`metrics` computes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

#: Rows covering both engines' fixed point, retiming-free proofs, the
#: s838 counter family and refutations with counterexamples.
PIN_ROWS = ("s298", "s420", "s838", "s1423", "s3330")


def pinned_counts():
    """``{method/key: counts}`` for the pin rows, proofs and faults."""
    import repro
    from jobs import build_stream, synthesize_pairs
    from session import work_counts

    pairs = {name: pair for name, pair in synthesize_pairs().items()
             if name in PIN_ROWS}
    counts = {}
    for job in build_stream("daemon", 0, pairs):
        if job.kind == "repeat":
            continue
        methods = ("van_eijk", "sat_sweep") if job.kind == "proof" \
            else ("van_eijk",)
        for method in methods:
            result = repro.verify(job.spec, job.impl, method=method)
            counts["{}/{}".format(method, job.key)] = work_counts(result)
    return counts


def _counts_in_subprocess(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=600)
    return json.loads(out.stdout.splitlines()[-1])


def test_exact_counts_repeat_across_processes():
    first = _counts_in_subprocess(1)
    second = _counts_in_subprocess(2)
    assert len(first) == 3 * len(PIN_ROWS)
    assert first == second
    assert first["sat_sweep/proof:s838"]["solver_stats"]["conflicts"] > 0


def test_benchmark_json_lists_the_computed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(
        run.BENCHMARK_WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == metrics.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [entry[:3] for entry in metrics.PER_LAYER]


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = metrics.tail_percentile(range(1, 201))
    assert (pct, n) == (90.0, 200)
    assert 180 < value < 182
    value, pct, n = metrics.tail_percentile(range(24))
    assert (pct, n) == (100.0 * 14 / 24, 24)
    assert 13 < value < 15


def test_quantile_is_a_smooth_estimate():
    assert abs(metrics.quantile([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-9
    assert abs(metrics.quantile([5.0] * 50, 0.9) - 5.0) < 1e-9
    # Two rows of 36 samples each, one 30 times the other: moving one
    # sample across the gap shifts the median by a fraction of the gap,
    # where the nearest-rank median would jump the whole gap.
    rows = [0.1] * 36 + [3.0] * 36
    moved = [0.1] * 35 + [3.0] * 37
    assert metrics.quantile(moved, 0.5) - metrics.quantile(rows, 0.5) < 0.6


def test_probe_factor_converts_to_reference_speed():
    assert probe.factor(probe.REFERENCE, probe.REFERENCE) == 1.0
    assert abs(probe.factor(2 * probe.REFERENCE, 2 * probe.REFERENCE)
               - 0.5) < 1e-12
    assert probe.measure() > 0


if __name__ == "__main__":
    print(json.dumps(pinned_counts(), sort_keys=True))
