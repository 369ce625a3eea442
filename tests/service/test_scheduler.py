"""Batch scheduler: parallel verdict parity, caching, retries, budgets."""

import os
import time

from repro.circuits import table1_suite
from repro.reach import SecResult
from repro.service import (
    BatchScheduler,
    EventBus,
    JobSpec,
    ResultCache,
    register_method,
    unregister_method,
)
from repro.service import events as ev

from .helpers import assert_no_child_processes, magic_pair, tiny_pair


def _suite_jobs(count=6):
    jobs = []
    for row in table1_suite(scales=("small",))[:count]:
        spec, impl = row.pair()
        jobs.append(JobSpec(row.name, spec, impl,
                            options={"time_limit": 120}))
    return jobs


def test_parallel_verdicts_match_sequential():
    jobs = _suite_jobs(6)
    sequential = BatchScheduler(workers=0).run(jobs)
    parallel = BatchScheduler(workers=4).run(jobs)
    assert_no_child_processes()
    assert [r.name for r in parallel] == [r.name for r in sequential]
    assert [r.verdict for r in sequential] == [True] * 6
    assert [r.verdict for r in parallel] == [r.verdict for r in sequential]


def test_cache_skips_solved_jobs(tmp_path):
    jobs = _suite_jobs(3)
    cache = ResultCache(tmp_path)
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    first = BatchScheduler(workers=0, cache=cache, bus=bus).run(jobs)
    assert all(not r.cached for r in first)
    t0 = time.monotonic()
    second = BatchScheduler(workers=0, cache=cache, bus=bus).run(jobs)
    rerun_seconds = time.monotonic() - t0
    assert all(r.cached for r in second)
    assert [r.verdict for r in second] == [r.verdict for r in first]
    # A cached rerun does no verification work at all: only cache lookups.
    assert rerun_seconds < sum(r.result.seconds for r in first) + 1.0
    cached_events = [e for e in seen if e.type == ev.JOB_CACHED]
    assert len(cached_events) == len(jobs)


def test_cache_key_isolation_between_methods(tmp_path):
    spec, impl = tiny_pair()
    cache = ResultCache(tmp_path)
    scheduler = BatchScheduler(workers=0, cache=cache)
    van_eijk = scheduler.run([JobSpec("j", spec, impl)])[0]
    bmc = scheduler.run(
        [JobSpec("j", spec, impl, method="bmc",
                 options={"max_depth": 2})])[0]
    assert van_eijk.verdict is True
    assert bmc.verdict is None  # not served the van_eijk cache entry
    assert not bmc.cached


def test_retry_on_crash_then_success(tmp_path):
    marker = str(tmp_path / "crashed-once")

    def crashy(job, progress, cancel_check):
        if not os.path.exists(job.options["marker"]):
            with open(job.options["marker"], "w"):
                pass
            os._exit(3)
        return SecResult(True, method="crashy", seconds=0.0)

    register_method("crashy", crashy)
    try:
        spec, impl = tiny_pair()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        job = JobSpec("flaky", spec, impl, method="crashy",
                      options={"marker": marker})
        results = BatchScheduler(workers=1, bus=bus, retries=1).run([job])
    finally:
        unregister_method("crashy")
    assert_no_child_processes()
    assert results[0].verdict is True
    assert results[0].attempts == 2
    retry_events = [e for e in seen if e.type == ev.JOB_RETRY]
    assert len(retry_events) == 1
    assert "exit code 3" in retry_events[0].data["reason"]


def test_crash_without_retries_reports_error():
    def always_crash(job, progress, cancel_check):
        os._exit(4)

    register_method("always_crash", always_crash)
    try:
        spec, impl = tiny_pair()
        job = JobSpec("doomed", spec, impl, method="always_crash")
        results = BatchScheduler(workers=1, retries=0).run([job])
    finally:
        unregister_method("always_crash")
    assert_no_child_processes()
    assert results[0].verdict is None
    assert "exit code 4" in results[0].error
    assert results[0].result.details["aborted"] == results[0].error


def test_inconclusive_fallback_to_bmc():
    spec, impl = magic_pair()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    # van_eijk cannot decide this pair; the scheduler resubmits it to the
    # falsifier, which finds the counterexample.
    job = JobSpec("magic", spec, impl,
                  options={"time_limit": 60, "max_retiming_rounds": 1})
    results = BatchScheduler(workers=0, bus=bus, fallback_method="bmc",
                             fallback_options={"max_depth": 8}).run([job])
    result = results[0]
    assert result.verdict is False
    assert result.result.method == "bmc"
    assert result.result.counterexample is not None
    assert any(e.type == ev.JOB_FALLBACK for e in seen)


def test_fallback_emits_engine_fallback_event():
    spec, impl = magic_pair()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    job = JobSpec("magic", spec, impl,
                  options={"time_limit": 60, "max_retiming_rounds": 1})
    BatchScheduler(workers=0, bus=bus, fallback_method="bmc",
                   fallback_options={"max_depth": 8}).run([job])
    events = [e for e in seen if e.type == ev.ENGINE_FALLBACK]
    assert len(events) == 1
    payload = events[0].data
    assert payload["engine"] == "van_eijk"
    assert payload["fallback"] == "bmc"
    assert payload["reason"]


def test_no_fallback_fails_fast():
    spec, impl = magic_pair()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    job = JobSpec("magic", spec, impl,
                  options={"time_limit": 60, "max_retiming_rounds": 1})
    results = BatchScheduler(workers=0, bus=bus, fallback_method="bmc",
                             no_fallback=True).run([job])
    assert results[0].verdict is None
    assert results[0].result.method == "van_eijk"
    assert not any(e.type == ev.JOB_FALLBACK for e in seen)
    assert not any(e.type == ev.ENGINE_FALLBACK for e in seen)


def test_inconclusive_sweep_falls_back_to_k_induction():
    from repro.circuits import onehot_ring_pair

    spec, impl = onehot_ring_pair()
    job = JobSpec("onehot", spec, impl, method="sat_sweep",
                  match_outputs="order")
    results = BatchScheduler(workers=0, fallback_method="k_induction",
                             fallback_options={"max_depth": 8}).run([job])
    result = results[0]
    assert result.verdict is True
    assert result.result.method == "k_induction"


def test_batch_time_budget_aborts_cleanly():
    def sleepy(job, progress, cancel_check):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if cancel_check is not None and cancel_check():
                return SecResult(None, method="sleepy",
                                 details={"aborted": "cancelled"})
            time.sleep(0.02)
        return SecResult(True, method="sleepy")

    register_method("sleepy", sleepy)
    try:
        spec, impl = tiny_pair()
        jobs = [JobSpec("sleep{}".format(i), spec, impl, method="sleepy")
                for i in range(3)]
        t0 = time.monotonic()
        results = BatchScheduler(workers=2, total_time_limit=1.0,
                                 grace=2.0).run(jobs)
        elapsed = time.monotonic() - t0
    finally:
        unregister_method("sleepy")
    assert_no_child_processes()
    assert elapsed < 15
    assert all(r.verdict is None for r in results)
    assert all("budget" in r.result.details.get("aborted", "")
               or "cancel" in r.result.details.get("aborted", "")
               for r in results)


def test_event_stream_ordering():
    spec, impl = tiny_pair()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    BatchScheduler(workers=0, bus=bus).run(
        [JobSpec("tiny", spec, impl)])
    types = [e.type for e in seen]
    assert types[0] == ev.BATCH_STARTED
    assert types[-1] == ev.BATCH_FINISHED
    assert types.index(ev.JOB_QUEUED) < types.index(ev.JOB_STARTED)
    assert types.index(ev.JOB_STARTED) < types.index(ev.JOB_FINISHED)
    assert ev.JOB_PROGRESS in types  # engine iterations are streamed
    finished = next(e for e in seen if e.type == ev.JOB_FINISHED)
    assert finished.data["verdict"] is True
    assert finished.data["peak_nodes"] >= 1


def test_results_preserve_submission_order():
    jobs = _suite_jobs(4)
    results = BatchScheduler(workers=3).run(jobs)
    assert [r.name for r in results] == [j.name for j in jobs]
    assert_no_child_processes()
