"""Tests for the non-blocking WorkerPool surface the daemon drives."""

import os
import signal
import time

import pytest

from repro.reach import SecResult
from repro.service import (
    JobSpec,
    WorkerPool,
    register_method,
    unregister_method,
)
from repro.service.events import EventBus, JOB_PROGRESS, JOB_STARTED
from repro.service.procs import fork_worker

from .helpers import tiny_pair


def make_job(name="tiny", method="sat_sweep", **options):
    spec, impl = tiny_pair()
    return JobSpec(name, spec, impl, method=method, options=options,
                   match_outputs="order")


def spinner_job(name="spin"):
    return make_job(name, method="bmc", max_depth=1000000)


def poll_until(pool, predicate, timeout=60.0):
    """Poll the pool, collecting outcomes, until ``predicate(outcomes)``."""
    outcomes = []
    deadline = time.monotonic() + timeout
    while not predicate(outcomes):
        assert time.monotonic() < deadline, "pool never converged"
        outcomes.extend(pool.poll())
        time.sleep(0.02)
    return outcomes


def test_submit_poll_outcome():
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    pool = WorkerPool(workers=1, bus=bus)
    try:
        pid = pool.submit("t1", make_job())
        assert isinstance(pid, int)
        assert not pool.has_capacity()
        assert pool.active == 1

        outcomes = poll_until(pool, lambda o: len(o) == 1)
        outcome = outcomes[0]
        assert outcome.token == "t1"
        assert outcome.error is None
        assert not outcome.cancelled
        assert outcome.result.verdict is True
        assert pool.has_capacity() and pool.active == 0

        types = [e.type for e in events]
        assert JOB_STARTED in types
        assert JOB_PROGRESS in types  # worker progress relayed via poll()
    finally:
        pool.shutdown()


def test_capacity_and_duplicate_token_errors():
    pool = WorkerPool(workers=1)
    try:
        pool.submit("t1", spinner_job())
        with pytest.raises(RuntimeError):
            pool.submit("t2", spinner_job())  # pool full
        pool.workers = 2
        with pytest.raises(RuntimeError):
            pool.submit("t1", spinner_job())  # duplicate token
    finally:
        pool.shutdown()


def test_cancel_running_job():
    pool = WorkerPool(workers=1, grace=5.0)
    try:
        pool.submit("spin", spinner_job())
        # let the worker actually get going
        poll_until(pool, lambda o: pool.active == 1, timeout=10)
        assert pool.cancel("spin") is True
        assert pool.cancel("nonexistent") is False
        outcomes = poll_until(pool, lambda o: len(o) == 1)
        outcome = outcomes[0]
        assert outcome.cancelled is True
        assert outcome.result.result.inconclusive
    finally:
        pool.shutdown()


def test_job_time_limit_hard_kill():
    pool = WorkerPool(workers=1, job_time_limit=0.5, grace=0.5)
    try:
        # the pool seeds the engine's cooperative budget and backs it with
        # a hard kill at job_time_limit + grace
        job = spinner_job()
        assert "time_limit" not in job.options
        pool.submit("slow", job)
        outcomes = poll_until(pool, lambda o: len(o) == 1, timeout=30)
        outcome = outcomes[0]
        assert outcome.token == "slow"
        assert outcome.result.result.inconclusive
    finally:
        pool.shutdown()


def test_budget_seeding():
    pool = WorkerPool(workers=1, job_time_limit=7.5)
    try:
        assert pool._budgeted(make_job()).options["time_limit"] == 7.5
        explicit = make_job(time_limit=1.0)
        assert pool._budgeted(explicit).options["time_limit"] == 1.0
        untimed = make_job(method="explicit")
        assert "time_limit" not in pool._budgeted(untimed).options
    finally:
        pool.shutdown()


def test_shutdown_returns_outcomes_for_running_jobs():
    pool = WorkerPool(workers=2, grace=3.0)
    pool.submit("a", spinner_job("a"))
    pool.submit("b", spinner_job("b"))
    outcomes = pool.shutdown()
    assert sorted(o.token for o in outcomes) == ["a", "b"]
    assert all(o.cancelled for o in outcomes)
    assert pool.active == 0


def _flood(job, progress, cancel_check):
    """Emit more progress than a pipe holds, then idle until cancelled."""
    marker = job.options["marker"]
    with open(marker, "w") as fh:
        fh.write(str(os.getpid()))
    for i in range(job.options["events"]):
        progress("flood", i=i, pad="x" * 60)
    while job.options["linger"] and not cancel_check():
        time.sleep(0.02)
    return SecResult(True, "flood")


def _flood_job(tmp_path, events, linger):
    spec, impl = tiny_pair()
    return JobSpec("flood", spec, impl, method="flood",
                   options={"marker": str(tmp_path / "worker.pid"),
                            "events": events, "linger": linger})


def _flood_host(job):
    """A pool host that never polls, so the worker's events pile up."""
    pool = WorkerPool(workers=1)
    pool.submit("flood", job)
    time.sleep(120)


def _gone(pid):
    """True once ``pid`` has exited (an unreaped zombie counts as gone)."""
    try:
        with open("/proc/{}/stat".format(pid)) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def test_worker_of_a_killed_host_exits_with_undrained_events(tmp_path):
    register_method("flood", _flood)
    host = fork_worker(_flood_host,
                       _flood_job(tmp_path, events=5000, linger=True))
    try:
        marker = tmp_path / "worker.pid"
        deadline = time.monotonic() + 30
        while not marker.exists() or not marker.read_text():
            assert time.monotonic() < deadline, "worker never started"
            time.sleep(0.02)
        worker_pid = int(marker.read_text())
        time.sleep(0.5)  # let the worker fill its pipe
        host.kill()
        host.join(10)
        assert not host.is_alive()
        deadline = time.monotonic() + 10
        while not _gone(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        survived = not _gone(worker_pid)
        if survived:
            os.kill(worker_pid, signal.SIGKILL)
        assert not survived, "worker outlived its SIGKILLed host by 10 s"
    finally:
        host.kill()
        host.join(10)
        unregister_method("flood")


def test_every_progress_event_precedes_the_outcome(tmp_path):
    register_method("flood", _flood)
    seen = []
    bus = EventBus()
    bus.subscribe(seen.append)
    pool = WorkerPool(workers=1, bus=bus)
    try:
        pool.submit("flood", _flood_job(tmp_path, events=2000, linger=False))
        deadline = time.monotonic() + 60
        outcomes = []
        while not outcomes:
            assert time.monotonic() < deadline, "pool never converged"
            outcomes = pool.poll()
            time.sleep(0.02)
        progress = [e for e in seen if e.type == JOB_PROGRESS]
        assert outcomes[0].result.verdict is True
        assert [e.data["i"] for e in progress] == list(range(2000))
    finally:
        pool.shutdown()
        unregister_method("flood")
