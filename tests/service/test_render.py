"""Snapshot test for the live event renderer.

A scripted event sequence — batch lifecycle, retries, fallback, portfolio
and the daemon's server-side events — is replayed through
:class:`LiveRenderer` and the rendered transcript compared line by line.
"""

import io

from repro.service import events as ev
from repro.service.render import LiveRenderer


def render(sequence, verbose=False):
    stream = io.StringIO()
    renderer = LiveRenderer(stream=stream, verbose=verbose)
    bus = ev.EventBus()
    bus.subscribe(renderer)
    for type_, job, data in sequence:
        bus.emit(type_, job=job, **data)
    return stream.getvalue().splitlines()


def test_batch_transcript():
    lines = render([
        (ev.BATCH_STARTED, None, {"jobs": 3, "workers": 2}),
        (ev.JOB_QUEUED, "s27", {"index": 0, "method": "van_eijk"}),
        (ev.JOB_CACHED, "s27", {"verdict": True, "method": "van_eijk"}),
        (ev.JOB_STARTED, "s386", {"method": "van_eijk"}),
        (ev.JOB_RETRY, "s386", {"attempt": 2, "reason": "worker crashed"}),
        (ev.JOB_STARTED, "s386", {"method": "van_eijk", "attempt": 2}),
        (ev.JOB_FINISHED, "s386", {"verdict": True, "method": "van_eijk",
                                   "seconds": 1.5, "peak_nodes": 420}),
        (ev.JOB_STARTED, "s510", {"method": "van_eijk"}),
        (ev.JOB_FALLBACK, "s510", {"method": "bmc"}),
        (ev.JOB_FINISHED, "s510", {"verdict": False, "method": "bmc",
                                   "seconds": 0.25}),
        (ev.BATCH_FINISHED, None, {"jobs": 3, "seconds": 2.0, "proved": 2,
                                   "refuted": 1, "undecided": 0,
                                   "cached": 1}),
    ])
    assert lines == [
        "batch: 3 jobs on 2 workers",
        "[  1/3] s27          van_eijk   proved (cached)",
        "[  1/3] s386         van_eijk   started",
        "[  1/3] s386         retry (attempt 2): worker crashed",
        "[  1/3] s386         van_eijk   started (attempt 2)",
        "[  2/3] s386         van_eijk   proved in 1.50s nodes=420",
        "[  2/3] s510         van_eijk   started",
        "[  2/3] s510         falling back to bmc",
        "[  3/3] s510         bmc        REFUTED in 0.25s",
        "batch: done in 2.00s — 2 proved, 1 refuted, 0 undecided (1 cached)",
    ]


def test_server_transcript():
    lines = render([
        (ev.SERVER_STARTED, None, {"host": "127.0.0.1", "port": 8439,
                                   "workers": 2, "pid": 4242}),
        (ev.SERVER_STARTED, None, {"host": "127.0.0.1", "port": 8440,
                                   "role": "coordinator", "pid": 4343,
                                   "nodes": {"alive": 1, "total": 2}}),
        (ev.JOB_SUBMITTED, "j00000001-abc123",
         {"name": "s386", "method": "sat_sweep", "client": "127.0.0.1"}),
        (ev.JOB_REQUEUED, "j00000001-abc123",
         {"name": "s386", "requeues": 1, "reason": "daemon restart"}),
        (ev.JOB_CANCELLED, "j00000001-abc123", {"name": "s386",
                                                "method": "sat_sweep"}),
        (ev.CLIENT_THROTTLED, None, {"client": "10.0.0.9",
                                     "path": "/v1/jobs",
                                     "reason": "queue full"}),
        (ev.CLIENT_THROTTLED, None, {"client": "10.0.0.9",
                                     "path": "/v1/stats",
                                     "retry_after": 1}),
        (ev.SERVER_STOPPED, None, {"host": "127.0.0.1", "port": 8439,
                                   "uptime_seconds": 12.0}),
    ])
    assert lines == [
        "server: listening on 127.0.0.1:8439 (2 workers, pid 4242)",
        "server: listening on 127.0.0.1:8440 (1/2 nodes alive, pid 4343)",
        "s386         submitted as j00000001-abc123 (sat_sweep)",
        "s386         re-queued (attempt 1): daemon restart",
        "s386         cancelled",
        "server: throttled 10.0.0.9 on /v1/jobs (queue full)",
        "server: throttled 10.0.0.9 on /v1/stats",
        "server: stopped after 12.00s",
    ]


def test_portfolio_transcript():
    lines = render([
        (ev.PORTFOLIO_STARTED, "s27", {"methods": ["van_eijk", "bmc"]}),
        (ev.ENGINE_WON, "s27", {"method": "van_eijk", "verdict": True,
                                "seconds": 0.5}),
        (ev.ENGINE_CANCELLED, "s27", {"method": "bmc", "escalated": True}),
    ])
    assert lines == [
        "portfolio: racing van_eijk/bmc on s27",
        "portfolio: van_eijk won with proved in 0.50s",
        "portfolio: cancelled bmc (killed)",
    ]


def test_quiet_mode_skips_progress_ticks():
    sequence = [
        (ev.JOB_PROGRESS, "s27", {"kind": "refinement_round", "round": 3,
                                  "classes": 17}),
    ]
    assert render(sequence, verbose=False) == []
    verbose_lines = render(sequence, verbose=True)
    assert verbose_lines == ["s27          · refinement_round classes=17 round=3"]


def test_error_annotation_on_finish():
    lines = render([
        (ev.JOB_FINISHED, "bad", {"verdict": None, "method": "van_eijk",
                                  "error": "worker crashed (exit code 1)"}),
    ])
    assert lines == [
        "bad          van_eijk   undecided in -"
        " error=worker crashed (exit code 1)",
    ]
