"""In-process daemon tests: real sockets, real worker processes.

The server runs on a background thread (:class:`helpers.ServerThread`)
while the test drives it synchronously through :class:`ServerClient`.
Tests of the job API both ``serve`` roles share run against a daemon
and a coordinator alike (:func:`helpers.queued_front_end`).
"""

import pytest

from repro.client import ServerClient, ServerError, job_payload
from repro.server import validate_payload, HttpError

from .helpers import (ROLES, ServerThread, queued_front_end, release_queue,
                      spinner_payload, tiny_pair)


def client_for(server, **kwargs):
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("timeout", 10.0)
    return ServerClient(server.url(), **kwargs)


# -- payload validation (no server needed) ----------------------------------

def test_validate_rejects_unknown_method():
    with pytest.raises(HttpError) as excinfo:
        validate_payload({"suite": "s386", "method": "magic"})
    assert excinfo.value.status == 400


def test_validate_requires_exactly_one_source():
    with pytest.raises(HttpError):
        validate_payload({"method": "sat_sweep"})  # neither
    with pytest.raises(HttpError):
        validate_payload({"suite": "s386", "spec_bench": "x",
                          "impl_bench": "y"})  # both


def test_validate_rejects_unknown_suite_row():
    with pytest.raises(HttpError) as excinfo:
        validate_payload({"suite": "no_such_circuit"})
    assert excinfo.value.status == 400
    assert "no_such_circuit" in excinfo.value.message


def test_validate_normalizes_defaults():
    normalized = validate_payload({"suite": "s386"})
    assert normalized["name"] == "s386"
    assert normalized["method"] == "van_eijk"
    assert normalized["match_outputs"] == "order"
    assert normalized["optimize_level"] == 2


# -- the live daemon --------------------------------------------------------

def test_submit_bench_pair_to_verdict(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        assert client.healthz()["status"] == "ok"
        job_id = client.submit(spec, impl, name="tiny", method="sat_sweep")
        record = client.wait(job_id, poll=0.05, timeout=60)
        assert record["state"] == "done"
        assert record["result"]["result"]["equivalent"] is True
        assert record["cached"] is False
        # the payload in the public record is redacted
        assert "chars" in record["payload"]["spec_bench"]

        result = client.result(job_id)
        assert result.verdict is True
        assert result.result.equivalent is True


def test_submit_k_induction_job(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        job_id = client.submit(spec, impl, name="tiny-kind",
                               method="k_induction",
                               options={"max_depth": 8})
        record = client.wait(job_id, poll=0.05, timeout=60)
        assert record["state"] == "done"
        result = record["result"]["result"]
        assert result["equivalent"] is True
        assert result["method"] == "k_induction"
        assert result["details"]["solver_stats"]["solver_constructions"] == 1


def test_cache_serves_repeat_submissions(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path / "store",
                      cache_dir=str(tmp_path / "cache"),
                      workers=1) as server:
        client = client_for(server)
        first = client.submit(spec, impl, name="tiny", method="sat_sweep")
        assert client.wait(first, poll=0.05, timeout=60)["cached"] is False
        second = client.submit(spec, impl, name="tiny-again",
                               method="sat_sweep")
        record = client.wait(second, poll=0.05, timeout=60)
        assert record["state"] == "done"
        assert record["cached"] is True
        assert record["result"]["result"]["equivalent"] is True

        stats = client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] > 0


def test_submit_suite_row_and_sse_stream(tmp_path):
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        job_id = client.submit_suite("s386", method="sat_sweep")
        record = client.wait(job_id, poll=0.05, timeout=120)
        assert record["state"] == "done"
        assert record["result"]["result"]["equivalent"] is True

        # Replay the finished job's stream: history then the done event.
        events = list(client.events(job_id))
        types = [e["type"] for e in events]
        assert types[0] == "job_submitted"
        assert "job_started" in types
        assert any(e["type"] == "job_progress"
                   and e.get("data", {}).get("kind") == "refinement_round"
                   for e in events)
        assert types[-1] == "done"
        assert events[-1]["record"]["state"] == "done"


def test_server_default_refine_workers_applied(tmp_path):
    """A daemon started with ``refine_workers`` injects it into sat_sweep
    jobs that don't pin their own value — visible in the verdict details."""
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1,
                      refine_workers=2) as server:
        client = client_for(server)
        job_id = client.submit(spec, impl, name="tiny", method="sat_sweep")
        record = client.wait(job_id, poll=0.05, timeout=60)
        assert record["state"] == "done"
        result = record["result"]["result"]
        assert result["equivalent"] is True
        assert result["details"]["refine_workers"] == 2
        # Other methods are left alone.
        other = client.submit(spec, impl, name="tiny-ve", method="van_eijk")
        other_record = client.wait(other, poll=0.05, timeout=60)
        assert other_record["state"] == "done"
        assert other_record["result"]["result"]["equivalent"] is True


def test_http_errors(tmp_path):
    for role in ROLES:
        with queued_front_end(role, tmp_path / role) as server:
            client = client_for(server)
            with pytest.raises(ServerError) as excinfo:
                client._request("GET", "/v1/nowhere")
            assert excinfo.value.status == 404, role
            with pytest.raises(ServerError) as excinfo:
                client.job("j-unknown")
            assert excinfo.value.status == 404, role
            with pytest.raises(ServerError) as excinfo:
                client._request("DELETE", "/v1/stats")
            assert excinfo.value.status == 405, role
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/v1/jobs", body={"method": "nope"})
            assert excinfo.value.status == 400, role
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/v1/jobs", body={"jobs": []})
            assert excinfo.value.status == 400, role


def test_queue_backpressure_429(tmp_path):
    for role in ROLES:
        with queued_front_end(role, tmp_path / role,
                              queue_limit=2) as server:
            client = client_for(server)
            payloads = [spinner_payload("spin-{}".format(i))
                        for i in range(3)]
            with pytest.raises(ServerError) as excinfo:
                client.submit_payloads(payloads)
            assert excinfo.value.status == 429, role
            # under the limit is fine
            ids = client.submit_payloads(payloads[:2])
            assert len(ids) == 2, role
            for job_id in ids:
                client.cancel(job_id)


def test_cancel_queued_and_running(tmp_path):
    # Cancelling a queued job is immediate, in either role.
    for role in ROLES:
        with queued_front_end(role, tmp_path / role) as server:
            client = client_for(server)
            queued_id = client.submit_payload(spinner_payload("queued"))
            assert client.job(queued_id)["state"] == "queued", role
            response = client.cancel(queued_id)
            assert response["state"] == "cancelled", role
            assert client.job(queued_id)["state"] == "cancelled", role

    with ServerThread(store_dir=tmp_path / "running", workers=1) as server:
        client = client_for(server)
        running_id = client.submit_payload(spinner_payload("running"))
        deadline_poll = 0
        while client.job(running_id)["state"] != "running":
            deadline_poll += 1
            assert deadline_poll < 600, "spinner never started"
            client.sleep(0.05)

        # Cancelling the running job goes SIGTERM -> cooperative cancel.
        response = client.cancel(running_id)
        assert response["state"] == "cancelling"
        record = client.wait(running_id, poll=0.05, timeout=60)
        assert record["state"] == "cancelled"
        assert record["result"]["result"]["equivalent"] is None

        # Cancelling a terminal job is a no-op, not an error.
        response = client.cancel(running_id)
        assert response["detail"] == "already terminal"


@pytest.mark.parametrize("role", ROLES)
def test_terminal_transitions_emit_events(tmp_path, role):
    """A queued cancel emits ``job_cancelled``, and a job that errors
    before it runs (the daemon cannot build it, or a node rejects the
    dispatch) emits ``job_finished``, in both roles alike."""
    with queued_front_end(role, tmp_path) as server:
        client = client_for(server)
        cancelled = client.submit_payload(spinner_payload("cancel-me"))
        client.cancel(cancelled)
        broken = client.submit_payload(dict(spinner_payload("broken"),
                                            spec_bench="GARBAGE("))
        release_queue(server)
        record = client.wait(broken, poll=0.05, timeout=30)
        assert record["state"] == "error"

        def types(job_id):
            return [event["type"] for event in client.events(job_id)]

        assert types(cancelled) == ["job_submitted", "job_cancelled",
                                    "done"]
        assert types(broken)[-2:] == ["job_finished", "done"]


def test_rate_limit_429(tmp_path):
    for role in ROLES:
        with queued_front_end(role, tmp_path / role, rate=0.001,
                              burst=2) as server:
            client = client_for(server)
            client.stats()
            client.stats()
            with pytest.raises(ServerError) as excinfo:
                client.stats()
            assert excinfo.value.status == 429, role
            # healthz is never throttled
            assert client.healthz()["status"] == "ok", role
            assert server.limiter.rejected >= 1, role


def test_stats_shape(tmp_path):
    with ServerThread(store_dir=tmp_path, workers=1,
                      cache_dir=str(tmp_path / "cache")) as server:
        client = client_for(server)
        spec, impl = tiny_pair()
        job_id = client.submit(spec, impl, name="tiny", method="sat_sweep")
        client.wait(job_id, poll=0.05, timeout=60)
        stats = client.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["workers"]["total"] == 1
        assert stats["queue_limit"] == 64
        assert stats["events"]["published"] > 0
        assert isinstance(stats["solver_stats"], dict)

    # The block both roles share.
    for role in ROLES:
        with queued_front_end(role, tmp_path / role, queue_limit=5,
                              cache_dir=str(tmp_path / role / "cache")
                              ) as server:
            client = client_for(server)
            client.submit_payload(spinner_payload())
            stats = client.stats()
            assert stats["role"] == server.executor.role
            assert stats["jobs"]["queued"] == 1, role
            assert stats["queue_limit"] == 5, role
            assert stats["cache"]["hit_rate"] is None, role
            assert stats["events"]["published"] > 0, role
            assert set(stats["rate_limit"]) == {"rejected", "rate",
                                                "burst"}, role
            assert stats["uptime_seconds"] >= 0, role


def test_job_listing(tmp_path):
    for role in ROLES:
        with queued_front_end(role, tmp_path / role) as server:
            client = client_for(server)
            job_id = client.submit_payload(spinner_payload("tiny"))
            jobs = client.jobs()
            assert [j["id"] for j in jobs] == [job_id], role
            assert jobs[0]["name"] == "tiny", role
            assert jobs[0]["state"] == "queued", role
            assert jobs[0]["requeues"] == 0, role


def test_stop_does_not_wait_for_sse_watchers(tmp_path):
    """A graceful stop ends a watched running job's stream instead of
    waiting for it (``Server.wait_closed`` waits for every open
    connection on Python 3.12+)."""
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        job_id = client.submit_payload(spinner_payload())
        events = client.events(job_id, timeout=60)
        assert next(events)["type"] == "job_submitted"
    # Leaving the block ran stop() within the helper's 30 s limit.
    events.close()


def test_restart_resumes_persisted_queue(tmp_path):
    """Queued jobs survive a stop/start cycle of the daemon."""
    payload = validate_payload(job_payload(*tiny_pair(), name="later",
                                           method="sat_sweep"))
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        spinner_id = client.submit_payload(spinner_payload())
        later_id = client.submit_payload(payload)
        while client.job(spinner_id)["state"] != "running":
            client.sleep(0.05)
        assert client.job(later_id)["state"] == "queued"
    # Graceful stop re-queues the running spinner on disk.

    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        record = client.job(spinner_id)
        assert record["requeues"] >= 1
        # Don't let the spinner hog the worker: cancel it, then the
        # surviving queued job runs to a verdict.
        client.cancel(spinner_id)
        client.wait(spinner_id, poll=0.05, timeout=60)
        record = client.wait(later_id, poll=0.05, timeout=60)
        assert record["state"] == "done"
        assert record["result"]["result"]["equivalent"] is True
