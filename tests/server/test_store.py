"""Persistence tests for the daemon's on-disk job store."""

import json
import os

import pytest

from repro.server import (CANCELLED, DONE, QUEUED, RUNNING, JobRecord,
                          JobStore, StoreLocked)


def make_payload(name="tiny"):
    return {"name": name, "method": "sat_sweep", "suite": "s27",
            "options": {}, "match_inputs": "name", "match_outputs": "order",
            "tags": {}, "optimize_level": 2}


def test_create_get_roundtrip(tmp_path):
    store = JobStore(tmp_path)
    record = store.create(make_payload(), client="127.0.0.1")
    assert record.state == QUEUED
    assert record.name == "tiny"
    assert not record.terminal

    reloaded = JobStore(tmp_path).get(record.id)
    assert reloaded is not None
    assert reloaded.payload == record.payload
    assert reloaded.client == "127.0.0.1"
    assert reloaded.submitted_at == record.submitted_at


def test_ids_are_unique_and_ordered(tmp_path):
    store = JobStore(tmp_path)
    records = [store.create(make_payload(str(i))) for i in range(5)]
    assert len({r.id for r in records}) == 5
    assert [r.id for r in store.all()] == [r.id for r in records]


def test_state_transitions_persist(tmp_path):
    store = JobStore(tmp_path)
    record = store.create(make_payload())
    record.state = DONE
    record.result = {"equivalent": True}
    store.save(record)

    reloaded = JobStore(tmp_path).get(record.id)
    assert reloaded.state == DONE
    assert reloaded.terminal
    assert reloaded.result == {"equivalent": True}


def test_recover_requeues_running_jobs(tmp_path):
    store = JobStore(tmp_path)
    running = store.create(make_payload("was-running"))
    running.state = RUNNING
    store.save(running)
    done = store.create(make_payload("was-done"))
    done.state = DONE
    store.save(done)
    queued = store.create(make_payload("still-queued"))

    fresh = JobStore(tmp_path)
    recovered = fresh.recover()
    assert [r.id for r in recovered] == [running.id]
    assert fresh.get(running.id).state == QUEUED
    assert fresh.get(running.id).requeues == 1
    assert fresh.get(done.id).state == DONE
    assert [r.id for r in fresh.queued()] == [running.id, queued.id]


def test_corrupt_files_are_skipped(tmp_path):
    store = JobStore(tmp_path)
    good = store.create(make_payload())
    jobs_dir = os.path.join(str(tmp_path), "jobs")
    with open(os.path.join(jobs_dir, "zzz-corrupt.json"), "w") as handle:
        handle.write("{not json")

    fresh = JobStore(tmp_path)
    assert [r.id for r in fresh.all()] == [good.id]


def test_delete_and_counts(tmp_path):
    store = JobStore(tmp_path)
    a = store.create(make_payload("a"))
    b = store.create(make_payload("b"))
    b.state = CANCELLED
    store.save(b)
    counts = store.counts()
    assert counts[QUEUED] == 1 and counts[CANCELLED] == 1

    store.delete(a.id)
    assert store.get(a.id) is None
    assert JobStore(tmp_path).get(a.id) is None
    counts = store.counts()
    assert counts[QUEUED] == 0 and counts[CANCELLED] == 1


def test_public_dict_redacts_bench_bodies(tmp_path):
    payload = make_payload()
    del payload["suite"]
    payload["spec_bench"] = "INPUT(a)\n" * 50
    payload["impl_bench"] = "INPUT(b)\n" * 50
    store = JobStore(tmp_path)
    record = store.create(payload)
    public = record.public_dict()
    assert "INPUT" not in json.dumps(public)
    assert "chars" in public["payload"]["spec_bench"]
    # but the store itself keeps the full text
    assert "INPUT" in JobStore(tmp_path).get(record.id).payload["spec_bench"]


def test_locked_store_refuses_a_second_holder(tmp_path):
    held = JobStore.locked(tmp_path)
    queued = held.create(make_payload("held"))
    with pytest.raises(StoreLocked) as excinfo:
        JobStore.locked(tmp_path)
    assert str(tmp_path) in str(excinfo.value)
    # Releasing the hold (a server stopping) lets the next one in, and
    # it resumes the queue it finds.
    held.close()
    again = JobStore.locked(tmp_path)
    assert [r.id for r in again.queued()] == [queued.id]
    again.close()


def test_forked_children_do_not_keep_the_store_locked(tmp_path):
    """Worker processes fork from the daemon; once it lets go of the
    store (or dies), a child still running must not hold the lock."""
    import time

    held = JobStore.locked(tmp_path)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        time.sleep(2.0)
        os._exit(0)
    try:
        time.sleep(0.2)  # the child's at-fork hook has run by now
        held.close()
        JobStore.locked(tmp_path).close()
    finally:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
