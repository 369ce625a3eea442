"""Persistent job store for the verification daemon.

One JSON file per job under ``<root>/jobs/``, written atomically
(temp file + ``os.replace``), so the queue survives a daemon crash or
restart: :meth:`JobStore.recover` re-queues jobs that were *running* when
the process died and leaves *queued* jobs queued, preserving submission
order.  Terminal records (done / cancelled / error) are kept for
``GET /v1/jobs/{id}`` until pruned.

The store holds the submission *payload* (a named suite entry or the two
circuits as ``.bench`` text), not live :class:`~repro.netlist.Circuit`
objects — rebuilding the :class:`~repro.service.job.JobSpec` is the
daemon's task (see :func:`repro.server.app.build_jobspec`), which keeps
records JSON-pure and restart-safe.

A server holds its store :meth:`~JobStore.locked` (``flock`` on
``<root>/lock``) until it stops: two servers on one directory would each
load, and run, the other's queue.
"""

import fcntl
import json
import os
import tempfile
import time

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
ERROR = "error"

#: States a job can never leave.
TERMINAL_STATES = (DONE, CANCELLED, ERROR)


class JobRecord:
    """One submitted job: payload, lifecycle state, outcome."""

    def __init__(self, job_id, payload, state=QUEUED, result=None,
                 error=None, submitted_at=None, started_at=None,
                 finished_at=None, requeues=0, client=None, cached=False,
                 meta=None):
        self.id = job_id
        self.payload = dict(payload)
        self.state = state
        self.result = result  # JobResult.as_dict() once terminal
        self.error = error
        self.submitted_at = (time.time() if submitted_at is None
                             else submitted_at)
        self.started_at = started_at
        self.finished_at = finished_at
        self.requeues = requeues
        self.client = client
        self.cached = cached
        # Owner-side bookkeeping that is not part of the payload: the
        # fleet coordinator keeps its node assignment here ({"node": ...,
        # "remote_id": ...}), persisted so failover survives restarts.
        self.meta = dict(meta or {})

    @property
    def name(self):
        return self.payload.get("name") or self.id

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def as_dict(self):
        return {
            "id": self.id,
            "payload": self.payload,
            "state": self.state,
            "result": self.result,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "requeues": self.requeues,
            "client": self.client,
            "cached": self.cached,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["id"], data.get("payload") or {},
            state=data.get("state", QUEUED),
            result=data.get("result"),
            error=data.get("error"),
            submitted_at=data.get("submitted_at"),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            requeues=data.get("requeues", 0),
            client=data.get("client"),
            cached=data.get("cached", False),
            meta=data.get("meta"),
        )

    def public_dict(self):
        """The ``GET /v1/jobs/{id}`` response body."""
        data = self.as_dict()
        # The bench text can be large; the submitter already has it.
        payload = dict(data["payload"])
        for key in ("spec_bench", "impl_bench"):
            if key in payload:
                payload[key] = "<{} chars>".format(len(payload[key]))
        data["payload"] = payload
        data["name"] = self.name
        return data

    def __repr__(self):
        return "JobRecord({!r}, state={}, name={!r})".format(
            self.id, self.state, self.name)


class StoreLocked(RuntimeError):
    """Another live server holds the store directory."""


_held_locks = set()  # lock files of this process's locked stores


def _drop_inherited_locks():
    # A forked worker shares the daemon's lock; closing its copy keeps
    # the daemon's hold but frees the store when the daemon dies.
    for handle in _held_locks:
        handle.close()
    _held_locks.clear()


os.register_at_fork(after_in_child=_drop_inherited_locks)


class JobStore:
    """Disk-backed map of job id → :class:`JobRecord` with FIFO queue view."""

    _lock = None  # the held lock file of a :meth:`locked` store

    def __init__(self, root):
        self.root = str(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._records = {}
        self._counter = 0
        self._load()

    @classmethod
    def locked(cls, root):
        """Open ``root`` for exclusive use; raises :class:`StoreLocked`."""
        os.makedirs(str(root), exist_ok=True)
        handle = open(os.path.join(str(root), "lock"), "a")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            raise StoreLocked("job store {} is in use by another server"
                              .format(os.path.abspath(str(root))))
        store = cls(root)
        store._lock = handle
        _held_locks.add(handle)
        return store

    def close(self):
        """Release the :meth:`locked` hold (closing the file drops it)."""
        if self._lock is not None:
            _held_locks.discard(self._lock)
            self._lock.close()
            self._lock = None

    # -- loading / recovery -------------------------------------------------

    def _load(self):
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path) as fh:
                    record = JobRecord.from_dict(json.load(fh))
            except (OSError, ValueError, KeyError):
                continue  # half-written/corrupt entry: skip, don't crash
            self._records[record.id] = record
            self._counter = max(self._counter, _sequence_of(record.id))

    def recover(self):
        """Post-restart fixup; returns the re-queued (was-running) records.

        Jobs that were *running* when the previous daemon died go back to
        the queue (their worker is gone); *queued* jobs simply remain
        queued.  Callers emit the ``job_requeued`` events.
        """
        requeued = []
        for record in self._records.values():
            if record.state == RUNNING:
                self.requeue(record)
                requeued.append(record)
        return requeued

    def requeue(self, record):
        """Put ``record`` back on the queue, counting the requeue."""
        record.state = QUEUED
        record.started_at = None
        record.requeues += 1
        self.save(record)

    # -- CRUD ---------------------------------------------------------------

    def new_id(self):
        self._counter += 1
        return "j{:08d}-{}".format(self._counter,
                                   os.urandom(3).hex())

    def create(self, payload, client=None, meta=None):
        record = JobRecord(self.new_id(), payload, client=client, meta=meta)
        self._records[record.id] = record
        self.save(record)
        return record

    def get(self, job_id):
        return self._records.get(job_id)

    def save(self, record):
        path = os.path.join(self.jobs_dir, record.id + ".json")
        fd, tmp = tempfile.mkstemp(dir=self.jobs_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record.as_dict(), fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def delete(self, job_id):
        self._records.pop(job_id, None)
        try:
            os.unlink(os.path.join(self.jobs_dir, job_id + ".json"))
        except OSError:
            pass

    # -- views --------------------------------------------------------------

    def all(self):
        return sorted(self._records.values(),
                      key=lambda r: (r.submitted_at, r.id))

    def queued(self):
        """Queued records in FIFO (submission) order."""
        return [r for r in self.all() if r.state == QUEUED]

    def counts(self):
        counts = {state: 0 for state in
                  (QUEUED, RUNNING, DONE, CANCELLED, ERROR)}
        for record in self._records.values():
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    def __len__(self):
        return len(self._records)


def _sequence_of(job_id):
    """The numeric sequence inside ``jNNNNNNNN-xxxxxx`` ids (0 if foreign)."""
    try:
        return int(job_id.split("-", 1)[0].lstrip("j"))
    except (ValueError, AttributeError):
        return 0
