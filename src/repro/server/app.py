"""The verification daemon (``repro-sec serve``) and the ``serve`` entry.

:class:`VerifyServer` is the :class:`~repro.server.frontend.JobFrontEnd`
over a :class:`LocalExecutor`: queued jobs run on forked
:class:`~repro.service.scheduler.WorkerPool` workers and results go to
the :class:`~repro.service.cache.ResultCache`.  On restart queued jobs
resume and jobs that were running re-enqueue (:meth:`JobStore.recover`).
"""

import asyncio
import os
import time

from ..netlist import bench
from ..service.events import (
    EventBus,
    JOB_CACHED,
    JOB_CANCELLED,
    JOB_FINISHED,
    JOB_REQUEUED,
)
from ..service.job import JobResult, JobSpec
from ..service.scheduler import WorkerPool
from . import store as store_mod
from .frontend import Executor, JobFrontEnd, cancel_task


def build_jobspec(record):
    """Rebuild the schedulable :class:`JobSpec` from a stored record.

    The spec's *name* is the record id — that is the key every event in
    the stream carries, so SSE consumers and the daemon route on it
    unambiguously even when display names collide.
    """
    payload = record.payload
    if payload.get("suite"):
        from ..circuits import row_by_name

        row = row_by_name(payload["suite"])
        spec, impl = row.pair(optimize_level=payload.get(
            "optimize_level", 2))
    else:
        spec = bench.loads(payload["spec_bench"],
                           name=payload.get("name", "spec"))
        impl = bench.loads(payload["impl_bench"],
                           name=payload.get("name", "impl") + "_impl")
    job = JobSpec(record.id, spec, impl,
                  method=payload.get("method", "van_eijk"),
                  options=payload.get("options") or {},
                  match_inputs=payload.get("match_inputs", "name"),
                  match_outputs=payload.get("match_outputs", "order"),
                  tags=payload.get("tags") or {})
    if job.options.get("preprocess"):
        # Reduce *before* the cache key is first computed: a preprocessed
        # submission and a direct submission of the identical reduced pair
        # share one cache entry, and the worker never re-reduces.
        from ..sweep import preprocess_jobspec

        job, _ = preprocess_jobspec(job)
    return job


class LocalExecutor(Executor):
    """Runs queued jobs on this machine's :class:`WorkerPool` workers."""

    role = "worker"

    def __init__(self, pool, retries, refine_workers, node_id, join_url,
                 advertise_host, heartbeat_interval):
        self.pool = pool
        self.retries = retries
        # Daemon-wide default for sat_sweep jobs that don't pin their own
        # refine_workers; becomes part of the job's cache key (a serial and
        # a parallel run produce identical verdicts but different stats).
        self.refine_workers = int(refine_workers or 0)
        # Fleet membership (repro.fleet): a node id for healthz/debugging
        # and the coordinator to join (None = standalone daemon).
        self.node_id = node_id or "node-{}-{}".format(
            os.getpid(), os.urandom(2).hex())
        self.join_url = join_url
        self.advertise_host = advertise_host
        self.heartbeat_interval = heartbeat_interval
        self._member = None
        self._member_task = None
        self._solver_stats = {}

    def start(self):
        for record in self.store.recover():
            self.bus.emit(JOB_REQUEUED, job=record.id, name=record.name,
                          requeues=record.requeues, reason="daemon restart")
        if self.join_url:
            # Fleet mode: announce this node to the coordinator and keep
            # the membership lease alive.  The advertise URL must carry
            # the *bound* port (the daemon may have asked for port 0).
            from ..fleet.node import FleetMember

            advertise = self.front.url()
            if self.advertise_host:
                advertise = "http://{}:{}".format(self.advertise_host,
                                                  self.front.port)
            self._member = FleetMember(self.join_url, self.node_id,
                                       advertise, self.bus,
                                       interval=self.heartbeat_interval)
            self._member_task = asyncio.ensure_future(self._member.run())

    async def stop(self):
        """Leave the fleet, then park running jobs back on the queue.

        Running jobs go back to *queued* on disk — the same resume
        semantics as a crash, but without waiting for them to finish —
        so a restarted daemon picks them up where the queue left off.
        """
        await cancel_task(self._member_task)
        if self._member is not None:
            await self._member.leave()
        for outcome in self.pool.shutdown():
            record = self.store.get(outcome.token)
            if record is not None and not record.terminal:
                self.front.requeue(record, "daemon shutdown")

    async def step(self):
        self._start_queued()
        for outcome in self.pool.poll():
            self._finish(outcome)

    def _start_queued(self):
        cache = self.front.cache
        while self.pool.has_capacity():
            queued = self.store.queued()
            if not queued:
                return
            record = queued[0]
            try:
                job = build_jobspec(record)
            except Exception as exc:
                self.front.mark_error(record,
                                      "cannot build job: {!r}".format(exc))
                continue
            if (self.refine_workers and job.method == "sat_sweep"
                    and "refine_workers" not in job.options):
                job.options["refine_workers"] = self.refine_workers
            cached = cache.get(job.cache_key()) if cache is not None else None
            if cached is not None:
                record.cached = True
                record.result = JobResult(
                    record.id, cached, cached=True, wall_seconds=0.0,
                    method=job.method).as_dict()
                self._accumulate_solver_stats(cached)
                self.front.finish(record, store_mod.DONE, JOB_CACHED,
                                  verdict=cached.equivalent,
                                  method=job.method)
                continue
            record.state = store_mod.RUNNING
            record.started_at = time.time()
            self.store.save(record)
            self.pool.submit(record.id, job)

    def _finish(self, outcome):
        record = self.store.get(outcome.token)
        if record is None:
            return
        if outcome.cancelled:
            record.result = outcome.result.as_dict()
            self.front.finish(record, store_mod.CANCELLED, JOB_CANCELLED,
                              method=outcome.job.method)
            return
        if outcome.error is not None and record.requeues < self.retries:
            # Worker crash: put the job back at the head of the queue.
            self.front.requeue(record, outcome.error)
            return
        record.state = (store_mod.ERROR if outcome.error is not None
                        else store_mod.DONE)
        record.error = outcome.error
        record.result = outcome.result.as_dict()
        record.finished_at = time.time()
        self.store.save(record)
        result = outcome.result.result
        cache = self.front.cache
        if cache is not None and outcome.error is None and result is not None:
            cache.put(outcome.job.cache_key(), result,
                      meta={"job": record.name, "method": outcome.job.method})
        if result is not None:
            self._accumulate_solver_stats(result)
        self.bus.emit(JOB_FINISHED, job=record.id, name=record.name,
                      verdict=outcome.result.verdict,
                      method=outcome.job.method,
                      seconds=None if result is None else result.seconds,
                      error=outcome.error)
        self.front.notify_terminal(record.id)

    def _accumulate_solver_stats(self, result):
        stats = (result.details or {}).get("solver_stats")
        if not isinstance(stats, dict):
            return
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                self._solver_stats[key] = (
                    self._solver_stats.get(key, 0) + value)

    async def cancel(self, record):
        """SIGTERM → cooperative cancel → SIGKILL after the grace period."""
        self.pool.cancel(record.id)
        return {"id": record.id, "state": "cancelling"}

    def info(self):
        return {"node": self.node_id, "workers": self.pool.workers}

    def stats(self):
        return {"workers": {"total": self.pool.workers,
                            "busy": self.pool.active},
                "solver_stats": dict(self._solver_stats)}


class VerifyServer(JobFrontEnd):
    """The daemon: the job front end over a :class:`LocalExecutor`."""

    def __init__(self, host="127.0.0.1", port=0, workers=2, store_dir=None,
                 cache_dir=None, cache_max_entries=None, cache_max_bytes=None,
                 queue_limit=64, job_time_limit=None, retries=1, grace=2.0,
                 rate=20.0, burst=40, request_timeout=10.0,
                 sse_heartbeat=10.0, sse_write_timeout=10.0,
                 poll_interval=0.02, history_limit=2000, bus=None,
                 ready_file=None, refine_workers=0, node_id=None,
                 join_url=None, advertise_host=None, heartbeat_interval=2.0,
                 trusted_proxies=(), remote_cache_url=None):
        bus = bus or EventBus()
        pool = WorkerPool(workers=workers, bus=bus,
                          job_time_limit=job_time_limit, grace=grace)
        super(VerifyServer, self).__init__(
            LocalExecutor(pool, retries, refine_workers, node_id, join_url,
                          advertise_host, heartbeat_interval),
            host, port, store_dir or ".repro-server", cache_dir,
            cache_max_entries, cache_max_bytes, queue_limit, rate, burst,
            request_timeout, sse_heartbeat, sse_write_timeout,
            poll_interval, history_limit, bus, ready_file,
            trusted_proxies=trusted_proxies)
        if remote_cache_url:
            # Fleet-shared far tier: local misses consult the
            # coordinator's cache, local solves are published to it, so
            # any node serves any fingerprint once one node solved it.
            from ..fleet.cachenet import CacheClient, TieredCache

            self.cache = TieredCache(self.cache,
                                     CacheClient(remote_cache_url))


def serve(host="127.0.0.1", port=8439, coordinator=False, **kwargs):
    """Blocking entry point used by ``repro-sec serve``; returns exit code.

    Runs a :class:`VerifyServer`, or with ``coordinator`` a
    :class:`~repro.fleet.coordinator.CoordinatorServer`, until stopped.
    """
    if coordinator:
        from ..fleet.coordinator import CoordinatorServer as build
    else:
        build = VerifyServer
    server = build(host=host, port=port, **kwargs)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback path
        pass
    return 0
