"""The job front end shared by the daemon and the fleet coordinator.

``repro-sec serve`` runs one :class:`JobFrontEnd` in one of two roles.
The front end owns everything a client talks to, identically in both:

========================  =====================================================
``POST /v1/jobs``         submit one job (or ``{"jobs": [...]}``): a named
                          suite entry or a serialized circuit pair; 202 + id
``GET /v1/jobs``          list job summaries
``GET /v1/jobs/{id}``     state + ``SecResult.as_dict`` once terminal
``DELETE /v1/jobs/{id}``  cancel (queued: at once; running: by the executor)
``GET /v1/jobs/{id}/events``  Server-Sent Events: the job's JSONL progress
                          stream, replayed from the start then live
``GET /v1/healthz``       liveness (never rate-limited)
``GET /v1/stats``         queue depth, cache hit rate, event and rate-limit
                          counters, plus the executor's own block
========================  =====================================================

It also owns the listener, ready file and signal handling, the locked
:class:`~repro.server.store.JobStore`, per-client throttling, queue-limit
backpressure (``429`` + ``Retry-After``), event history and SSE fan-out.
Where a queued job *runs* is up to the :class:`Executor`: the daemon's
:class:`repro.server.app.LocalExecutor` forks local worker processes,
the coordinator's :class:`repro.fleet.coordinator.FleetExecutor`
dispatches to the worker daemons that joined it.
"""

import asyncio
import json
import math
import os
import signal
import time

from .. import METHODS
from ..service.cache import ResultCache
from ..service.events import (
    CLIENT_THROTTLED,
    EventBus,
    JOB_CANCELLED,
    JOB_FINISHED,
    JOB_REQUEUED,
    JOB_SUBMITTED,
    SERVER_STARTED,
    SERVER_STOPPED,
)
from . import store as store_mod
from .httpd import (
    HttpError,
    SseWriter,
    error_response,
    json_response,
    read_request,
)
from .ratelimit import RateLimiter


def validate_payload(payload):
    """Normalize one submission payload; raises :class:`HttpError` (400)."""
    if not isinstance(payload, dict):
        raise HttpError(400, "job payload must be a JSON object")
    method = payload.get("method", "van_eijk")
    if method not in METHODS:
        raise HttpError(400, "unknown method {!r}; choose one of {}".format(
            method, list(METHODS)))
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise HttpError(400, "options must be a JSON object")
    if options.get("preprocess"):
        from ..sweep import PREPROCESS_PASSES

        if options["preprocess"] not in PREPROCESS_PASSES:
            raise HttpError(400, "unknown preprocess pass {!r}; choose one "
                                 "of {}".format(options["preprocess"],
                                                list(PREPROCESS_PASSES)))
    has_suite = bool(payload.get("suite"))
    has_pair = "spec_bench" in payload and "impl_bench" in payload
    if has_suite == has_pair:
        raise HttpError(
            400, "submit either a 'suite' row name or both "
                 "'spec_bench' and 'impl_bench' circuit texts")
    if has_suite:
        from ..circuits import row_by_name

        try:
            row_by_name(payload["suite"])
        except KeyError:
            raise HttpError(400, "unknown suite row {!r}".format(
                payload["suite"]))
    normalized = {
        "name": payload.get("name") or payload.get("suite") or "job",
        "method": method,
        "options": options,
        "match_inputs": payload.get("match_inputs", "name"),
        "match_outputs": payload.get("match_outputs", "order"),
        "tags": payload.get("tags") or {},
    }
    if has_suite:
        normalized["suite"] = payload["suite"]
        normalized["optimize_level"] = int(payload.get("optimize_level", 2))
    else:
        for key in ("spec_bench", "impl_bench"):
            if not isinstance(payload[key], str):
                raise HttpError(400, "{} must be .bench text".format(key))
            normalized[key] = payload[key]
    try:
        json.dumps(normalized)
    except (TypeError, ValueError):
        raise HttpError(400, "job payload is not JSON-serializable")
    return normalized


async def cancel_task(task):
    """Cancel ``task`` (if any) and wait until it has ended."""
    if task is None:
        return
    task.cancel()
    try:
        await task
    except (asyncio.CancelledError, Exception):
        pass


class Executor:
    """Where a front end's queued jobs run: all the two roles differ in.

    Every executor implements ``async step()`` (one pump round: move
    queued jobs on, collect finished ones), ``async stop()`` (the pump has
    stopped: park or let go of running jobs), ``async cancel(record)``
    (begin cancelling a *running* job; returns the 202 body), and
    ``info()`` / ``stats()`` (role fields for healthz, the ready file and
    ``server_started`` / for ``/v1/stats``).  The hooks below default to
    nothing.  Records leave the queue through the executor; the shared
    transitions (:meth:`JobFrontEnd.finish`, :meth:`JobFrontEnd.mark_error`,
    :meth:`JobFrontEnd.requeue`) live on the front end.
    """

    #: The ``role`` reported by healthz, stats, the ready file and events.
    role = None

    def bind(self, front):
        self.front = front
        self.store = front.store
        self.bus = front.bus

    def start(self):
        """The listener is up: recover, announce, spawn helper tasks."""

    def route(self, request):
        """Answer a role-only, unthrottled path; ``None`` for the rest."""
        return None

    def admit(self, raw, payload):
        """Accept one submission (or raise 400); returns the record meta."""
        return None

    def describe(self, record, data):
        """Add role fields to a job record or summary dict."""
        return data


class JobFrontEnd:
    """The ``/v1`` job API, store and event fan-out over one executor."""

    def __init__(self, executor, host, port, store_dir, cache_dir,
                 cache_max_entries, cache_max_bytes, queue_limit, rate, burst,
                 request_timeout, sse_heartbeat, sse_write_timeout,
                 poll_interval, history_limit, bus, ready_file,
                 trusted_proxies=()):
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        # The proxies whose X-Forwarded-For header identifies the real
        # client for rate limiting (a fleet worker trusts its coordinator).
        self.trusted_proxies = frozenset(trusted_proxies or ())
        self.request_timeout = request_timeout
        self.sse_heartbeat = sse_heartbeat
        self.sse_write_timeout = sse_write_timeout
        self.poll_interval = poll_interval
        self.history_limit = history_limit
        self.ready_file = ready_file
        self.bus = bus or EventBus()
        self.store = store_mod.JobStore.locked(store_dir)
        self.cache = None
        if cache_dir:
            self.cache = ResultCache(cache_dir,
                                     max_entries=cache_max_entries,
                                     max_bytes=cache_max_bytes)
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self._history = {}    # job id -> [event dict, ...] (bounded)
        self._watchers = {}   # job id -> set of asyncio.Queue
        self._server = None
        self._pump_task = None
        self._connections = set()
        self._stop_event = None
        self._started_at = None
        self.events_published = 0
        self.events_dropped = 0
        self.bus.subscribe(self._on_event)
        self.executor = executor
        executor.bind(self)

    # -- event fan-out ------------------------------------------------------

    def _on_event(self, event):
        """Bus subscriber: record per-job history, wake SSE watchers."""
        self.events_published += 1
        if event.job is None:
            return
        payload = event.as_dict()
        history = self._history.setdefault(event.job, [])
        history.append(payload)
        if len(history) > self.history_limit:
            del history[:len(history) - self.history_limit]
            self.events_dropped += 1
        for queue in self._watchers.get(event.job, ()):  # same-loop puts
            queue.put_nowait(payload)

    def notify_terminal(self, job_id):
        for queue in self._watchers.get(job_id, ()):
            queue.put_nowait(None)

    # -- transitions shared by both executors -------------------------------

    def finish(self, record, state, event=None, **fields):
        """Make ``record`` terminal, emit ``event``, wake its watchers."""
        record.state = state
        record.finished_at = time.time()
        self.store.save(record)
        if event is not None:
            self.bus.emit(event, job=record.id, name=record.name, **fields)
        self.notify_terminal(record.id)

    def mark_error(self, record, message):
        record.error = message
        self.finish(record, store_mod.ERROR, JOB_FINISHED, verdict=None,
                    error=message)

    def requeue(self, record, reason):
        self.store.requeue(record)
        self.bus.emit(JOB_REQUEUED, job=record.id, name=record.name,
                      requeues=record.requeues, reason=reason)

    # -- lifecycle ----------------------------------------------------------

    async def start(self):
        """Bind the listener, start the executor and the pump."""
        self._started_at = time.monotonic()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.executor.start()
        self._pump_task = asyncio.ensure_future(self._pump())
        info = dict(self.executor.info(), role=self.executor.role,
                    host=self.host, port=self.port, pid=os.getpid())
        self.bus.emit(SERVER_STARTED, jobs_recovered=len(self.store),
                      **info)
        if self.ready_file:
            info["url"] = self.url()
            tmp = self.ready_file + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(info, fh)
            os.replace(tmp, self.ready_file)

    def url(self):
        host = "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host
        return "http://{}:{}".format(host, self.port)

    def request_stop(self):
        """Signal-safe stop request (wired to SIGINT/SIGTERM)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self):
        """Run until :meth:`request_stop`; installs signal handlers."""
        await self.start()
        loop = asyncio.get_event_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await self._stop_event.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()

    async def stop(self):
        """Graceful shutdown: stop intake and the pump, let the executor
        park its running jobs, close connections, release the store."""
        if self._server is not None:
            self._server.close()
        await cancel_task(self._pump_task)
        await self.executor.stop()
        self.bus.emit(SERVER_STOPPED, role=self.executor.role,
                      host=self.host, port=self.port,
                      uptime_seconds=self.uptime())
        for job_id in list(self._watchers):
            self.notify_terminal(job_id)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.wait(list(self._connections))
        if self._server is not None:  # 3.12+ waits for open connections
            await self._server.wait_closed()
        self.store.close()

    def uptime(self):
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    async def _pump(self):
        while True:
            try:
                await self.executor.step()
            except Exception:
                # The pump must survive one bad record or node; the
                # executor marks the record errored where it can.
                pass
            await asyncio.sleep(self.poll_interval)

    # -- HTTP ---------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        """Serve the one request of a ``Connection: close`` connection."""
        task = asyncio.current_task()
        self._connections.add(task)
        peername = writer.get_extra_info("peername")
        try:
            try:
                request = await read_request(
                    reader, peer=peername[0] if peername else "unknown",
                    timeout=self.request_timeout)
                if request is None:
                    return  # clean EOF before a request line
                response = await self._route(request, writer)
            except HttpError as exc:
                response = error_response(exc)
            if response is not None:
                writer.write(response)
                await writer.drain()
        except (asyncio.CancelledError, asyncio.TimeoutError,
                ConnectionError):
            pass
        except Exception:
            try:
                writer.write(error_response(
                    HttpError(500, "internal server error")))
            except Exception:
                pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, request, writer):
        path, method = request.path, request.method
        if path == "/v1/healthz":
            if method != "GET":
                raise HttpError(405, "method not allowed")
            return json_response(200, dict(
                self.executor.info(), status="ok", role=self.executor.role,
                uptime_seconds=self.uptime()))
        response = self.executor.route(request)
        if response is not None:
            return response
        self._throttle(request)
        if path == "/v1/stats":
            if method != "GET":
                raise HttpError(405, "method not allowed")
            return json_response(200, self.stats())
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(request)
            if method == "GET":
                return json_response(200, {
                    "jobs": [self._summary(r) for r in self.store.all()]})
            raise HttpError(405, "method not allowed")
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            record = self.store.get(job_id)
            if record is None:
                raise HttpError(404, "no such job {!r}".format(job_id))
            if tail == "events":
                if method != "GET":
                    raise HttpError(405, "method not allowed")
                await self._stream_events(record, writer)
                return None
            if tail:
                raise HttpError(404, "unknown resource {!r}".format(tail))
            if method == "GET":
                return json_response(200, self.public_dict(record))
            if method == "DELETE":
                return await self._cancel(record)
            raise HttpError(405, "method not allowed")
        raise HttpError(404, "unknown path {!r}".format(path))

    def _client_key(self, request):
        """The rate-limit bucket key for one request.

        Keyed by socket peer, except when the request arrives from a
        *trusted proxy* (the fleet coordinator) carrying an
        ``X-Forwarded-For`` header: then the first forwarded hop is the
        key, so distinct downstream clients fill distinct buckets instead
        of the whole fleet's traffic collapsing into the coordinator's
        one.  The header is ignored from untrusted peers — anyone can
        send it, only the coordinator is believed.
        """
        if request.peer in self.trusted_proxies:
            forwarded = request.headers.get("x-forwarded-for")
            if forwarded:
                client = forwarded.split(",")[0].strip()
                if client:
                    return client
        return request.peer

    def _throttle(self, request):
        key = self._client_key(request)
        wait = self.limiter.check(key)
        if wait > 0.0:
            retry_after = max(1, int(math.ceil(min(wait, 3600.0))))
            self.bus.emit(CLIENT_THROTTLED, client=key,
                          path=request.path, retry_after=retry_after)
            raise HttpError(429, "rate limit exceeded",
                            headers={"Retry-After": str(retry_after)})

    def _submit(self, request):
        client = self._client_key(request)
        body = request.json()
        many = isinstance(body, dict) and "jobs" in body
        payloads = body["jobs"] if many else [body]
        if not isinstance(payloads, list) or not payloads:
            raise HttpError(400, "'jobs' must be a non-empty list")
        admitted = []
        for raw in payloads:
            payload = validate_payload(raw)
            admitted.append((payload, self.executor.admit(raw, payload)))
        counts = self.store.counts()
        backlog = counts[store_mod.QUEUED] + counts[store_mod.RUNNING]
        if backlog + len(admitted) > self.queue_limit:
            self.bus.emit(CLIENT_THROTTLED, client=client,
                          path=request.path, reason="queue full",
                          backlog=backlog)
            raise HttpError(429, "job queue is full ({} of {})".format(
                backlog, self.queue_limit),
                headers={"Retry-After": "2"})
        ids = []
        for payload, meta in admitted:
            record = self.store.create(payload, client=client, meta=meta)
            ids.append(record.id)
            self.bus.emit(JOB_SUBMITTED, job=record.id, name=record.name,
                          method=payload["method"], client=client)
        response = {"ids": ids} if many else {"id": ids[0]}
        response["state"] = store_mod.QUEUED
        return json_response(202, response)

    async def _cancel(self, record):
        if record.terminal:
            return json_response(
                200, {"id": record.id, "state": record.state,
                      "detail": "already terminal"})
        if record.state == store_mod.QUEUED:
            self.finish(record, store_mod.CANCELLED, JOB_CANCELLED,
                        method=record.payload.get("method"))
            return json_response(200, {"id": record.id,
                                       "state": record.state})
        return json_response(202, await self.executor.cancel(record))

    def public_dict(self, record):
        """The ``GET /v1/jobs/{id}`` body (and the SSE ``done`` record)."""
        return self.executor.describe(record, record.public_dict())

    def _summary(self, record):
        return self.executor.describe(record, {
            "id": record.id,
            "name": record.name,
            "method": record.payload.get("method"),
            "state": record.state,
            "cached": record.cached,
            "requeues": record.requeues,
            "submitted_at": record.submitted_at,
            "finished_at": record.finished_at,
        })

    async def _stream_events(self, record, writer):
        queue = asyncio.Queue()
        watchers = self._watchers.setdefault(record.id, set())
        watchers.add(queue)
        # Snapshot before any await: events published mid-replay land on the
        # queue (subscribed above), never duplicated and never lost.
        history = list(self._history.get(record.id, []))
        terminal = record.terminal
        try:
            sse = SseWriter(writer, write_timeout=self.sse_write_timeout)
            await sse.start()
            for payload in history:
                await sse.event(payload, payload.get("type"))
            if terminal:
                await sse.event(self.public_dict(record), "done")
                return
            while True:
                try:
                    item = await asyncio.wait_for(queue.get(),
                                                  self.sse_heartbeat)
                except asyncio.TimeoutError:
                    await sse.comment()
                    continue
                if item is None:
                    fresh = self.store.get(record.id)
                    await sse.event(
                        self.public_dict(fresh) if fresh
                        else {"id": record.id}, "done")
                    return
                await sse.event(item, item.get("type"))
        finally:
            watchers.discard(queue)
            if not watchers:
                self._watchers.pop(record.id, None)

    # -- stats --------------------------------------------------------------

    def stats(self):
        cache_stats = None
        if self.cache is not None:
            cache_stats = self.cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            cache_stats["hit_rate"] = (
                cache_stats["hits"] / lookups if lookups else None)
        return dict(self.executor.stats(), **{
            "role": self.executor.role,
            "uptime_seconds": self.uptime(),
            "jobs": self.store.counts(),
            "queue_limit": self.queue_limit,
            "cache": cache_stats,
            "events": {"published": self.events_published,
                       "dropped": self.events_dropped},
            "rate_limit": {"rejected": self.limiter.rejected,
                           "rate": self.limiter.rate,
                           "burst": self.limiter.burst},
        })
