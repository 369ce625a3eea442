"""Networked verification daemon: asyncio HTTP job API + SSE streaming.

``repro-sec serve`` boots a :class:`VerifyServer` that accepts verification
jobs over HTTP, runs them on the service layer's worker processes, persists
the queue across restarts and streams each job's progress events live over
Server-Sent Events.  :mod:`repro.client` is the matching remote client.

Layout: :mod:`.frontend` is the job API both ``serve`` roles share
over an executor; :mod:`.app` is the daemon role (its local executor,
:class:`VerifyServer`, the :func:`serve` entry for either role);
:mod:`.httpd` is HTTP/SSE for servers and the async client;
:mod:`.store` the locked job store; :mod:`.ratelimit` token buckets.

See ``docs/SERVER.md`` for the API reference and lifecycle semantics.
"""

from .app import VerifyServer, build_jobspec, serve
from .frontend import validate_payload
from .httpd import HttpError, parse_sse_stream
from .ratelimit import RateLimiter, TokenBucket
from .store import (
    CANCELLED,
    DONE,
    ERROR,
    JobRecord,
    JobStore,
    QUEUED,
    RUNNING,
    StoreLocked,
    TERMINAL_STATES,
)

__all__ = [
    "CANCELLED",
    "DONE",
    "ERROR",
    "HttpError",
    "JobRecord",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "RateLimiter",
    "StoreLocked",
    "TERMINAL_STATES",
    "TokenBucket",
    "VerifyServer",
    "build_jobspec",
    "parse_sse_stream",
    "serve",
    "validate_payload",
]
