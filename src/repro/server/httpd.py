"""Minimal stdlib-only HTTP/1.1 plumbing for the asyncio servers.

Just enough of the protocol for a JSON API plus Server-Sent Events, on
both ends of a connection:

* **Server side** — request parsing off an :class:`asyncio.StreamReader`
  (with a read timeout and body-size cap, so a stalled or hostile client
  cannot pin a connection), response serialization, and an SSE writer
  with heartbeats and a write timeout (a stuck consumer is disconnected
  instead of wedging the event fan-out).
* **Client side** — the coordinator must never block its event loop on
  a worker call, and the stdlib ships no async HTTP client, so
  :func:`request_json` and :func:`sse_events` speak just enough of the
  protocol to talk to another daemon.  Their timeouts are per I/O step,
  not per request: an SSE stream stays open for the life of a job, but a
  read that stalls past ``read_timeout`` (the daemon heartbeats every few
  seconds, so silence means trouble) fails the call.

One SSE frame parser, :func:`parse_sse_stream`, serves the synchronous
:mod:`repro.client` and the async :func:`read_sse` alike.

Connections are ``Connection: close`` — one request per connection keeps
the state machine trivial and matches the stdlib ``urllib`` client the
:mod:`repro.client` module uses.  SSE responses stay open until the job
ends or the client goes away.
"""

import asyncio
import contextlib
import json
import urllib.parse

#: Reason phrases for the handful of statuses the API uses.
_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}

MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 64
_MAX_RESPONSE = 64 * 1024 * 1024


class HttpError(Exception):
    """Maps to an HTTP error response; ``headers`` ride along (Retry-After)."""

    def __init__(self, status, message, headers=None):
        super(HttpError, self).__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


class Request:
    """One parsed HTTP request."""

    def __init__(self, method, target, headers, body=b"", peer=None):
        self.method = method
        self.path, _, query = target.partition("?")
        self.query = _parse_query(query)
        self.headers = headers  # lower-cased names
        self.body = body
        self.peer = peer

    def json(self):
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "request body is not valid JSON")

    def __repr__(self):
        return "Request({} {})".format(self.method, self.path)


def _parse_query(query):
    params = {}
    for part in query.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        params[key] = value
    return params


async def read_request(reader, peer=None, timeout=10.0,
                       max_body=8 * 1024 * 1024):
    """Parse one request; ``None`` on clean EOF before a request line.

    Raises :class:`HttpError` on malformed input, oversized bodies or a
    client that stalls past ``timeout``.
    """
    try:
        line = await asyncio.wait_for(reader.readline(), timeout)
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out waiting for request line")
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "unsupported HTTP version")

    headers = {}
    while True:
        try:
            line = await asyncio.wait_for(reader.readline(), timeout)
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading headers")
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many headers")
        try:
            name, value = line.decode("latin-1").split(":", 1)
        except ValueError:
            raise HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            length = int(length)
        except ValueError:
            raise HttpError(400, "bad Content-Length")
        if length > max_body:
            raise HttpError(413, "request body exceeds {} bytes".format(
                max_body))
        try:
            body = await asyncio.wait_for(reader.readexactly(length), timeout)
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading request body")
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length")
    return Request(method.upper(), target, headers, body, peer=peer)


def _head(start_line, fields, extra=None):
    """A message head: start line, ``Name: value`` fields, blank line."""
    lines = [start_line]
    for name, value in list(fields.items()) + list((extra or {}).items()):
        lines.append("{}: {}".format(name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response_bytes(status, body=b"", content_type="application/json",
                   headers=None):
    """Serialize a full ``Connection: close`` response."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    return _head(
        "HTTP/1.1 {} {}".format(status, _REASONS.get(status, "Unknown")),
        {"Content-Type": content_type, "Content-Length": len(body),
         "Connection": "close"}, headers) + body


def json_response(status, payload, headers=None):
    return response_bytes(status, json.dumps(payload, sort_keys=True),
                          headers=headers)


def error_response(exc):
    return json_response(exc.status, {"error": exc.message},
                         headers=exc.headers)


class SseWriter:
    """Server-Sent Events framing over an asyncio writer.

    Every write is bounded by ``write_timeout`` (drain included): a client
    that stops reading gets disconnected by :class:`asyncio.TimeoutError`
    propagating to the connection handler, instead of the daemon's event
    pump backing up behind one dead socket.
    """

    def __init__(self, writer, write_timeout=10.0):
        self.writer = writer
        self.write_timeout = write_timeout

    async def start(self, headers=None):
        await self._write(_head("HTTP/1.1 200 OK", {
            "Content-Type": "text/event-stream", "Cache-Control": "no-cache",
            "Connection": "close"}, headers))

    async def event(self, payload, event_type=None):
        """Send one event; ``payload`` is JSON-serialized into ``data:``."""
        chunks = []
        if event_type:
            chunks.append("event: {}\n".format(event_type))
        chunks.append("data: {}\n\n".format(
            json.dumps(payload, sort_keys=True)))
        await self._write("".join(chunks).encode("utf-8"))

    async def comment(self, text="keep-alive"):
        """Heartbeat comment line; also how client liveness is probed."""
        await self._write(": {}\n\n".format(text).encode("utf-8"))

    async def _write(self, data):
        self.writer.write(data)
        await asyncio.wait_for(self.writer.drain(), self.write_timeout)


def parse_sse_stream(lines):
    """Yield ``(event_type, data_str)`` from an iterable of SSE lines.

    Shared with the client: works on any iterator of ``str`` lines (a
    ``urllib`` response wrapped in a decoder, a test fixture list, ...).
    Comment lines (heartbeats) are skipped.
    """
    event_type = None
    data_parts = []
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            if data_parts:
                yield event_type, "\n".join(data_parts)
            event_type = None
            data_parts = []
            continue
        if line.startswith(":"):
            continue
        name, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if name == "event":
            event_type = value
        elif name == "data":
            data_parts.append(value)
    if data_parts:
        yield event_type, "\n".join(data_parts)


async def read_sse(reader, read_timeout):
    """:func:`parse_sse_stream` over an asyncio StreamReader.

    Lines are buffered up to each frame's blank line and handed to that
    parser.  A read stalled past ``read_timeout`` raises
    :class:`AsyncHttpError`.
    """
    frame = []
    while True:
        try:
            raw = await asyncio.wait_for(reader.readline(), read_timeout)
        except asyncio.TimeoutError:
            raise AsyncHttpError("SSE stream stalled (no heartbeat)")
        line = raw.decode("utf-8", "replace")
        if line:
            frame.append(line)
        if not line.strip("\r\n"):
            for event in parse_sse_stream(frame):
                yield event
            if not raw:
                return  # the server closed the stream
            frame = []


# -- the async client -------------------------------------------------------

class AsyncHttpError(Exception):
    """A call that failed at the transport or HTTP layer.

    ``status`` is the HTTP status code when the failure was an error
    response, or ``None`` for connection-level trouble.
    """

    def __init__(self, message, status=None):
        super(AsyncHttpError, self).__init__(message)
        self.status = status


def _split(url):
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme != "http":
        raise AsyncHttpError("only http:// urls are supported: " + url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    target = parsed.path or "/"
    if parsed.query:
        target += "?" + parsed.query
    return host, port, target


def _request_bytes(method, host, target, body, headers):
    fields = dict(headers or {})
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
        fields.update({"Content-Type": "application/json",
                       "Content-Length": len(payload)})
    return _head("{} {} HTTP/1.1".format(method, target), {
        "Host": host, "Accept": "application/json", "Connection": "close"},
        fields) + payload


async def _read_head(reader, timeout):
    """Read and parse the status line + header block."""
    try:
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    except asyncio.IncompleteReadError as exc:
        raise AsyncHttpError("connection closed mid-response: {!r}".format(
            exc.partial[:128]))
    except asyncio.TimeoutError:
        raise AsyncHttpError("timed out reading response head")
    except asyncio.LimitOverrunError:
        raise AsyncHttpError("response head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise AsyncHttpError("malformed status line: {!r}".format(lines[0]))
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


@contextlib.asynccontextmanager
async def _exchange(method, url, body, headers, connect_timeout,
                    read_timeout):
    """Send one request; yields ``(reader, status, response_headers)``
    with the connection open until the block exits."""
    host, port, target = _split(url)
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), connect_timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        raise AsyncHttpError("cannot connect to {}: {}".format(url, exc))
    try:
        writer.write(_request_bytes(method, host, target, body, headers))
        await asyncio.wait_for(writer.drain(), connect_timeout)
        status, response_headers = await _read_head(reader, read_timeout)
        yield reader, status, response_headers
    finally:
        try:
            writer.close()
        except Exception:
            pass


async def request_json(method, url, body=None, headers=None,
                       connect_timeout=5.0, read_timeout=30.0):
    """One JSON request; returns ``(status, payload_dict)``.

    Raises :class:`AsyncHttpError` only for transport-level trouble —
    HTTP error statuses are returned to the caller, which knows whether a
    404 (job unknown on this node) or 429 (backpressure) is actionable.
    """
    async with _exchange(method, url, body, headers, connect_timeout,
                         read_timeout) as (reader, status, response_headers):
        length = response_headers.get("content-length")
        try:
            if length is not None:
                size = int(length)
                if size > _MAX_RESPONSE:
                    raise AsyncHttpError("response body too large")
                raw = await asyncio.wait_for(reader.readexactly(size),
                                             read_timeout)
            else:
                raw = await asyncio.wait_for(reader.read(_MAX_RESPONSE),
                                             read_timeout)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            raise AsyncHttpError("timed out reading response body")
    payload = {}
    if raw:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise AsyncHttpError(
                "non-JSON response body (status {})".format(status))
    return status, payload


async def sse_events(url, headers=None, connect_timeout=5.0,
                     read_timeout=60.0):
    """Async generator of ``(event_type, data_str)`` from an SSE url.

    The server's heartbeat comments keep the stream moving; a read that
    stalls past ``read_timeout`` raises :class:`AsyncHttpError` so the
    caller can treat the node as unresponsive.  Ends cleanly when the
    server closes the stream.
    """
    async with _exchange("GET", url, None, headers, connect_timeout,
                         read_timeout) as (reader, status, _):
        if status != 200:
            raise AsyncHttpError(
                "SSE stream refused: status {}".format(status),
                status=status)
        async for event in read_sse(reader, read_timeout):
            yield event
