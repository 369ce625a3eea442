"""Unit tests for the stdlib HTTP/SSE plumbing (no sockets needed)."""

import asyncio
import json

import pytest

from repro.server import HttpError, parse_sse_stream
from repro.server.httpd import (Request, error_response, json_response,
                                read_request, read_sse, response_bytes)


def parse(raw, **kwargs):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


def test_parses_request_with_body():
    body = json.dumps({"x": 1}).encode()
    raw = (b"POST /v1/jobs?limit=3&flag HTTP/1.1\r\n"
           b"Content-Type: application/json\r\n"
           b"Content-Length: " + str(len(body)).encode() + b"\r\n"
           b"\r\n" + body)
    request = parse(raw)
    assert request.method == "POST"
    assert request.path == "/v1/jobs"
    assert request.query == {"limit": "3", "flag": ""}
    assert request.headers["content-type"] == "application/json"
    assert request.json() == {"x": 1}


def test_clean_eof_returns_none():
    assert parse(b"") is None


def test_malformed_request_line_is_400():
    with pytest.raises(HttpError) as excinfo:
        parse(b"NONSENSE\r\n\r\n")
    assert excinfo.value.status == 400


def test_bad_http_version_is_400():
    with pytest.raises(HttpError) as excinfo:
        parse(b"GET / SPDY/99\r\n\r\n")
    assert excinfo.value.status == 400


def test_oversized_body_is_413():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
    with pytest.raises(HttpError) as excinfo:
        parse(raw, max_body=10)
    assert excinfo.value.status == 413


def test_truncated_body_is_400():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"
    with pytest.raises(HttpError) as excinfo:
        parse(raw)
    assert excinfo.value.status == 400


def test_chunked_encoding_is_501():
    raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    with pytest.raises(HttpError) as excinfo:
        parse(raw)
    assert excinfo.value.status == 501


def test_non_json_body_raises_400():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope"
    request = parse(raw)
    with pytest.raises(HttpError) as excinfo:
        request.json()
    assert excinfo.value.status == 400


def test_response_bytes_shape():
    raw = response_bytes(200, b"hi", content_type="text/plain",
                         headers={"X-Extra": "1"})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert body == b"hi"
    lines = head.decode().split("\r\n")
    assert lines[0] == "HTTP/1.1 200 OK"
    assert "Content-Length: 2" in lines
    assert "Connection: close" in lines
    assert "X-Extra: 1" in lines


def test_json_and_error_responses():
    raw = json_response(202, {"id": "j1"})
    assert b'{"id": "j1"}' in raw

    raw = error_response(HttpError(429, "slow down",
                                   headers={"Retry-After": "2"}))
    assert raw.startswith(b"HTTP/1.1 429")
    assert b"Retry-After: 2" in raw
    assert b"slow down" in raw


SSE_LINES = [
    ": keep-alive\n",
    "event: job_progress\n",
    "data: {\"depth\": 1}\n",
    "\n",
    "data: plain\n",
    "data: second-line\n",
    "\n",
    ": another heartbeat\n",
    "event: done\n",
    "data: {}\n",
    "\n",
]


def test_parse_sse_stream():
    events = list(parse_sse_stream(SSE_LINES))
    assert events == [
        ("job_progress", '{"depth": 1}'),
        (None, "plain\nsecond-line"),
        ("done", "{}"),
    ]


def test_parse_sse_stream_flushes_trailing_event():
    events = list(parse_sse_stream(["data: tail\n"]))
    assert events == [(None, "tail")]


@pytest.mark.parametrize("lines", [SSE_LINES, ["data: tail\n"]],
                         ids=["frames", "trailing"])
def test_async_sse_reader_matches_parse_sse_stream(lines):
    """The relay's async reader and the sync client parse alike."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data("".join(lines).encode())
        reader.feed_eof()
        return [event async for event in read_sse(reader, 1.0)]

    assert asyncio.run(go()) == list(parse_sse_stream(lines))
