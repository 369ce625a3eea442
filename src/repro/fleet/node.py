"""Worker-side fleet membership: join, heartbeat, leave.

A worker daemon started with ``repro-sec serve --join URL`` owns one
:class:`FleetMember`, which runs as an asyncio task inside the daemon's
event loop: it registers the node with the coordinator
(``POST /v1/nodes``), then heartbeats (``POST /v1/nodes/{id}/heartbeat``)
every ``interval`` seconds.  Membership is *leased*, not permanent — a
coordinator that misses heartbeats past its ``dead_after`` window marks
the node dead and requeues its jobs, and a heartbeat answered with 404
(the coordinator restarted, or reaped us while we were partitioned)
triggers an automatic rejoin, so a node that comes back simply starts
receiving work again.

Every transition is surfaced on the daemon's event bus (``node_joined``
on each successful (re)join, ``node_left`` on the graceful goodbye) so
the operator's event stream shows membership next to job traffic.
"""

import asyncio

from ..server.httpd import AsyncHttpError, request_json
from ..service.events import NODE_JOINED, NODE_LEFT

__all__ = ["FleetMember"]


class FleetMember:
    """The join/heartbeat/leave loop of one worker node."""

    def __init__(self, coordinator_url, node_id, advertise_url, bus,
                 interval=2.0, request_timeout=5.0):
        self.coordinator_url = coordinator_url.rstrip("/")
        self.node_id = node_id
        self.advertise_url = advertise_url
        self.bus = bus
        self.interval = interval
        self.request_timeout = request_timeout
        self.joined = False
        self.joins = 0
        self.heartbeats = 0
        self.failures = 0

    def _call(self, method, path, body=None):
        return request_json(method, self.coordinator_url + path, body=body,
                            connect_timeout=self.request_timeout,
                            read_timeout=self.request_timeout)

    async def _join(self):
        status, payload = await self._call(
            "POST", "/v1/nodes",
            body={"id": self.node_id, "url": self.advertise_url})
        if status != 200:
            raise AsyncHttpError("join rejected: {} {}".format(
                status, payload.get("error")), status=status)
        self.joined = True
        self.joins += 1
        self.bus.emit(NODE_JOINED, node=self.node_id,
                      coordinator=self.coordinator_url,
                      url=self.advertise_url, rejoin=self.joins > 1)

    async def _heartbeat(self):
        status, _ = await self._call(
            "POST", "/v1/nodes/{}/heartbeat".format(self.node_id),
            body={"url": self.advertise_url})
        if status == 404:
            # The coordinator no longer knows us (restart, or it reaped
            # us during a partition): fall back to a full rejoin.
            self.joined = False
            return
        if status != 200:
            raise AsyncHttpError("heartbeat rejected: {}".format(status),
                                 status=status)
        self.heartbeats += 1

    async def run(self):
        """Membership loop; runs until cancelled.

        Coordinator outages are absorbed: failed joins/heartbeats count
        in ``failures`` and retry on the next tick, never crash the
        worker daemon.
        """
        while True:
            try:
                if not self.joined:
                    await self._join()
                else:
                    await self._heartbeat()
            except AsyncHttpError:
                self.failures += 1
                self.joined = False
            except Exception:
                self.failures += 1
            await asyncio.sleep(self.interval)

    async def leave(self):
        """Best-effort graceful deregistration (daemon shutdown)."""
        if not self.joined:
            return
        try:
            await self._call("DELETE", "/v1/nodes/{}".format(self.node_id))
        except (AsyncHttpError, Exception):
            return
        finally:
            self.joined = False
        self.bus.emit(NODE_LEFT, node=self.node_id,
                      coordinator=self.coordinator_url)
