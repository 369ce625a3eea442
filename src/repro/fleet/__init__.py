"""Distributed verification fleet: coordinator-sharded multi-daemon SEC.

One :class:`CoordinatorServer` (``repro-sec serve --coordinator``) fronts
N worker daemons (``repro-sec serve --join URL``) behind the *same* job
API a single daemon exposes: rendezvous-sharded dispatch
(:mod:`repro.fleet.shard`), a shared content-addressed result cache any
node can serve (:mod:`repro.fleet.cachenet`), sticky SSE relay streams,
and node death/rejoin handled by the job store's crash-recovery requeue.

Layout: :mod:`.coordinator` holds the fleet executor (membership,
dispatch, relay tails, ``/v1/nodes`` and ``/v1/cache``) and
:class:`CoordinatorServer`, the :mod:`repro.server.frontend` job front
end over it; :mod:`.node` a worker's membership loop.  HTTP to other
daemons goes through :mod:`repro.server.httpd`.  See ``docs/FLEET.md``
for topology, lifecycle and failure semantics.
"""

from .cachenet import CacheClient, TieredCache
from .coordinator import CoordinatorServer, NodeInfo
from .node import FleetMember
from .shard import assign_all, assign_node, routing_key

__all__ = [
    "CacheClient",
    "CoordinatorServer",
    "FleetMember",
    "NodeInfo",
    "TieredCache",
    "assign_all",
    "assign_node",
    "routing_key",
]
