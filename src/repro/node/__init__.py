"""Simulated full/light nodes, the byte-counting transport between them,
the chaos layer (fault injection + resilient multi-peer sessions), and
the real TCP transport (asyncio server + reconnecting client pool)."""

from repro.node.messages import QueryRequest, QueryResponse, HeadersRequest, HeadersResponse
from repro.node.transport import (
    InProcessTransport,
    LinkModel,
    SimulatedClock,
    TransportStats,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.server import QueryServer
from repro.node.faults import (
    ByzantineFlakyFullNode,
    FaultKind,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
    FlakyFullNode,
    SocketFaultInjector,
)
from repro.node.session import (
    PartialHistory,
    Peer,
    QuerySession,
    RetryPolicy,
    SessionStats,
)
from repro.node.net import (
    EventLoopThread,
    NetServer,
    NetServerStats,
)
from repro.node.netclient import (
    ClientConnection,
    ConnectionPool,
    RemoteFullNode,
)

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "HeadersRequest",
    "HeadersResponse",
    "InProcessTransport",
    "LinkModel",
    "SimulatedClock",
    "TransportStats",
    "FullNode",
    "LightNode",
    "QueryServer",
    "FaultKind",
    "FaultRule",
    "FaultSchedule",
    "FaultyTransport",
    "FlakyFullNode",
    "ByzantineFlakyFullNode",
    "Peer",
    "PartialHistory",
    "QuerySession",
    "RetryPolicy",
    "SessionStats",
    "EventLoopThread",
    "NetServer",
    "NetServerStats",
    "SocketFaultInjector",
    "ClientConnection",
    "ConnectionPool",
    "RemoteFullNode",
]
