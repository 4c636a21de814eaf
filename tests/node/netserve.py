"""A :class:`NetServer` over a bare node, through the production path.

``NetServer`` serves a :class:`QueryServer` — ``repro serve`` and the
end-to-end benchmark build exactly that — so socket tests that start
from a :class:`FullNode` (or a node double with its handler surface)
wrap it here rather than handing the node to the socket layer.  The
queue is deep enough that admission never refuses at test concurrency;
tests about admission build their own ``QueryServer``.
"""

from repro.node.net import NetServer
from repro.node.server import QueryServer


class NodeServer(NetServer):
    """``NetServer(QueryServer(node))`` that closes its query server too."""

    def __init__(self, node, **kwargs) -> None:
        self.query_server = QueryServer(node, max_pending=1024)
        super().__init__(self.query_server, **kwargs)

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        super().close(drain, timeout)
        self.query_server.close(drain=False, timeout=1.0)

    def abort(self) -> None:
        super().abort()
        self.query_server.close(drain=False, timeout=1.0)
