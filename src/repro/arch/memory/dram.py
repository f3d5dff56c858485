"""DRAM controller model.

The paper's motivation is the off-chip bandwidth wall (§1): controllers
are a scarce edge resource. We model a small number of controllers on
mesh edge tiles; a miss at a tile pays the hop distance to the nearest
controller plus a fixed access latency plus a simple bandwidth-queueing
term (each controller serves one request per ``service_interval``
cycles; back-to-back requests queue).
"""

from __future__ import annotations

from repro.arch.topology import Topology
from repro.util.errors import ConfigError


class DramController:
    """One memory controller attached to a tile."""

    def __init__(self, tile: int, access_latency: int = 100, service_interval: int = 4) -> None:
        if access_latency <= 0 or service_interval <= 0:
            raise ConfigError("DRAM latencies must be positive")
        self.tile = tile
        self.access_latency = access_latency
        self.service_interval = service_interval
        self._free_at = 0.0
        self.requests = 0

    def service(self, now: float) -> float:
        """Accept a request at ``now``; return its completion time."""
        start = max(now, self._free_at)
        self._free_at = start + self.service_interval
        self.requests += 1
        return start + self.access_latency


class MemorySystem:
    """Set of controllers + nearest-controller routing for misses."""

    def __init__(
        self,
        topology: Topology,
        num_controllers: int = 4,
        access_latency: int = 100,
        service_interval: int = 4,
        hop_latency: int = 2,
    ) -> None:
        if num_controllers <= 0:
            raise ConfigError("need at least one DRAM controller")
        num_controllers = min(num_controllers, topology.num_cores)
        # spread controllers evenly across core ids (edge tiles in a mesh
        # ordering land naturally at id extremes)
        step = topology.num_cores / num_controllers
        tiles = sorted({int(i * step) for i in range(num_controllers)})
        self.controllers = [
            DramController(t, access_latency, service_interval) for t in tiles
        ]
        self.topology = topology
        self.hop_latency = hop_latency
        # nearest controller per tile and the hop count to it,
        # precomputed: a fill pays no topology lookup
        self._nearest: list[DramController] = [
            min(self.controllers, key=lambda c: topology.distance(tile, c.tile))
            for tile in range(topology.num_cores)
        ]
        self._hops: list[int] = [
            topology.distance(tile, ctrl.tile) for tile, ctrl in enumerate(self._nearest)
        ]

    def miss_latency(self, tile: int, now: float) -> float:
        """Total latency for a memory fill issued from ``tile`` at ``now``."""
        wire = self._hops[tile] * self.hop_latency
        done = self._nearest[tile].service(now + wire)
        return (done + wire) - now

    def total_requests(self) -> int:
        return sum(c.requests for c in self.controllers)
