"""Priority-aware load balancing across the row's servers.

The cloud allocator deployed with POLCA "is aware of workload priorities,
and it can make power-oversubscription aware allocation to ensure a good
mix of high and low-priority jobs in every row" (Section 6.3). We model
that by partitioning servers into low- and high-priority pools sized by
the request mix, and routing each request to an idle server of its pool —
falling back to the emptiest buffer ("typical load balanced setup,
reducing the chance of simultaneous capping", Section 6.6) and dropping
the request when every buffer in the pool is full.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.server_sim import ServerSim
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority


class LoadBalancer:
    """Routes requests to servers within their priority pool.

    Routing is indexed: per pool, one bitmask of servers (bit = position
    in the pool) per routing level — one level per occupied-slot count
    below the concurrency, plus one for "every slot busy, buffer free".
    Failed servers and servers with a full buffer are in no mask. Whoever
    changes a server's occupancy, buffer or failed flag must call
    :meth:`sync` for it before the next :meth:`route`; the simulator does
    so at the power refresh that follows every such change.

    Args:
        servers: All servers in the row.
        seed: RNG seed for random choice among equally good servers.
    """

    def __init__(self, servers: Sequence[ServerSim], seed: int = 0) -> None:
        if not servers:
            raise ConfigurationError("load balancer needs at least one server")
        self.servers = servers
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._level: List[int] = [-1] * len(servers)
        self._partition(None)
        for index in range(len(servers)):
            self.sync(index)

    def _partition(self, masks: Optional[List[List[int]]]) -> None:
        """Split the servers into pools and lay out the routing index.

        ``masks`` are the per-pool level masks in ``Priority`` order
        (restored from :meth:`__getstate__`), or ``None`` for empty ones.
        """
        self._pools: Dict[Priority, List[ServerSim]] = {
            priority: [] for priority in Priority
        }
        for server in self.servers:
            self._pools[server.priority].append(server)
        for priority, pool in self._pools.items():
            if not pool:
                raise ConfigurationError(
                    f"no servers allocated to the {priority.value} pool"
                )
        # Per pool: (masks[level] with the buffer level last, the pool).
        self._index: Dict[Priority, Tuple[List[int], List[ServerSim]]] = {
            priority: (
                [0] * (max(s.concurrency for s in pool) + 1)
                if masks is None else masks[position],
                pool,
            )
            for position, (priority, pool) in enumerate(self._pools.items())
        }
        # Per server (by row index): its pool's masks and its bit. The
        # level it is filed under (-1: none) is in ``_level``.
        self._slot: List[Tuple[List[int], int]] = []
        position = {priority: 0 for priority in Priority}
        for server in self.servers:
            self._slot.append((
                self._index[server.priority][0],
                1 << position[server.priority],
            ))
            position[server.priority] += 1

    def __getstate__(self) -> Tuple:
        # The pools and per-server slots follow from the servers; only
        # the routing state travels.
        return (self.servers, self.seed, self._rng, self._level,
                [masks for masks, _ in self._index.values()])

    def __setstate__(self, state: Tuple) -> None:
        self.servers, self.seed, self._rng, self._level, masks = state
        self._partition(masks)

    def pool(self, priority: Priority) -> List[ServerSim]:
        """The servers allocated to one priority tier."""
        return self._pools[priority]

    def sync(self, index: int) -> None:
        """Re-file ``servers[index]`` after its state may have changed."""
        server = self.servers[index]
        masks, bit = self._slot[index]
        if server.failed:
            level = -1
        else:
            level = len(server.slots)
            if level >= server.concurrency:
                level = -1 if server.buffered is not None else len(masks) - 1
        old = self._level[index]
        if level != old:
            if old >= 0:
                masks[old] &= ~bit
            if level >= 0:
                masks[level] |= bit
            self._level[index] = level

    def route(self, priority: Priority) -> Optional[ServerSim]:
        """Pick a server for a request of the given priority.

        Least-loaded routing: a random server among those with the fewest
        occupied slots; when every slot in the pool is busy, a random
        server with a free one-request buffer; else ``None`` (the request
        is dropped — this is what dents low-priority throughput under
        capping in Figure 14). Failed servers are never candidates: a
        request handed to a dead server would vanish from the
        served/dropped accounting.

        The first non-empty level holds exactly that rule's candidates,
        in pool order; the choice among them is one draw of
        ``rng.integers(count)``.
        """
        masks, pool = self._index[priority]
        for mask in masks:
            if mask:
                pick = int(self._rng.integers(mask.bit_count()))
                for _ in range(pick):
                    mask &= mask - 1
                return pool[(mask & -mask).bit_length() - 1]
        return None


def split_servers(
    server_ids: Sequence[str],
    low_priority_fraction: float = 0.5,
) -> Dict[str, Priority]:
    """Assign servers to priority pools in an interleaved pattern.

    Interleaving (rather than contiguous blocks) models the allocator
    spreading priorities across racks. ``low_priority_fraction`` is the
    Figure 15b sweep knob.

    Raises:
        ConfigurationError: If the fraction would leave a pool empty.
    """
    n = len(server_ids)
    n_low = int(round(n * low_priority_fraction))
    if n_low <= 0 or n_low >= n:
        raise ConfigurationError(
            f"low_priority_fraction {low_priority_fraction} leaves an empty "
            f"pool for {n} servers"
        )
    assignment: Dict[str, Priority] = {}
    # Distribute LP slots as evenly as possible across the ordered list.
    stride = n / n_low
    low_indices = {int(i * stride) for i in range(n_low)}
    cursor = 0
    for index, server_id in enumerate(server_ids):
        if index in low_indices and cursor < n_low:
            assignment[server_id] = Priority.LOW
            cursor += 1
        else:
            assignment[server_id] = Priority.HIGH
    # Exact count correction (set arithmetic may collide).
    actual_low = sum(1 for p in assignment.values() if p is Priority.LOW)
    if actual_low < n_low:
        for server_id in server_ids:
            if actual_low == n_low:
                break
            if assignment[server_id] is Priority.HIGH:
                assignment[server_id] = Priority.LOW
                actual_low += 1
    return assignment
