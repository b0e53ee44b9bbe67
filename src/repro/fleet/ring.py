"""Consistent-hash placement of canonical requests on fleet nodes.

Why consistent hashing (and not round-robin): a node's whole speed
advantage is its warm state — the synthesized-trace L1/L2 caches of
its pool workers and the on-disk result cache.  Routing on a stable hash of ``(cpu, workload)`` sends
the same question to the same node every time, so that state keeps
paying; and when a node joins or dies, only ~1/N of the key space
moves (round-robin or modulo hashing would reshuffle nearly all of
it, stampeding every node's caches at once).

The ring is the textbook construction: every node projects
``replicas`` virtual points onto a 64-bit circle (SHA-256 of
``"node\\x1fi"``), a key routes to the first point clockwise of its
own hash.  Everything is a pure function of the member set — two
processes that agree on the node names agree on every placement,
which is what lets a restarted gateway (or a second gateway) route
identically without any coordination.  ``tests/test_fleet_ring.py``
pins both properties: bounded remapping and cross-process agreement.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

#: Virtual points per node.  128 keeps the max/mean load ratio of a
#: small fleet near 1.2 while the ring stays tiny (N*128 ints).
DEFAULT_REPLICAS = 128

#: Field separator of hash material; cannot appear in CPU/workload
#: names, so distinct tuples can never collide into one key string.
_SEP = "\x1f"


def _hash64(material: str) -> int:
    """SHA-256 of *material*, folded to the ring's 64-bit circle."""
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def route_key(cpu: str, workload: str) -> str:
    """The placement key of one canonical request.

    Deliberately **only** ``(cpu, workload)``: strategy, offset and
    seed steer the simulation but share the same synthesized trace and
    CPU model, so co-locating them is exactly what keeps a node's
    caches hot.
    """
    return f"{cpu}{_SEP}{workload}"


class ConsistentHashRing:
    """A consistent-hash ring over named nodes.

    Args:
        nodes: initial member names.
        replicas: virtual points per node (>= 1).
    """

    def __init__(self, nodes: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        """See class docstring."""
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._nodes: Dict[str, List[int]] = {}
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------

    def add(self, node: str) -> None:
        """Add *node*; idempotent."""
        if not node:
            raise ValueError("node name must be non-empty")
        if node in self._nodes:
            return
        points = [_hash64(f"{node}{_SEP}{i}") for i in range(self.replicas)]
        self._nodes[node] = points
        for point in points:
            entry = (point, node)
            index = bisect.bisect_left(self._points, entry)
            self._points.insert(index, entry)
            self._keys.insert(index, point)

    def remove(self, node: str) -> None:
        """Remove *node*; idempotent."""
        if node not in self._nodes:
            return
        del self._nodes[node]
        self._points = [(p, n) for (p, n) in self._points if n != node]
        self._keys = [p for (p, _) in self._points]

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Member names, sorted."""
        return tuple(sorted(self._nodes))

    # -- routing --------------------------------------------------------

    def route(self, key: str) -> Optional[str]:
        """The owning node of *key*, or None on an empty ring."""
        if not self._points:
            return None
        point = _hash64(key)
        index = bisect.bisect_right(self._keys, point)
        if index == len(self._points):
            index = 0  # wrap: first point clockwise of the top
        return self._points[index][1]

    def preference(self, key: str, n: Optional[int] = None) -> List[str]:
        """The first *n* **distinct** nodes clockwise of *key*.

        Element 0 is :meth:`route`'s answer; the rest are the failover
        order the gateway walks when the owner is down.  Every member
        appears exactly once, so with ``n=len(ring)`` this is a
        deterministic permutation of the fleet.
        """
        if not self._points:
            return []
        want = len(self._nodes) if n is None else min(n, len(self._nodes))
        point = _hash64(key)
        start = bisect.bisect_right(self._keys, point)
        ordered: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                ordered.append(node)
                if len(ordered) >= want:
                    break
        return ordered

    def placement(self, keys: Iterable[str]) -> Dict[str, str]:
        """Map each key to its owner (diagnostics / property tests)."""
        return {key: owner for key in keys
                if (owner := self.route(key)) is not None}
