"""Replication wrapper: k-way replica placement over any substrate.

The churn experiment (E14) shows that with single-replica storage a
crashing peer takes its leaf buckets with it.  Real deployments (e.g.
OpenDHT, which the paper's Bamboo testbed powers) replicate each value
on several peers.  This wrapper adds that behaviour above any
:class:`~repro.dht.base.DHT` — but *where* the copies live is decided
by a :class:`~repro.dht.kernel.PlacementPolicy`, resolved through the
substrate registry: successors on Chord/Koorde, the leaf set on Pastry,
zone neighbors on CAN, XOR-closest ids on Kademlia/Tapestry, a table
slice on OneHop.  Topology-aware placement is what makes failover
*work*: the backup holders are exactly the peers post-crash routing
converges on, and a degraded read can probe them directly
(:meth:`ReplicatedDHT.failover_get`) instead of reporting UNREACHABLE.

Overlays without kernel peer access fall back to the original salted
aliasing (:class:`~repro.dht.placement.HashSaltPolicy`): replica ``i``
is a routed put/get of ``key##r{i}``, hashing to an arbitrary peer.

Cost accounting is honest either way: a put writes every replica
(``k`` routed operations, so put amplification is visible), a get
probes copies in order until one answers, and every failover probe is
charged as a normal routed get plus a ``replica_probe_gets`` tick.
With ``n_replicas=1`` the wrapper is a pure pass-through — the policy
is never consulted and the operation stream is byte-identical to the
unwrapped substrate.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.dht.base import DHT
from repro.dht.kernel import DelegatingDHT, PlacementPolicy, stack_layers
from repro.dht.placement import HashSaltPolicy
from repro.errors import ConfigurationError

__all__ = ["ReplicatedDHT", "replica_layer"]


def replica_layer(dht: DHT) -> "ReplicatedDHT | None":
    """The replication layer inside a wrapper stack, if failover exists.

    Walks the stack outside-in and returns the first
    :class:`ReplicatedDHT` carrying more than one replica — the layer
    whose :meth:`~ReplicatedDHT.failover_get` a degraded read can
    consult — or ``None`` when the stack has no replicas to offer
    (including ``n_replicas=1``, where failover could only repeat the
    primary read).
    """
    for layer in stack_layers(dht):
        if isinstance(layer, ReplicatedDHT) and layer.n_replicas > 1:
            return layer
    return None


class ReplicatedDHT(DelegatingDHT):
    """Store each value on ``n_replicas`` peers chosen by a placement
    policy.

    The primary copy always lives where the unwrapped substrate routes
    the key (replica 0 *is* the normal put), so with ``n_replicas=1``
    the wrapper changes nothing.  Backup copies go to the policy's
    peers via the kernel's direct peer access — or, under
    :class:`~repro.dht.placement.HashSaltPolicy`, to wherever the
    salted aliases ``key##r{i}`` hash.
    """

    def __init__(
        self,
        inner: DHT,
        n_replicas: int = 3,
        policy: PlacementPolicy | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ConfigurationError(f"n_replicas must be >= 1: {n_replicas}")
        super().__init__(inner)
        self.n_replicas = n_replicas
        if policy is None:
            # Function-level import: the registry imports placement
            # policies for its default enrollments, so importing it at
            # module top would cycle.
            from repro.dht.registry import placement_for

            policy = placement_for(inner)
        elif not hasattr(policy, "substrate"):
            *_, base = stack_layers(inner)
            policy.bind(base)
        self.policy = policy
        self._salted = isinstance(policy, HashSaltPolicy)

    def _copies(self, key: str) -> list[tuple[str, int | None]]:
        """Every copy of ``key``, primary first, as ``(dht key, holder)``.

        A ``None`` holder means a routed op on a salted alias; a peer id
        means a direct kernel op at that placement holder.  Every op
        returns through its plain pass-through at k=1 before calling
        this, so the placement policy is never consulted there.
        """
        if self._salted:
            return [(key, None)] + [
                (HashSaltPolicy.salted(key, i), None)
                for i in range(1, self.n_replicas)
            ]
        return [(key, peer) for peer in self.replica_peers(key)]

    def _probe(self, key: str, holder: int | None) -> Any | None:
        """Read one copy, charged as a replica probe."""
        self.metrics.record_replica_probe_get()
        if holder is None:
            return self.inner.get(key)
        return self.inner.probe_get(key, holder)

    # ------------------------------------------------------------------
    # DHT interface (the primary is always the plain routed op)
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self.inner.put(key, value)
        if self.n_replicas == 1:
            return
        for alias, holder in self._copies(key)[1:]:
            if holder is None:
                self.inner.put(alias, value)
            else:
                self.inner.put_at(alias, value, holder)

    def get(self, key: str) -> Any | None:
        value = self.inner.get(key)
        if value is not None or self.n_replicas == 1:
            return value
        # The primary read came back empty — a dropped reply or a key
        # that simply is not stored; only the replicas can tell.
        for alias, holder in self._copies(key)[1:]:
            value = self._probe(alias, holder)
            if value is not None:
                self.metrics.record_replica_failover()
                return value
        return None

    def remove(self, key: str) -> Any | None:
        primary = self.inner.remove(key)
        if self.n_replicas == 1:
            return primary
        removed = [primary] + [
            self.inner.remove(alias)
            if holder is None
            else self.inner.remove_at(alias, holder)
            for alias, holder in self._copies(key)[1:]
        ]
        present = [value for value in removed if value is not None]
        if present and any(value != present[0] for value in present[1:]):
            # Divergent replicas: surface the drift instead of silently
            # answering with whichever copy happened to come back first.
            self.metrics.record_replica_divergence()
        if primary is not None:
            return primary  # the primary copy is authoritative
        return present[0] if present else None

    def local_write(self, key: str, value: Any) -> None:
        if self.n_replicas == 1:
            self.inner.local_write(key, value)
            return
        # Every holder — owner included — rewrites its own copy;
        # addressing them explicitly keeps replicas from shadowing the
        # owner in the kernel's holder scan.
        for alias, holder in self._copies(key):
            if holder is None:
                self.inner.local_write(alias, value)
            else:
                self.inner.local_write_at(alias, value, holder)

    # ------------------------------------------------------------------
    # Degraded-read failover (consulted by repro.core before declaring
    # a query UNREACHABLE; see docs/resilience.md)
    # ------------------------------------------------------------------

    def failover_get(self, key: str) -> Any | None:
        """Probe every replica holder of ``key`` directly.

        The degraded-read escape hatch: when the routed path has
        already failed, this asks each holder — primary included, since
        a direct probe is a different channel than the failed routed
        lookup — for its copy.  Every probe is charged as a routed get
        plus a ``replica_probe_gets`` tick; the *caller* records the
        failover once the rescued value actually rescues its query.
        Returns ``None`` when no live holder has the key.
        """
        if self.n_replicas == 1:
            return None
        for alias, holder in self._copies(key):
            value = self._probe(alias, holder)
            if value is not None:
                return value
        return None

    # ------------------------------------------------------------------
    # Introspection (delegates; replica copies are deduplicated)
    # ------------------------------------------------------------------

    def peek(self, key: str) -> Any | None:
        if not self._salted:
            return self.inner.peek(key)  # placement copies share the key
        for alias, _ in self._copies(key):
            value = self.inner.peek(alias)
            if value is not None:
                return value
        return None

    def keys(self) -> Iterable[str]:
        # Placement-mode replicas repeat the key at several peers;
        # salted-mode replicas append ``##r{i}``.  Both collapse here.
        seen: set[str] = set()
        for key in self.inner.keys():
            base = key.split("##r")[0]
            if base not in seen:
                seen.add(base)
                yield base

    def replica_peers(self, key: str) -> list[int]:
        """Peers holding each replica of ``key``, owner first."""
        owner = self.inner.peer_of(key)
        return self.policy.replicas_for(key, owner, self.n_replicas)
