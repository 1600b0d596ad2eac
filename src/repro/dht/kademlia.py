"""Kademlia DHT substrate (Maymounkov & Mazières, IPTPS 2002).

XOR-metric routing with per-node k-buckets and the iterative
``FIND_NODE`` procedure: each lookup keeps a shortlist of the ``k``
closest known contacts and queries the ``α`` closest not-yet-queried ones
per round until the closest node stops improving.

Keys live on the single node whose identifier is XOR-closest to
``hash(key)`` (replication factor 1 — the index layers treat the DHT as a
non-replicated put/get store, as the paper does; replication is an
orthogonal substrate concern).

The overlay is built statically from the global membership (each node's
buckets are populated with up to ``k`` contacts per distance range),
which models a converged network — the regime in which the paper
measures.  Hop accounting counts every ``FIND_NODE`` message of the
iterative lookup, Kademlia's natural bandwidth unit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dht.hashing import hash_key
from repro.dht.kernel import SubstrateBase
from repro.dht.metrics import MetricsRecorder
from repro.errors import ConfigurationError, RoutingError

__all__ = ["KademliaDHT", "KademliaNode"]


@dataclass(slots=True)
class KademliaNode:
    """One Kademlia peer: identifier, k-buckets, and key store.

    ``buckets`` maps a bucket index (the highest bit in which a contact's
    id differs from this node's) to the contacts in that distance range.
    Only non-empty buckets are kept, highest index first.
    """

    id: int
    buckets: dict[int, list[int]] = field(default_factory=dict)
    store: dict[str, Any] = field(default_factory=dict)


class KademliaDHT(SubstrateBase):
    """A simulated Kademlia overlay implementing the generic DHT interface."""

    MAX_ROUNDS = 64

    def __init__(
        self,
        n_peers: int = 64,
        seed: int = 0,
        id_bits: int = 32,
        k: int = 8,
        alpha: int = 3,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        super().__init__(metrics)
        if n_peers < 1:
            raise ConfigurationError(f"n_peers must be >= 1: {n_peers}")
        if k < 1 or alpha < 1:
            raise ConfigurationError(f"k and alpha must be >= 1: k={k}, alpha={alpha}")
        self.id_bits = id_bits
        self.k = k
        self.alpha = alpha
        self._rng = np.random.default_rng(seed)
        ids: set[int] = set()
        while len(ids) < n_peers:
            ids.add(int(self._rng.integers(0, 1 << id_bits)))
        self._nodes: dict[int, KademliaNode] = {}
        for nid in ids:
            node = KademliaNode(id=nid)
            self._nodes[nid] = node
            self.peers.add_peer(nid, node.store)
        self._build_buckets()

    # ------------------------------------------------------------------
    # Static overlay construction
    # ------------------------------------------------------------------

    def _build_buckets(self) -> None:
        # Bucket j of node x holds ids sharing x's bits above j and
        # differing at bit j: one contiguous run of the sorted ids,
        # starting at ((x >> j) ^ 1) << j and 2^j wide.  A bucket keeps
        # the first k ids of its run, smallest first.
        all_ids = self.peers.sorted_ids()
        n, k = len(all_ids), self.k
        for node in self._nodes.values():
            buckets: dict[int, list[int]] = {}
            for j in reversed(range(self.id_bits)):
                lo = ((node.id >> j) ^ 1) << j
                start = bisect.bisect_left(all_ids, lo)
                stop = bisect.bisect_left(
                    all_ids, lo + (1 << j), start, min(start + k, n)
                )
                if stop > start:
                    buckets[j] = all_ids[start:stop]
            node.buckets = buckets

    # ------------------------------------------------------------------
    # Iterative lookup
    # ------------------------------------------------------------------

    def _node_closest_contacts(self, node_id: int, target: int) -> list[int]:
        """A node's answer to FIND_NODE: its k known contacts closest to
        ``target`` (itself included, as real implementations do).

        With ``d = node_id ^ target``, a contact in bucket ``j`` keeps
        ``d``'s bits above ``j`` and flips bit ``j``.  So each bucket is
        its own distance range, and the ranges order as: buckets where
        ``d`` has bit ``j`` set, highest ``j`` first (all closer than
        the node); the node itself; the other buckets, lowest ``j``
        first.  Walking them in that order, sorting inside each bucket,
        yields the k closest without sorting all contacts.
        """
        node = self._nodes[node_id]
        d = node_id ^ target
        k = self.k
        distance = target.__xor__
        found: list[int] = []
        for j, bucket in node.buckets.items():
            if d >> j & 1:
                found += sorted(bucket, key=distance)
                if len(found) >= k:
                    return found[:k]
        found.append(node_id)
        for j, bucket in reversed(node.buckets.items()):
            if len(found) >= k:
                break
            if not d >> j & 1:
                found += sorted(bucket, key=distance)
        return found[:k]

    def iterative_find(self, start: int, target: int) -> tuple[int, int]:
        """Locate the globally XOR-closest node to ``target``.

        Returns ``(closest_node_id, messages_sent)``.

        The shortlist holds the k closest contacts learned so far.
        Distances are fixed and the learned set only grows, so a contact
        that falls out of the k closest never returns: truncating after
        each merge leaves the same k as keeping every contact.
        """
        k = self.k
        distance = target.__xor__
        queried: set[int] = set()
        shortlist = self._node_closest_contacts(start, target)
        messages = 0
        for _ in range(self.MAX_ROUNDS):
            pending = [c for c in shortlist if c not in queried]
            if not pending:
                break
            best_before = shortlist[0]
            for contact in pending[: self.alpha]:
                queried.add(contact)
                messages += 1
                learned = self._node_closest_contacts(contact, target)
                shortlist = sorted({*shortlist, *learned}, key=distance)[:k]
            if shortlist[0] == best_before and queried.issuperset(shortlist):
                break
        else:
            raise RoutingError(f"Kademlia lookup did not converge on {target}")
        return shortlist[0], max(messages, 1)

    def route(self, key: str) -> tuple[int, int]:
        target = hash_key(key, self.id_bits)
        ids = self.peers.sorted_ids()
        start = ids[int(self._rng.integers(0, len(ids)))]
        return self.iterative_find(start, target)

    # ------------------------------------------------------------------
    # Placement oracle
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> int:
        # Descend the binary trie of the sorted ids: at each bit keep
        # the half that matches the target's bit when it is non-empty.
        target = hash_key(key, self.id_bits)
        ids = self.peers.sorted_ids()
        lo, hi = 0, len(ids)
        prefix = 0
        bit = self.id_bits
        while hi - lo > 1:
            bit -= 1
            one = prefix | (1 << bit)
            mid = bisect.bisect_left(ids, one, lo, hi)
            if (target >> bit & 1 and mid < hi) or mid == lo:
                lo, prefix = mid, one
            else:
                hi = mid
        return ids[lo]
