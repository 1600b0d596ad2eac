"""Tests for the Kademlia and Pastry substrates."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.hashing import hash_key
from repro.dht.kademlia import KademliaDHT
from repro.dht.pastry import PastryDHT
from repro.errors import ConfigurationError


class FullSortKademlia:
    """Reference Kademlia routing by brute force, kept as an oracle.

    Buckets fill by scanning every other id in ascending order; FIND_NODE
    sorts all of a node's contacts plus itself; the iterative lookup
    keeps every contact it learns and re-sorts the whole union after
    each message; the owner is the minimum XOR distance over all ids.
    """

    def __init__(self, dht: KademliaDHT) -> None:
        self.k = dht.k
        self.alpha = dht.alpha
        self.max_rounds = dht.MAX_ROUNDS
        self.ids = sorted(dht.node_ids)
        self.buckets: dict[int, list[list[int]]] = {}
        for node_id in self.ids:
            buckets: list[list[int]] = [[] for _ in range(dht.id_bits)]
            for other in self.ids:
                if other == node_id:
                    continue
                idx = (node_id ^ other).bit_length() - 1
                if len(buckets[idx]) < self.k:
                    buckets[idx].append(other)
            self.buckets[node_id] = buckets

    def closest_contacts(self, node_id: int, target: int) -> list[int]:
        candidates = [c for bucket in self.buckets[node_id] for c in bucket]
        candidates.append(node_id)
        candidates.sort(key=lambda c: c ^ target)
        return candidates[: self.k]

    def iterative_find(self, start: int, target: int) -> tuple[int, int]:
        queried: set[int] = set()
        shortlist = sorted(
            self.closest_contacts(start, target), key=lambda c: c ^ target
        )
        messages = 0
        for _ in range(self.max_rounds):
            pending = [c for c in shortlist[: self.k] if c not in queried]
            if not pending:
                break
            best_before = shortlist[0] ^ target
            for contact in pending[: self.alpha]:
                queried.add(contact)
                messages += 1
                learned = self.closest_contacts(contact, target)
                shortlist = sorted(
                    set(shortlist) | set(learned), key=lambda c: c ^ target
                )
            if shortlist[0] ^ target == best_before and all(
                c in queried for c in shortlist[: self.k]
            ):
                break
        else:
            raise AssertionError(f"reference lookup did not converge on {target}")
        return shortlist[0], max(messages, 1)

    def owner(self, target: int) -> int:
        return min(self.ids, key=lambda nid: nid ^ target)


class TestKademlia:
    @given(
        n_peers=st.integers(1, 300),
        id_bits=st.sampled_from([8, 16, 32]),
        k=st.integers(1, 20),
        alpha=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        key_ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
    )
    def test_matches_full_sort_reference(
        self, n_peers, id_bits, k, alpha, seed, key_ids
    ):
        n_peers = min(n_peers, 1 << id_bits)
        dht = KademliaDHT(
            n_peers=n_peers, seed=seed, id_bits=id_bits, k=k, alpha=alpha
        )
        ref = FullSortKademlia(dht)
        for node_id in ref.ids:
            node = dht._nodes[node_id]
            expected = {j: b for j, b in enumerate(ref.buckets[node_id]) if b}
            assert node.buckets == expected
            assert list(node.buckets) == sorted(node.buckets, reverse=True)
        starts = ref.ids[:: max(1, len(ref.ids) // 16)]
        for key_id in key_ids:
            key = f"key{key_id}"
            target = hash_key(key, id_bits)
            assert dht.peer_of(key) == ref.owner(target)
            for start in starts:
                assert dht._node_closest_contacts(
                    start, target
                ) == ref.closest_contacts(start, target)
                assert dht.iterative_find(start, target) == ref.iterative_find(
                    start, target
                )

    def test_bucket_index_is_highest_differing_bit(self):
        dht = KademliaDHT(n_peers=64, seed=0, id_bits=16)
        for node_id, node in dht._nodes.items():
            for j, bucket in node.buckets.items():
                assert bucket
                assert all((node_id ^ c).bit_length() - 1 == j for c in bucket)

    def test_iterative_find_reaches_global_closest(self):
        dht = KademliaDHT(n_peers=60, seed=1)
        for i in range(200):
            target = hash_key(f"t{i}", dht.id_bits)
            start = dht.peer_of(f"s{i}")
            found, messages = dht.iterative_find(start, target)
            assert found == min(dht._nodes, key=lambda n: n ^ target)
            assert messages >= 1

    def test_put_get_remove(self):
        dht = KademliaDHT(n_peers=30, seed=0)
        dht.put("a", "x")
        assert dht.get("a") == "x"
        assert dht.get("nope") is None
        assert dht.remove("a") == "x"

    def test_owner_matches_placement_oracle(self):
        dht = KademliaDHT(n_peers=40, seed=2)
        for i in range(100):
            owner, _ = dht.route(f"k{i}")
            assert owner == dht.peer_of(f"k{i}")

    def test_messages_scale_logarithmically(self):
        dht = KademliaDHT(n_peers=256, seed=3)
        total = 0
        for i in range(100):
            _, messages = dht.route(f"k{i}")
            total += messages
        assert total / 100 <= 4 * math.log2(256)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            KademliaDHT(n_peers=0)
        with pytest.raises(ConfigurationError):
            KademliaDHT(n_peers=4, k=0)

    def test_single_node(self):
        dht = KademliaDHT(n_peers=1, seed=0)
        dht.put("a", 1)
        assert dht.get("a") == 1


class TestPastry:
    def test_digits(self):
        dht = PastryDHT(n_peers=4, seed=0, id_bits=16, b=4)
        assert dht._digit(0xABCD, 0) == 0xA
        assert dht._digit(0xABCD, 3) == 0xD

    def test_shared_prefix_len(self):
        dht = PastryDHT(n_peers=4, seed=0, id_bits=16, b=4)
        assert dht.shared_prefix_len(0xAB00, 0xABFF) == 2
        assert dht.shared_prefix_len(0x1234, 0x1234) == 4
        assert dht.shared_prefix_len(0xF000, 0x0000) == 0

    def test_route_reaches_numerically_closest(self):
        dht = PastryDHT(n_peers=60, seed=1)
        for i in range(200):
            key = f"k{i}"
            owner, _ = dht.route(key)
            assert owner == dht.peer_of(key)

    def test_put_get_remove(self):
        dht = PastryDHT(n_peers=30, seed=0)
        dht.put("a", "x")
        assert dht.get("a") == "x"
        assert dht.remove("a") == "x"
        assert dht.get("a") is None

    def test_hops_logarithmic(self):
        dht = PastryDHT(n_peers=256, seed=2)
        total = 0
        for i in range(100):
            _, hops = dht.route(f"k{i}")
            total += hops
        # Pastry: O(log_16 N) ≈ 2 for 256 nodes; be generous.
        assert total / 100 <= 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PastryDHT(n_peers=0)
        with pytest.raises(ConfigurationError):
            PastryDHT(n_peers=4, id_bits=30, b=4)  # not a multiple

    def test_single_node(self):
        dht = PastryDHT(n_peers=1, seed=0)
        dht.put("a", 1)
        assert dht.get("a") == 1
