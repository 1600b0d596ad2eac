"""The sorted bulk-build fast path (repro.core.bulkbuild).

Contract under test: ``bulk_load(items, fast=True)`` leaves the DHT in
exactly the state the incremental algorithm produces for the *sorted*
input — byte-identical leaf buckets under the same keys — while issuing
exactly one routed put per final leaf and moving zero records.  Query
answers therefore match the incremental build for any insertion order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pht import PHTIndex
from repro.core import serialize
from repro.core.config import IndexConfig
from repro.core.index import LHTIndex
from repro.dht.local import LocalDHT
from repro.experiments.common import SUBSTRATES


def _lht_state(dht) -> dict[str, bytes]:
    """DHT key -> canonical bucket bytes (the byte-identity fingerprint)."""
    return {key: serialize.dumps(dht.peek(key)) for key in dht.keys()}


def _pht_state(dht) -> dict[str, tuple]:
    out = {}
    for key in dht.keys():
        node = dht.peek(key)
        out[key] = (
            node.label.bits,
            node.is_leaf,
            tuple((r.key, r.value) for r in node.records),
            None if node.prev_label is None else node.prev_label.bits,
            None if node.next_label is None else node.next_label.bits,
        )
    return out


def _pair(theta: int = 8, depth: int = 12, scheme: str = "lht"):
    """Two identical index/DHT stacks, one per build path."""
    cls = LHTIndex if scheme == "lht" else PHTIndex
    config = IndexConfig(theta_split=theta, max_depth=depth)
    fast = cls(LocalDHT(n_peers=16, seed=3), config)
    slow = cls(LocalDHT(n_peers=16, seed=3), config)
    return fast, slow


keys_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32),
    max_size=120,
)


class TestLHTEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(keys=keys_lists)
    def test_fast_matches_incremental_on_sorted_input(self, keys):
        fast, slow = _pair()
        fast.bulk_load(list(keys), fast=True)
        slow.bulk_load(sorted(keys))
        assert _lht_state(fast.dht) == _lht_state(slow.dht)
        assert fast.leaf_count == slow.leaf_count
        assert fast.record_count == slow.record_count

    @settings(max_examples=40, deadline=None)
    @given(keys=keys_lists)
    def test_query_answers_match_any_insertion_order(self, keys):
        fast, slow = _pair()
        fast.bulk_load(list(keys), fast=True)
        slow.bulk_load(list(keys))  # unsorted incremental
        for key in keys:
            frec, _ = fast.exact_match(key)
            srec, _ = slow.exact_match(key)
            assert frec is not None and srec is not None
            assert frec.key == srec.key
        fr = fast.range_query(0.2, 0.8)
        sr = slow.range_query(0.2, 0.8)
        assert [r.key for r in fr.records] == [r.key for r in sr.records]

    def test_layered_loads_compose(self):
        """A fast load on top of an already-built index must equal the
        incremental replay of the same sorted batch."""
        rng = np.random.default_rng(7)
        first = [float(k) for k in rng.random(200)]
        second = [float(k) for k in rng.random(200)]
        fast, slow = _pair(theta=16, depth=16)
        fast.bulk_load(first)
        slow.bulk_load(first)
        fast.bulk_load(second, fast=True)
        slow.bulk_load(sorted(second))
        assert _lht_state(fast.dht) == _lht_state(slow.dht)

    def test_empty_load_is_free(self):
        fast, _ = _pair()
        before = fast.dht.metrics.snapshot()
        assert fast.bulk_load([], fast=True) == 0
        spent = fast.dht.metrics.snapshot() - before
        assert spent.puts == 0


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
class TestSubstrateIndependence:
    def test_one_put_per_leaf_zero_moves(self, substrate):
        rng = np.random.default_rng(11)
        keys = [float(k) for k in rng.random(600)]
        config = IndexConfig(theta_split=24, max_depth=16)
        fast = LHTIndex(SUBSTRATES[substrate](16, 5), config)
        slow = LHTIndex(SUBSTRATES[substrate](16, 5), config)

        before = fast.dht.metrics.snapshot()
        fast.bulk_load(keys, fast=True)
        spent = fast.dht.metrics.snapshot() - before
        assert spent.puts == fast.leaf_count
        assert spent.records_moved == 0

        slow.bulk_load(sorted(keys))
        assert _lht_state(fast.dht) == _lht_state(slow.dht)


class TestPHTEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(keys=keys_lists)
    def test_fast_matches_incremental_on_sorted_input(self, keys):
        fast, slow = _pair(scheme="pht")
        fast.bulk_load(list(keys), fast=True)
        slow.bulk_load(sorted(keys))
        assert _pht_state(fast.dht) == _pht_state(slow.dht)

    def test_leaf_chain_links_survive_fast_build(self):
        rng = np.random.default_rng(13)
        keys = [float(k) for k in rng.random(400)]
        fast, slow = _pair(theta=16, depth=16, scheme="pht")
        fast.bulk_load(keys, fast=True)
        slow.bulk_load(sorted(keys))
        assert _pht_state(fast.dht) == _pht_state(slow.dht)
        # The chain must answer range queries identically.
        fr = fast.range_query_sequential(0.1, 0.6)
        sr = slow.range_query_sequential(0.1, 0.6)
        assert [r.key for r in fr.records] == [r.key for r in sr.records]


# ----------------------------------------------------------------------
# Branches of the sorted replay, each against ``bulk_load(sorted(items))``
# ----------------------------------------------------------------------

#: A small key pool, so equal keys (and their payload order) recur.
pooled_keys = st.lists(
    st.sampled_from([0.0, 0.0625, 0.125, 0.3, 0.5, 0.5000001, 0.74, 0.75, 0.9]),
    max_size=80,
)


def _tagged(keys, start: int = 0) -> list[tuple[float, int]]:
    """``(key, position)`` items.  Payloads rise with input position, so
    ``sorted(items)`` is the stable key sort the fast path uses, and any
    reordering of equal keys shows up in the bucket bytes."""
    return [(key, start + i) for i, key in enumerate(keys)]


@pytest.mark.parametrize("scheme", ["lht", "pht"])
class TestReplayBranches:
    @staticmethod
    def _state(index):
        return (_lht_state if isinstance(index, LHTIndex) else _pht_state)(index.dht)

    @settings(max_examples=40, deadline=None)
    @given(keys=pooled_keys)
    def test_equal_keys_keep_payload_order(self, scheme, keys):
        fast, slow = _pair(theta=4, depth=8, scheme=scheme)
        items = _tagged(keys)
        assert fast.bulk_load(list(items), fast=True) == len(items)
        slow.bulk_load(sorted(items))
        assert self._state(fast) == self._state(slow)
        assert fast.record_count == slow.record_count

    @settings(max_examples=40, deadline=None)
    @given(first=pooled_keys, second=pooled_keys, third=keys_lists)
    def test_layered_loads_merge_into_existing_leaves(
        self, scheme, first, second, third
    ):
        """Later batches land in leaves that already hold larger (and
        equal) keys, so the replay must merge, not append."""
        fast, slow = _pair(theta=5, depth=10, scheme=scheme)
        batches = [_tagged(first), _tagged(second, 1000), _tagged(third, 2000)]
        fast.bulk_load(batches[0])
        slow.bulk_load(batches[0])
        for batch in batches[1:]:
            fast.bulk_load(list(batch), fast=True)
            slow.bulk_load(sorted(batch))
            assert self._state(fast) == self._state(slow)
        assert fast.record_count == slow.record_count

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(
            st.floats(min_value=0.0, max_value=0.125, exclude_max=True),
            max_size=120,
        )
    )
    def test_depth_cap_leaves_overfill_without_splitting(self, scheme, keys):
        fast, slow = _pair(theta=4, depth=3, scheme=scheme)
        items = _tagged(keys)
        fast.bulk_load(list(items), fast=True)
        slow.bulk_load(sorted(items))
        assert self._state(fast) == self._state(slow)

    @settings(max_examples=15, deadline=None)
    @given(
        steps=st.lists(
            st.integers(min_value=0, max_value=1 << 12),
            min_size=70,
            max_size=100,
            unique=True,
        )
    )
    def test_split_bounds_deeper_than_52_levels(self, scheme, steps):
        """Distinct keys a few units of 2**-62 apart drive splits below
        level 52, where a midpoint bound is an exact Fraction, not a float."""
        keys = [step * 2.0**-62 for step in steps]
        fast, slow = _pair(theta=3, depth=64, scheme=scheme)
        items = _tagged(keys)
        fast.bulk_load(list(items), fast=True)
        slow.bulk_load(sorted(items))
        assert self._state(fast) == self._state(slow)
        assert max(len(bits) for bits in fast._leaf_bits) > 53

    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(
            st.sampled_from([0.1, 0.3, 0.5 + 2.0**-53, 1.0 - 2.0**-53]),
            min_size=60,
            max_size=160,
        )
    )
    def test_duplicate_keys_split_below_float_resolution(self, scheme, keys):
        """Copies of one full-mantissa key keep splitting their leaf until
        its width is below the key's ulp; there a float midpoint would
        round onto the key and send it to the wrong child."""
        fast, slow = _pair(theta=3, depth=64, scheme=scheme)
        items = _tagged(keys)
        fast.bulk_load(list(items), fast=True)
        slow.bulk_load(sorted(items))
        assert self._state(fast) == self._state(slow)
