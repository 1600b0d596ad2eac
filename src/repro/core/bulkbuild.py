"""Sorted bulk-build planning: the client-side fast path (§5, Theorem 2).

Incremental ``bulk_load`` pushes records one at a time through the split
path, so building an index re-moves about half a bucket on every split
— exactly the maintenance cost the paper prices in Theorem 2.  For an
*initial load* none of that traffic is necessary: the client can sort
the input once, replay the split schedule entirely in memory, and ship
each final bucket with a single routed put.

One subtlety keeps this honest.  The final partition is *almost* a
function of the key set alone, but not quite: a node created by a split
inherits ``c₀`` records, and it splits on the first arrival once it
holds ``max(c₀ + 1, θ) `` slots — so in the corner where all ``θ`` slots
of a parent land in one child (``c₀ = θ``) and no later key ever arrives
there, insertion *order* decides whether that child has split yet.  The
fast path therefore canonicalizes: it sorts the input and replays the
incremental algorithm's exact placement rules in sorted order.  The
contract, enforced by ``tests/test_bulkbuild.py``, is

    ``fast(items)  ≡  incremental(sorted(items))``   (byte-identical state)

and query answers are identical to *any* insertion order, because every
order yields a valid partition holding the same record multiset.

The planner is shared by :class:`repro.core.index.LHTIndex` and the PHT
baseline: both schemes split a full leaf at the midpoint of its dyadic
interval and never cascade (at most one split per insertion, children
may be left overfull), so the replay recurrence is identical — only the
commit step (which DHT keys receive the final buckets) differs.

Deterministic-core rules apply (``repro.devtools.lint`` LHT001/LHT002):
this module touches no wall clock and no randomness.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping

from repro.core.bucket import RECORD_KEY, LeafBucket, Record
from repro.core.config import IndexConfig
from repro.core.keys import key_bits
from repro.core.label import Label
from repro.core.naming import naming
from repro.errors import LookupError_

__all__ = ["BulkPlan", "leaf_put_items", "normalize_items", "plan_bulk_load"]


def normalize_items(
    items: Iterable[float | tuple[float, Any]],
) -> list[Record]:
    """Materialize bulk-load input as records sorted ascending by key.

    The sort is stable, so records with equal keys keep their input
    order — the same relative order ``bisect.insort`` preserves when the
    incremental path appends an equal key after its duplicates.
    """
    # One Record per key is most of a fast build's time.  Building them
    # in input order and then sorting beats sorting the keys first:
    # records built in key order point at floats scattered in memory,
    # and every later collector pass over the records pays for that.
    records = [
        Record(*item) if isinstance(item, tuple) else Record(item)
        for item in items
    ]
    # Record orders by key alone (payload excluded); sorting on the raw
    # float key is the same stable order without a ``(key,)`` tuple
    # built per comparison.
    records.sort(key=RECORD_KEY)
    return records


@dataclass(slots=True)
class BulkPlan:
    """The final partition a sorted replay produces.

    Attributes:
        leaves: Final leaf partition — bits string to its sorted records.
        changed: Leaves that differ from the pre-load state (new labels,
            or pre-existing leaves that absorbed records); each needs
            exactly one put.  Untouched pre-existing leaves are absent.
        split_bits: Leaves consumed by replay splits, in split order —
            the nodes that just became internal.
        inserted: Number of records placed.
    """

    leaves: dict[str, list[Record]]
    changed: set[str]
    split_bits: tuple[str, ...]
    inserted: int


def _dyadic(num: int, level: int) -> float | Fraction:
    """The dyadic point ``num / 2**level``, exactly.

    Below level 53 the numerator fits a float's mantissa, so the float
    quotient is exact and bisections compare float-to-float; deeper
    trees fall back to exact Fractions.
    """
    return num / (1 << level) if level <= 52 else Fraction(num, 1 << level)


def _absorb(store: list[Record], run: list[Record]) -> None:
    """Add an ascending run to a sorted store exactly as inserting its
    records one by one with ``bisect.insort`` would: after every stored
    record with an equal key."""
    merge = bool(store) and store[-1].key > run[0].key
    store += run
    if merge:
        # Two sorted runs: the stable sort merges them in one linear
        # pass and keeps stored records first among equal keys.
        store.sort(key=RECORD_KEY)


def plan_bulk_load(
    existing: Mapping[str, list[Record]],
    records: list[Record],
    config: IndexConfig,
) -> BulkPlan:
    """Replay sorted insertion client-side and return the final partition.

    Args:
        existing: Current leaf partition (bits -> record list).  The
            lists are consumed as working state — pass copies, never the
            live bucket stores.
        records: New records, pre-sorted by :func:`normalize_items`.
        config: Supplies ``θ_split`` and the depth cap ``D``.

    The placement rules mirror ``LHTIndex._place`` exactly: a record
    walks to its covering leaf; if the leaf is full (``records + 1 ≥ θ``)
    and above the depth cap it splits once at its interval midpoint, the
    record then lands in the covering child; children are never re-split
    for the same record.

    The replay moves a leaf at a time, not a record at a time.  Each
    step takes the current covering leaf, bisects the sorted input for
    where the run of records inside it ends, and appends as much of the
    run as fits before the leaf is full (all of it at the depth cap).
    A record that arrives at a full leaf splits it once and lands in a
    child.  Steps are therefore O(leaves + splits), not O(records).
    """
    theta = config.theta_split
    max_depth = config.max_depth
    leaves: dict[str, list[Record]] = dict(existing)
    changed: set[str] = set()
    split_bits: list[str] = []
    # The current leaf's interval is tracked as the integer pair
    # (cur_num, cur_level): ``cur_num <= key * 2**cur_level < cur_num + 1``
    # is the exact containment test (scaling a float by a power of two
    # only shifts its exponent), identical to ``path.startswith(bits)``,
    # so the covering-leaf walk runs only when the input leaves it.
    current = ""
    cur_num = cur_level = 0
    i, total = 0, len(records)

    while i < total:
        key = records[i].key
        if not current or not cur_num <= key * (1 << cur_level) < cur_num + 1:
            path = "0" + key_bits(key, max_depth - 1)
            current = next(
                (
                    path[:end]
                    for end in range(1, len(path) + 1)
                    if path[:end] in leaves
                ),
                "",
            )
            if not current:
                raise LookupError_(f"no known leaf covers {key}")
            cur_level = len(current) - 1
            cur_num = int(current, 2)
            changed.add(current)
        store = leaves[current]
        capped = len(current) >= max_depth
        room = total - i if capped else theta - 1 - len(store)
        if room > 0:
            # The run inside the leaf ends at its exclusive upper bound;
            # take what fits, and the next step sees the rest arrive at
            # a full leaf (or walks on).
            end = bisect.bisect_left(
                records,
                _dyadic(cur_num + 1, cur_level),
                i,
                min(total, i + room),
                key=RECORD_KEY,
            )
            _absorb(store, records[i:end])
            i = end
            continue
        # Full leaf below the cap: one midpoint split (Alg. 1).  The
        # right child's lower endpoint is the cut; the store is sorted,
        # so one bisection splits it.
        child_level = cur_level + 1
        child_num = 2 * cur_num + 1
        boundary = _dyadic(child_num, child_level)
        cut = bisect.bisect_left(store, boundary, key=RECORD_KEY)
        del leaves[current]
        left, right = current + "0", current + "1"
        leaves[left] = store[:cut]
        leaves[right] = store[cut:]
        changed.discard(current)
        changed.update((left, right))
        split_bits.append(current)
        if key >= boundary:
            current, cur_num = right, child_num
        else:
            current, cur_num = left, 2 * cur_num
        cur_level = child_level
        # The arriving record lands in its child now: a child left full
        # by the split must not split again for the same record.
        _absorb(leaves[current], records[i : i + 1])
        i += 1

    return BulkPlan(
        leaves=leaves,
        changed=changed,
        split_bits=tuple(split_bits),
        inserted=total,
    )


def leaf_put_items(plan: BulkPlan) -> list[tuple[str, LeafBucket]]:
    """The routed write batch that commits a plan: one ``(DHT key,
    bucket)`` item per changed final leaf, in sorted-bits order.

    The batch feeds :meth:`~repro.dht.base.DHT.multi_put` — one parallel
    round, one charged put per leaf.  Every retired leaf name ``f_n(ω)``
    re-names a leaf created by the replay (Theorem 1's chains are
    suffix-closed), so these puts overwrite all stale keys: no removes
    are needed.  The plan's record lists are already sorted, so each
    bucket takes its list over as its store, unsorted and uncopied; the
    plan's leaf lists belong to the buckets afterwards.
    """
    items: list[tuple[str, LeafBucket]] = []
    for bits in sorted(plan.changed):
        label = Label(bits)
        items.append(
            (str(naming(label)), LeafBucket.from_sorted(label, plan.leaves[bits]))
        )
    return items
