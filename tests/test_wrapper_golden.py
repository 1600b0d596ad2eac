"""Golden operation streams for the wrapper stack.

The wrappers (``FaultyDHT``, ``ReplicatedDHT``, ``ResilientDHT``,
``SerializingDHT``) each restate rules that must not drift: which RNG
value decides a fault, which copy a replicated op touches first, when a
retry happens and what gets charged. This suite pins their combined
behaviour: for two seeds, a fixed mixed stream of put, get, remove,
local_write, multi_get, multi_put and failover_get runs over each stack
below, and the digest of every return value (or exception type and
message), the final metrics snapshot, the wrappers' own counters and the
sorted keys must match the checked-in golden.

Stacks nesting ``ResilientDHT`` inside another ``ResilientDHT`` are left
out on purpose: an inner layer's fast rejection is not retried by the
outer one, and that rule is pinned by ``tests/test_resilience.py``.

Regenerate (only when a change is *meant* to alter wrapper behaviour)::

    PYTHONPATH=src python tests/test_wrapper_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.dht.base import DHT
from repro.dht.chord import ChordDHT
from repro.dht.faulty import FaultyDHT
from repro.dht.local import LocalDHT
from repro.dht.placement import HashSaltPolicy
from repro.dht.replicated import ReplicatedDHT, replica_layer
from repro.dht.serializing import SerializingDHT
from repro.errors import DHTError
from repro.resilience.wrapper import ResilientDHT

GOLDEN = Path(__file__).parent / "data" / "equivalence" / "wrapper_stacks.json"

SEEDS = (0, 1)
N_PEERS = 16
N_KEYS = 40
N_OPS = 400
BATCH = 3

RATES = {"get_drop_rate": 0.2, "put_fail_rate": 0.1, "remove_fail_rate": 0.15}


def _faulty(inner: DHT, seed: int) -> FaultyDHT:
    return FaultyDHT(inner, seed=seed + 100, **RATES)


STACKS: dict[str, Callable[[int], DHT]] = {
    "faulty-local": lambda seed: _faulty(LocalDHT(N_PEERS, seed), seed),
    "replicated3-placement-faulty-chord": lambda seed: ReplicatedDHT(
        _faulty(ChordDHT(n_peers=N_PEERS, seed=seed), seed), n_replicas=3
    ),
    "replicated1-placement-faulty-chord": lambda seed: ReplicatedDHT(
        _faulty(ChordDHT(n_peers=N_PEERS, seed=seed), seed), n_replicas=1
    ),
    "replicated3-salted-faulty-local": lambda seed: ReplicatedDHT(
        _faulty(LocalDHT(N_PEERS, seed), seed),
        n_replicas=3,
        policy=HashSaltPolicy(),
    ),
    "resilient-replicated3-faulty-local": lambda seed: ResilientDHT(
        ReplicatedDHT(_faulty(LocalDHT(N_PEERS, seed), seed), n_replicas=3),
        seed=seed,
    ),
    "serializing-replicated3-faulty-local": lambda seed: SerializingDHT(
        ReplicatedDHT(_faulty(LocalDHT(N_PEERS, seed), seed), n_replicas=3)
    ),
}

OPS = ("put", "get", "remove", "local_write", "multi_get", "multi_put", "failover_get")


def _run_op(dht: DHT, op: str, keys: list[str], value: str, absorb: bool) -> Any:
    if op == "put":
        return dht.put(keys[0], value)
    if op == "get":
        return dht.get(keys[0])
    if op == "remove":
        return dht.remove(keys[0])
    if op == "local_write":
        return dht.local_write(keys[0], value)
    if op == "multi_get":
        return dht.multi_get(keys, absorb_errors=absorb)
    if op == "multi_put":
        items = [(key, f"{value}/{j}") for j, key in enumerate(keys)]
        return dht.multi_put(items, absorb_errors=absorb)
    replicas = replica_layer(dht)
    return None if replicas is None else replicas.failover_get(keys[0])


#: Per-wrapper counters the shared metrics recorder does not separate.
LAYER_COUNTERS = (
    "bytes_written",
    "confirmed_drops",
    "dropped_gets",
    "exhausted_gets",
    "failed_puts",
    "failed_removes",
)


def _layer_counters(dht: DHT) -> dict[str, int]:
    counters: dict[str, int] = {}
    layer: Any = dht
    while layer is not None:
        for name in LAYER_COUNTERS:
            if hasattr(layer, name):
                counters[f"{type(layer).__name__}.{name}"] = getattr(layer, name)
        layer = getattr(layer, "inner", None)
    return counters


def op_stream(name: str, seed: int) -> dict[str, object]:
    """Run the mixed stream over one stack; digest what it returned."""
    dht = STACKS[name](seed)
    rng = np.random.default_rng(seed)
    outcomes = hashlib.sha256()
    errors = 0
    for i in range(N_OPS):
        op = OPS[int(rng.integers(len(OPS)))]
        keys = [f"wk{int(k)}" for k in rng.integers(0, N_KEYS, BATCH)]
        absorb = bool(rng.integers(2))
        try:
            result: Any = _run_op(dht, op, keys, f"v{i}", absorb)
        except DHTError as exc:  # every typed failure is part of the digest
            errors += 1
            result = f"!{type(exc).__name__}: {exc}"
        outcomes.update(f"{i}:{op}:{result!r};".encode())
    stored = sorted(dht.keys())
    return {
        "ops": N_OPS,
        "errors": errors,
        "outcomes_sha256": outcomes.hexdigest(),
        "metrics": dataclasses.asdict(dht.metrics.snapshot()),
        "layer_counters": _layer_counters(dht),
        "n_keys": len(stored),
        "keys_sha256": hashlib.sha256("\n".join(stored).encode()).hexdigest(),
    }


def _case_id(name: str, seed: int) -> str:
    return f"{name}/seed{seed}"


CASES = [(name, seed) for name in sorted(STACKS) for seed in SEEDS]


@pytest.mark.parametrize(
    ("name", "seed"), CASES, ids=[_case_id(n, s) for n, s in CASES]
)
def test_wrapper_stream_matches_golden(name: str, seed: int) -> None:
    assert op_stream(name, seed) == json.loads(GOLDEN.read_text())[_case_id(name, seed)]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_wrapper_golden.py --write")
    streams = {_case_id(n, s): op_stream(n, s) for n, s in CASES}
    GOLDEN.write_text(json.dumps(streams, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
