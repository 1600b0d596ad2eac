"""Golden ``route()`` stream for Kademlia at the benchmark's overlay size.

The kernel-equivalence goldens run 32 peers only, where a node's buckets
hold nearly every peer. This suite pins the ``(owner, hops)`` stream of
``KademliaDHT.route`` for 5 000 keys at 1 024 peers, where buckets
truncate and the iterative lookup walks about 15 messages per call. Any
change to bucket contents, FIND_NODE ordering, shortlist handling or the
gateway draw from the substrate's RNG changes the digest.

Two shapes: the benchmark's (k=8, alpha=3) and a hard-truncating one
(k=2, alpha=1).

Regenerate (only when a change is *meant* to alter routing)::

    PYTHONPATH=src python tests/test_kademlia_route_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dht.kademlia import KademliaDHT

GOLDEN = Path(__file__).parent / "data" / "equivalence" / "kademlia_route_1024.json"

N_PEERS = 1024
N_KEYS = 5000

SHAPES = {
    "seed1-k8-a3": {"seed": 1, "k": 8, "alpha": 3},
    "seed2-k2-a1": {"seed": 2, "k": 2, "alpha": 1},
}


def route_stream(name: str) -> dict[str, object]:
    """Route ``N_KEYS`` keys on a fresh overlay of one shape; digest them."""
    shape = SHAPES[name]
    dht = KademliaDHT(n_peers=N_PEERS, **shape)
    digest = hashlib.sha256()
    total_hops = 0
    for i in range(N_KEYS):
        owner, hops = dht.route(f"route-golden:{i}")
        digest.update(f"{owner}:{hops};".encode())
        total_hops += hops
    return {
        **shape,
        "n_peers": N_PEERS,
        "keys": N_KEYS,
        "total_hops": total_hops,
        "sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_route_stream_matches_golden(name: str) -> None:
    assert route_stream(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_kademlia_route_golden.py --write")
    streams = {name: route_stream(name) for name in SHAPES}
    GOLDEN.write_text(json.dumps(streams, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
