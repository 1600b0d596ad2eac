"""The LHT stack benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scale-local --seed 1 --seconds 25 --trace 0

Each workload is one configuration of the stack -- substrate, key count,
wrappers -- driven on one thread through the public API only
(``registry.make``, the wrapper constructors,
``LHTIndex.bulk_load/exact_match/range_query``, ``generate_workload`` and
``ServeEngine.run``):

1. **set-up** -- substrate, wrapper stack and index construction plus a
   fast bulk load; ``setup_s`` is the median over the run's builds.
2. **rounds** -- one per client population: a closed-loop single client
   runs the round's share of the Zipf exact-match probes (every
   population interleaved) and of the narrow range queries, then the
   population's open-loop serve session runs.  The rounds are a fixed
   amount of work, so every routed-op count repeats exactly for a seed.
3. **top-up** -- more blocks of lookups and range queries, cycling the
   same inputs, until the rounds and the top-up together have taken
   ``--seconds``.  They add wall-time samples only.

One index serves all the rounds and the top-up.  Between equal parts of
the rounds a forked child builds a spare stack and reports its time;
``setup_s`` is the median over the first build and the spares, so the
set-up samples are spread through the run instead of taken back to back.

Every answer is checked against a sorted-list model of the stored keys;
serve responses are replayed in ``ServeResult.executed_order``.  One
wrong answer makes the run incorrect.

Wall metrics are scaled to a nominal host speed.  Just before each timed
unit of work the run times a fixed reference loop; a wall time is
multiplied, and a rate divided, by the host's speed next to that kind of
work: the loop's nominal time over its median time.  The host's speed
swings by up to 1.6x over tens of seconds, and the swing moves the loop
and the stack alike, so the scaled values differ far less between runs.
The table prints the unscaled values beside them.

``--trace 1`` instead runs the set-up and the first rounds three times
-- untraced twice (the first warms the process), then traced -- and reports
per-layer metrics from the traced spans, the tracing overhead and a
per-layer table; the spans are written to
``perfbench/out/<workload>.spans.jsonl``.  End-to-end metrics come only
from untraced runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import struct
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from repro.core import IndexConfig, LHTIndex
    from repro.devtools import profile
    from repro.dht import registry
    from repro.dht.faulty import FaultyDHT
    from repro.dht.metrics import MetricsSnapshot
    from repro.dht.replicated import ReplicatedDHT
    from repro.errors import DHTError, LookupError_
    from repro.resilience import ResilientDHT
    from repro.serve import (
        Arrival,
        RequestKind,
        ServeConfig,
        ServeEngine,
        ServeResult,
        Status,
        WorkloadConfig,
        generate_workload,
    )
    from repro.sim.rng import derive_seed
    from repro.workloads.queries import zipf_rank_choice
except ModuleNotFoundError as exc:
    raise SystemExit(f"perfbench: cannot import the LHT package from {SRC}: {exc}")
if SRC.resolve() not in Path(profile.__file__).resolve().parents:
    raise SystemExit(f"perfbench: imported the LHT package from outside {SRC}")

from layers import Span, Tracer, summarize  # noqa: E402  (sibling module)

#: The benchmark's declaration: workloads, metrics and their bounds.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: End-to-end metrics reported with ``--trace 0``: (name, unit, better).
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"])

#: One line per workload on why it is there.
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

#: The scale gate's shape (``BENCH_scale.json`` "full"): θ, D, probe skew
#: and range widths are shared by every workload.
SCALE = profile.SCALE_PROFILES["full"]

#: Client populations, each ranking the keys by its own Zipf popularity;
#: the run has one round per population.  With a single population a
#: handful of hot keys decide a run's lookup costs, and seeds differ by
#: up to 30 % in routed gets per lookup; with 32, Kademlia's p50 still
#: followed each seed's hot keys by up to 20 %.
POPULATIONS = 64

SERVE_CONFIG = ServeConfig(max_in_flight=8)
SERVE_RATE = 5.0  # requests per simulated second
SERVE_SESSIONS = 8
SERVE_SPAN = 0.002  # width of serve's range requests
DROP_RATE = 0.02  # FaultyDHT get and probe drops on serve-stack
REPLICAS = 3

#: The overlay is part of the workload, not of its inputs: every seed
#: runs on the same peers.  Kademlia's routing cost alone differed by
#: 20 % between the overlays of two seeds.
TOPOLOGY_SEED = 1

#: Wall metrics are medians over consecutive blocks of samples, so a
#: stall of the host moves a block, not the run.  Each block leaves ten
#: samples beyond its tail percentile (p99 for lookups, p95 for ranges).
LOOKUP_BLOCK = 1000
RANGE_BLOCK = 200

#: The host-speed reference: passes of a fixed pure-Python loop over a
#: small dict, timed just before each timed unit of work.  Its median
#: time on the 2-vCPU VM the bounds were set on is the nominal speed.
REFERENCE_PASSES = 4
REFERENCE_TABLE = {i: i for i in range(4096)}
REFERENCE_NOMINAL_S = 1.4e-3

#: Wall metrics, the kind of work whose reference timings scale them,
#: and whether the metric is a rate (else a time).
WALL_METRICS = {
    "setup_s": ("setup", False),
    "lookup_ops_per_s": ("lookup", True),
    "lookup_p50_us": ("lookup", False),
    "lookup_p95_us": ("lookup", False),
    "lookup_p99_us": ("lookup", False),
    "range_p50_ms": ("range", False),
    "range_p95_ms": ("range", False),
    "serve_requests_per_s": ("serve", True),
}

#: Rounds the traced run repeats: spans stay in memory, and 8 of the 64
#: rounds keep them to a few hundred thousand.
TRACE_ROUNDS = 8


@dataclass(frozen=True)
class Workload:
    """One stack configuration and the work of its rounds."""

    name: str
    substrate: str
    n_peers: int
    n_keys: int
    n_probes: int  # exact matches, over all rounds
    n_ranges: int  # range queries, over all rounds
    n_requests: int  # open-loop serve requests, over all rounds
    #: Set-ups per run: the live one, then a spare before each further
    #: equal part of the rounds; more of them where a build is cheap.
    builds: int
    #: Resilient(Replicated(k=3, Faulty(get+probe drop 2%))) with the
    #: LeafCache on; otherwise the bare substrate, uncached.
    wrapped: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale-local", "local", 1024, 1 << 20, 128_000, 768, 20_480, 3),
        Workload("routed-kademlia", "kademlia", 1024, 1 << 18, 8_000, 768, 3_072, 4),
        Workload(
            "serve-stack", "chord", 256, 1 << 16, 64_000, 3_072, 16_000, 16, wrapped=True
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the program is given, generated from the seed; each
    list has one entry per round (one round per population)."""

    keys: list[float]
    probes: list[list[float]]  # exact matches, every population interleaved
    spans: list[list[tuple[float, float]]]  # range queries
    sessions: list[list[Arrival]]  # the round's population's serve arrivals

    def rounds(self, part: slice) -> Inputs:
        """The same keys with only the rounds in ``part``."""
        return Inputs(self.keys, self.probes[part], self.spans[part], self.sessions[part])

    def split(self, n: int) -> list[Inputs]:
        """The rounds cut into ``n`` consecutive, near-equal parts."""
        cuts = [round(i * len(self.probes) / n) for i in range(n + 1)]
        return [self.rounds(slice(a, b)) for a, b in zip(cuts, cuts[1:])]


def scale_params(workload: Workload, seed: int) -> dict[str, Any]:
    """The scale gate's parameters, resized to one population of
    ``workload``."""
    return dict(
        SCALE,
        seed=seed,
        n_keys=workload.n_keys,
        n_peers=workload.n_peers,
        n_probes=workload.n_probes // POPULATIONS,
        n_ranges=workload.n_ranges,
    )


def scale_inputs(
    params: dict[str, Any],
) -> tuple[list[float], list[float], list[tuple[float, float]]]:
    """Keys, probes and ranges exactly as the scale gate derives them.

    ``repro.devtools.profile.run_scale_phases`` is the one home of that
    derivation.  Running it against a stand-in for ``LHTIndex`` that
    only records its calls yields the gate's inputs without building an
    index and without a second copy of the derivation.
    """
    captured: dict[str, Any] = {"probes": [], "spans": []}
    empty = SimpleNamespace(records=())

    class Recorder:
        leaf_count = 0

        def __init__(self, dht: Any, config: Any) -> None:
            pass

        def bulk_load(self, keys: list[float], fast: bool = False) -> int:
            captured["keys"] = keys
            return len(keys)

        def exact_match(self, key: float) -> tuple[None, int]:
            captured["probes"].append(key)
            return None, 0

        def range_query(self, lo: float, hi: float) -> SimpleNamespace:
            captured["spans"].append((lo, hi))
            return empty

    saved = profile.LHTIndex
    profile.LHTIndex = Recorder  # type: ignore[misc,assignment]
    try:
        profile.run_scale_phases(params)
    finally:
        profile.LHTIndex = saved  # type: ignore[misc]
    return captured["keys"], captured["probes"], captured["spans"]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Population 0 probes exactly as the scale gate does; the others
    draw the same Zipf law over their own ranking of the keys.  Every
    round's probes interleave all populations, so rounds are alike."""
    params = scale_params(workload, seed)
    keys, first, spans = scale_inputs(params)
    skew, per_population = params["probe_skew"], params["n_probes"]
    ranked = np.asarray(keys)
    streams = [first] + [
        zipf_rank_choice(
            ranked,
            skew,
            per_population,
            np.random.default_rng(derive_seed(seed, f"perfbench:probes:{p}")),
        )
        for p in range(1, POPULATIONS)
    ]
    interleaved = [float(stream[i]) for i in range(per_population) for stream in streams]
    config = WorkloadConfig(
        n_requests=workload.n_requests // POPULATIONS,
        rate=SERVE_RATE,
        skew=skew,
        range_span=SERVE_SPAN,
        n_sessions=SERVE_SESSIONS,
    )
    sessions = [
        generate_workload(ranked, config, seed=derive_seed(seed, f"perfbench:serve:{p}"))
        for p in range(POPULATIONS)
    ]
    return Inputs(
        keys,
        [interleaved[r * per_population : (r + 1) * per_population] for r in range(POPULATIONS)],
        [spans[p::POPULATIONS] for p in range(POPULATIONS)],
        sessions,
    )


def build(
    workload: Workload, keys: list[float], seed: int, tracer: Tracer | None = None
) -> LHTIndex:
    """Set-up: substrate, wrapper stack, index, fast bulk load."""
    base = registry.make(workload.substrate, workload.n_peers, TOPOLOGY_SEED)
    dht: Any = base
    layers: list[tuple[str, Any]] = [("kernel", base)]
    if workload.wrapped:
        faulty = FaultyDHT(
            base, get_drop_rate=DROP_RATE, seed=derive_seed(seed, "perfbench:faults")
        )
        replicated = ReplicatedDHT(faulty, n_replicas=REPLICAS)
        dht = ResilientDHT(replicated, seed=derive_seed(seed, "perfbench:retries"))
        layers += [("faulty", faulty), ("replicated", replicated), ("resilience", dht)]
    if tracer is not None:
        for layer, obj in layers:
            tracer.instrument_dht(layer, obj)
    index = LHTIndex(
        dht,
        IndexConfig(
            theta_split=SCALE["theta_split"],
            max_depth=SCALE["max_depth"],
            cache_enabled=workload.wrapped,
        ),
    )
    if tracer is not None:
        tracer.instrument_index(index)
    index.bulk_load(keys, fast=True)
    return index


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Model:
    """Sorted-list model of the stored records: the serial oracle."""

    def __init__(self, keys: list[float]) -> None:
        self.keys = sorted(keys)
        self.values: dict[float, Any] = {}  # bulk-loaded records carry None

    def has(self, key: float) -> bool:
        i = bisect.bisect_left(self.keys, key)
        return i < len(self.keys) and self.keys[i] == key

    def insert(self, key: float, value: Any) -> None:
        bisect.insort(self.keys, key)
        self.values[key] = value

    def remove(self, key: float) -> bool:
        i = bisect.bisect_left(self.keys, key)
        if i == len(self.keys) or self.keys[i] != key:
            return False
        del self.keys[i]
        self.values.pop(key, None)
        return True

    def between(self, lo: float, hi: float) -> list[float]:
        """Stored keys in ``[lo, hi)``, sorted."""
        keys = self.keys
        return keys[bisect.bisect_left(keys, lo) : bisect.bisect_left(keys, hi)]

    def lookup_ok(self, key: float, record: Any) -> bool:
        if not self.has(key):
            return record is None
        return (
            record is not None
            and record.key == key
            and record.value == self.values.get(key)
        )


@dataclass
class Tally:
    """Operations attempted, failed (error, unreachable, rejected), wrong."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


def reference_s() -> float:
    """One timing of the host-speed reference loop.

    The host's speed swings by up to 1.6x over tens of seconds, and the
    swing slows this loop and the stack alike; scaling by it is only
    sound while nothing else runs in the process, so that is checked.
    """
    if threading.active_count() != 1:
        raise SystemExit("perfbench: the benchmark must run on one thread")
    table = REFERENCE_TABLE
    total = 0
    start = time.perf_counter()
    for _ in range(REFERENCE_PASSES):
        for key in range(len(table)):
            total += table[key]
    return time.perf_counter() - start


@dataclass
class Samples:
    """Wall-time samples in the order they were taken."""

    lookup_ns: list[float] = field(default_factory=list)
    range_ns: list[float] = field(default_factory=list)
    serve_s: list[float] = field(default_factory=list)  # per ServeEngine.run
    #: Reference-loop timings, by the kind of work timed next to them.
    reference_s: dict[str, list[float]] = field(
        default_factory=lambda: {kind: [] for kind in ("setup", "lookup", "range", "serve")}
    )

    def probe(self, kind: str) -> None:
        self.reference_s[kind].append(reference_s())

    def host_speed(self, kind: str) -> float:
        """The host's speed next to ``kind`` of work, 1.0 being nominal."""
        return REFERENCE_NOMINAL_S / statistics.median(self.reference_s[kind])


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def run_lookups(
    index: LHTIndex, probes: list[float], model: Model, tally: Tally, samples: list[float]
) -> None:
    """Closed loop, one client: each exact match waits for the last."""
    clock = time.perf_counter_ns
    exact_match = index.exact_match
    for key in probes:
        tally.attempted += 1
        start = clock()
        try:
            record, _ = exact_match(key)
        except (DHTError, LookupError_):
            tally.failed += 1  # counted in answered_share, not timed
            continue
        samples.append(clock() - start)
        if not model.lookup_ok(key, record):
            tally.wrong.append(f"exact_match({key!r}) returned {record!r}")


def run_ranges(
    index: LHTIndex,
    spans: list[tuple[float, float]],
    model: Model,
    tally: Tally,
    samples: list[float],
    steps: list[int] | None = None,
) -> None:
    """Closed loop of range queries; ``steps`` collects parallel steps."""
    clock = time.perf_counter_ns
    range_query = index.range_query
    for lo, hi in spans:
        tally.attempted += 1
        start = clock()
        try:
            result = range_query(lo, hi)
        except (DHTError, LookupError_):
            tally.failed += 1
            continue
        samples.append(clock() - start)
        if steps is not None:
            steps.append(result.parallel_steps)
        if [r.key for r in result.records] != model.between(lo, hi):
            tally.wrong.append(f"range_query({lo!r}, {hi!r}) differs from the model")


def replay(
    arrivals: list[Arrival], result: ServeResult, model: Model, tally: Tally
) -> int:
    """Check serve's answers in executed order; returns OK inserts.

    Inserts and removes are applied to the model only when they
    answered OK, so the model follows the index's serialization.
    """
    inserts = 0
    tally.attempted += len(arrivals)
    tally.failed += sum(r.status is not Status.OK for r in result.responses)
    for i in result.executed_order:
        request = arrivals[i].request
        response = result.responses[i]
        if response.status is not Status.OK:
            continue
        kind = request.kind
        if kind is RequestKind.LOOKUP:
            ok = model.lookup_ok(request.key, response.answer)
        elif kind is RequestKind.INSERT:
            model.insert(request.key, request.value)
            inserts += 1
            ok = True
        elif kind is RequestKind.REMOVE:
            ok = response.answer == model.remove(request.key)
        else:
            got = [r.key for r in response.answer]
            ok = got == model.between(request.key, request.hi)
        if not ok:
            tally.wrong.append(f"serve request {i} ({kind.value}) answered wrongly")
    return inserts


@dataclass
class Counted:
    """The routed-op counts of the rounds; all repeat exactly per seed."""

    lookup_gets: int = 0
    range_gets: int = 0
    range_steps: list[int] = field(default_factory=list)
    served: list[ServeResult] = field(default_factory=list)  # one per round
    serve_records_moved: int = 0
    serve_inserts: int = 0


def run_rounds(
    index: LHTIndex,
    inputs: Inputs,
    model: Model,
    tally: Tally,
    samples: Samples,
    tracer: Tracer | None = None,
    counted: Counted | None = None,
) -> Counted:
    """One round per population: its probes, its ranges, its serve
    session; the counts are added to ``counted`` if given."""
    metrics = index.dht.metrics
    counted = Counted() if counted is None else counted
    for probes, spans, arrivals in zip(inputs.probes, inputs.spans, inputs.sessions):
        before = metrics.snapshot()
        samples.probe("lookup")
        run_lookups(index, probes, model, tally, samples.lookup_ns)
        after_lookups = metrics.snapshot()
        samples.probe("range")
        run_ranges(index, spans, model, tally, samples.range_ns, counted.range_steps)
        after_ranges = metrics.snapshot()
        engine = ServeEngine(index, SERVE_CONFIG)
        if tracer is not None:
            tracer.instrument_engine(engine)
        samples.probe("serve")
        start = time.perf_counter()
        served = engine.run(arrivals)
        samples.serve_s.append(time.perf_counter() - start)
        counted.served.append(served)
        counted.lookup_gets += (after_lookups - before).gets
        counted.range_gets += (after_ranges - after_lookups).gets
        counted.serve_records_moved += (metrics.snapshot() - after_ranges).records_moved
        counted.serve_inserts += replay(arrivals, served, model, tally)
    return counted


def top_up(
    index: LHTIndex,
    inputs: Inputs,
    model: Model,
    tally: Tally,
    samples: Samples,
    seconds: float,
) -> None:
    """Blocks of lookups and range queries for ``seconds``, half the
    time each, cycling the same inputs; they add wall-time samples only."""
    probes = [key for stream in inputs.probes for key in stream]
    spans = [span for part in inputs.spans for span in part]
    spent = {"lookup": 0.0, "range": 0.0}
    done = {"lookup": 0, "range": 0}
    deadline = time.perf_counter() + seconds
    while (start := time.perf_counter()) < deadline:
        if spent["lookup"] <= spent["range"]:
            kind, items, size = "lookup", probes, LOOKUP_BLOCK
        else:
            kind, items, size = "range", spans, RANGE_BLOCK
        block = [items[(done[kind] + k) % len(items)] for k in range(size)]
        samples.probe(kind)
        if kind == "lookup":
            run_lookups(index, block, model, tally, samples.lookup_ns)
        else:
            run_ranges(index, block, model, tally, samples.range_ns)
        done[kind] += size
        spent[kind] += time.perf_counter() - start


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def blocks(samples: list[float], size: int) -> list[list[float]]:
    """Consecutive full blocks of ``size`` samples (all of them if fewer)."""
    if len(samples) < size:
        return [samples]
    return [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]


def block_median(samples: list[float], size: int, q: float) -> float:
    """Median over blocks of each block's percentile ``q``."""
    return statistics.median(percentile(b, q) for b in blocks(samples, size))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sim_latencies(counted: Counted) -> list[float]:
    """Simulated latency of every answered serve request (failures and
    rejections count in ``answered_share`` instead)."""
    return [
        r.latency
        for served in counted.served
        for r in served.responses
        if r.status is Status.OK
    ]


def end_to_end(
    setup_times: list[float],
    rss_mb: float,
    samples: Samples,
    counted: Counted,
    inputs: Inputs,
    tally: Tally,
) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics with wall metrics scaled to the nominal host speed,
    and the same metrics unscaled."""
    n_probes = sum(map(len, inputs.probes))
    n_spans = sum(map(len, inputs.spans))
    n_requests = sum(map(len, inputs.sessions))
    latencies = sim_latencies(counted)
    session_rates = [len(s) / t for s, t in zip(inputs.sessions, samples.serve_s)]
    raw = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "lookup_ops_per_s": statistics.median(
            1e9 * len(b) / sum(b) for b in blocks(samples.lookup_ns, LOOKUP_BLOCK)
        ),
        "lookup_p50_us": block_median(samples.lookup_ns, LOOKUP_BLOCK, 50) / 1e3,
        "lookup_p95_us": block_median(samples.lookup_ns, LOOKUP_BLOCK, 95) / 1e3,
        "lookup_p99_us": block_median(samples.lookup_ns, LOOKUP_BLOCK, 99) / 1e3,
        "range_p50_ms": block_median(samples.range_ns, RANGE_BLOCK, 50) / 1e6,
        "range_p95_ms": block_median(samples.range_ns, RANGE_BLOCK, 95) / 1e6,
        "serve_requests_per_s": statistics.median(session_rates),
        "serve_mean_sim_ms": statistics.fmean(latencies) * 1e3,
        "serve_p99_sim_ms": percentile(latencies, 99) * 1e3,
        "routed_gets_per_lookup": counted.lookup_gets / n_probes,
        "routed_gets_per_range": counted.range_gets / n_spans,
        "range_parallel_steps": ratio(sum(counted.range_steps), len(counted.range_steps)),
        "routed_ops_per_request": sum(s.routed_ops for s in counted.served) / n_requests,
        "answered_share": 1.0 - tally.failed / tally.attempted,
    }
    scaled = dict(raw)
    for name, (kind, is_rate) in WALL_METRICS.items():
        speed = samples.host_speed(kind)
        scaled[name] = raw[name] / speed if is_rate else raw[name] * speed
    return scaled, raw


def layer_metrics(
    spans: list[Span],
    delta: MetricsSnapshot,
    leaves: int,
    queue_peak: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    totals = summarize(spans)
    out: dict[str, tuple[float, str]] = {}

    def self_s(layer: str) -> None:
        out[f"{layer}.self_s"] = (totals[layer].self_ns / 1e9, "s")

    def named(layer: str, *names: str) -> tuple[int, int]:
        """(entering calls, ops) of ``layer`` summed over method names."""
        by_name = totals[layer].by_name
        calls = sum(by_name.get(n, [0, 0])[0] for n in names)
        ops = sum(by_name.get(n, [0, 0])[1] for n in names)
        return calls, ops

    batches = [s.info for s in spans if s.name == "execute_batch" and s.info]
    reads = [b for b in batches if b[1]]
    out["serve.batches"] = (len(batches), "count")
    out["serve.rounds_per_batch"] = (ratio(sum(b[2] for b in batches), len(batches)), "count")
    out["serve.read_batch_size"] = (ratio(sum(b[0] for b in reads), len(reads)), "count")
    out["serve.coalesced_gets_saved"] = (sum(b[3] for b in batches), "count")
    out["serve.queue_depth_peak"] = (queue_peak, "count")
    self_s("serve")

    lookup = totals["core.lookup"]
    out["core.lookup.calls"] = (lookup.calls, "count")
    out["core.lookup.gets_per_call"] = (ratio(lookup.ops_out, lookup.calls), "count")
    self_s("core.lookup")

    queries = [s.info for s in spans if s.name == "range_query" and s.info]
    n = len(queries)
    out["core.range.calls"] = (totals["core.range"].calls, "count")
    out["core.range.gets_per_query"] = (ratio(sum(q[0] for q in queries), n), "count")
    out["core.range.parallel_steps"] = (ratio(sum(q[1] for q in queries), n), "count")
    out["core.range.batch_rounds"] = (ratio(sum(q[2] for q in queries), n), "count")
    out["core.range.gets_over_bound"] = (
        ratio(sum(q[0] / (q[3] + 3) for q in queries), n),
        "ratio",
    )
    self_s("core.range")

    build = totals["core.build"]
    build_ns = sum(s.end_ns - s.start_ns for s in spans if s.layer == "core.build")
    out["core.build.leaves"] = (leaves, "count")
    out["core.build.puts"] = (build.ops_out, "count")
    out["core.build.plan_s"] = (build.self_ns / 1e9, "s")
    out["core.build.commit_s"] = ((build_ns - build.self_ns) / 1e9, "s")

    moved = [s.info for s in spans if s.name == "insert" and s.info is not None]
    out["core.insert.calls"] = (totals["core.insert"].calls, "count")
    out["core.insert.splits"] = (sum(1 for m in moved if m), "count")
    out["core.insert.records_moved"] = (sum(moved), "count")
    self_s("core.insert")

    probed = delta.cache_hits + delta.cache_misses + delta.cache_stale
    out["cache.hits"] = (delta.cache_hits, "count")
    out["cache.misses"] = (delta.cache_misses, "count")
    out["cache.stale"] = (delta.cache_stale, "count")
    out["cache.hit_rate"] = (ratio(delta.cache_hits, probed), "ratio")
    self_s("cache")

    resilience = totals["resilience"]
    out["resilience.ops_in"] = (resilience.ops_in, "count")
    out["resilience.ops_out"] = (resilience.ops_out, "count")
    out["resilience.amplification"] = (ratio(resilience.ops_out, resilience.ops_in), "ratio")
    out["resilience.retries"] = (delta.retries, "count")
    out["resilience.breaker_rejections"] = (delta.breaker_rejections, "count")
    self_s("resilience")

    replicated = totals["replicated"]
    out["replicated.ops_in"] = (replicated.ops_in, "count")
    out["replicated.ops_out"] = (replicated.ops_out, "count")
    out["replicated.probe_gets"] = (named("faulty", "probe_get")[1], "count")
    out["replicated.failovers"] = (delta.replica_failovers, "count")
    self_s("replicated")

    faulty = totals["faulty"]
    out["faulty.ops_in"] = (faulty.ops_in, "count")
    out["faulty.dropped"] = (faulty.ops_in - faulty.ops_out, "count")
    self_s("faulty")

    multi_calls, multi_keys = named("kernel", "multi_get")
    out["kernel.routed_gets"] = (named("kernel", "get", "multi_get")[1], "count")
    out["kernel.routed_puts"] = (named("kernel", "put", "multi_put")[1], "count")
    out["kernel.probe_ops"] = (named("kernel", "probe_get", "put_at", "remove_at")[1], "count")
    out["kernel.multi_get_calls"] = (multi_calls, "count")
    out["kernel.keys_per_multi_get"] = (ratio(multi_keys, multi_calls), "count")
    self_s("kernel")

    route = totals["route"]
    route_ns = sum(s.end_ns - s.start_ns for s in spans if s.layer == "route")
    hops = sum(s.info for s in spans if s.layer == "route" and s.info is not None)
    out["route.calls"] = (route.calls, "count")
    out["route.hops_per_call"] = (ratio(hops, route.calls), "count")
    out["route.us_per_call"] = (ratio(route_ns / 1e3, route.calls), "us")
    self_s("route")
    return out


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------


def timed_build(workload: Workload, keys: list[float], seed: int) -> tuple[LHTIndex, float]:
    """One set-up and its wall time.  Everything alive before it is
    frozen out of the cyclic collector, so every build's collections
    walk only the objects that build makes."""
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    index = build(workload, keys, seed)
    return index, time.perf_counter() - start


def spare_setup_s(workload: Workload, keys: list[float], seed: int) -> float:
    """Time one more set-up in a forked child and wait for it to end.
    The spare stack lives and dies in the child, so it never touches the
    live index and never counts in this process's peak RSS."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.write(write, struct.pack("d", timed_build(workload, keys, seed)[1]))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or len(data) != 8:
        raise SystemExit(f"perfbench: a spare set-up failed (wait status {status})")
    return struct.unpack("d", data)[0]


def measure(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced run: end-to-end metrics.

    One index serves every round and then the top-up.  The further
    builds that ``setup_s`` takes its median over are spares, made in a
    child between equal parts of the rounds, so the set-up samples are
    spread through the run.  The live index stays frozen, so no full
    collection walks it during a timed query.  Peak RSS is read after
    the rounds, which are a fixed amount of work, so it does not grow
    with the host's speed.
    """
    inputs = make_inputs(workload, seed)
    tally, samples, counted = Tally(), Samples(), Counted()
    samples.probe("setup")
    index, first = timed_build(workload, inputs.keys, seed)
    samples.probe("setup")
    setup_times = [first]
    gc.collect()
    gc.freeze()
    leaves = index.leaf_count
    model = Model(inputs.keys)
    rounds_s = 0.0
    for part, share in enumerate(inputs.split(workload.builds)):
        if part:
            samples.probe("setup")
            setup_times.append(spare_setup_s(workload, inputs.keys, seed))
            samples.probe("setup")
        start = time.perf_counter()
        run_rounds(index, share, model, tally, samples, counted=counted)
        rounds_s += time.perf_counter() - start
    rss_mb = peak_rss_mb()
    start = time.perf_counter()
    top_up(index, inputs, model, tally, samples, seconds - rounds_s)
    measured_s = rounds_s + time.perf_counter() - start
    metrics, raw = end_to_end(setup_times, rss_mb, samples, counted, inputs, tally)

    latencies = sim_latencies(counted)
    print(
        f"perfbench {workload.name}  seed={seed}  measured {measured_s:.2f} s "
        f"({rounds_s:.2f} s of rounds)"
    )
    print(f"  why: {WHY[workload.name]}")
    for name, unit, better in END_TO_END:
        unscaled = f"  unscaled {raw[name]:.6g}" if name in WALL_METRICS else ""
        print(f"  {name:<26} {metrics[name]:>14.6g} {unit:<7} ({better} is better){unscaled}")
    print("  -- reported, not gated --")
    extra = (
        *(
            (f"host_speed.{kind}", samples.host_speed(kind), "x")
            for kind in samples.reference_s
        ),
        ("lookup_p50_us", metrics["lookup_p50_us"], "us"),
        ("lookup_p99_us", metrics["lookup_p99_us"], "us"),
        ("failed_share", ratio(tally.failed, tally.attempted), "ratio"),
        ("serve_p50_sim_ms", percentile(latencies, 50) * 1e3, "sim_ms"),
        (
            "records_moved_per_insert",
            ratio(counted.serve_records_moved, counted.serve_inserts),
            "count",
        ),
        ("leaves", leaves, "count"),
    )
    for name, value, unit in extra:
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(
        f"  samples: {len(setup_times)} setups, {len(samples.lookup_ns)} lookups, "
        f"{len(samples.range_ns)} ranges, {len(latencies)} answered serve "
        f"requests in {len(counted.served)} sessions "
        f"({counted.serve_inserts} inserts); {tally.failed} of "
        f"{tally.attempted} operations failed"
    )
    print(
        "  serve latency runs from each request's due instant on the simulated "
        "clock, so the open-loop generator is never late"
    )
    for line in tally.wrong[:10]:
        print(f"  WRONG: {line}")
    return result_line(
        tally, {name: (metrics[name], unit) for name, unit, _ in END_TO_END}
    )


@dataclass
class TraceRounds:
    """Set-up plus rounds run untraced twice, then traced."""

    walls: list[float]  # warm-up, untraced reference, traced
    snapshots: list[MetricsSnapshot]  # routed-op counters after each round
    tracer: Tracer
    index: LHTIndex  # the traced repetition's index
    tally: Tally  # the traced repetition's answers


def trace_rounds(workload: Workload, inputs: Inputs, seed: int) -> TraceRounds:
    """The first untraced repetition warms the process (imports, the
    hash memo), so the second is the reference the traced one is
    compared with; all three must charge identical counters."""
    walls: list[float] = []
    snapshots: list[MetricsSnapshot] = []
    tracer = Tracer()
    index: LHTIndex | None = None
    tally = Tally()
    for traced in (False, False, True):
        index = None
        model = Model(inputs.keys)
        tally = Tally()
        active = tracer if traced else None
        gc.collect()
        with tracer.patched() if traced else nullcontext():
            start = time.perf_counter()
            index = build(workload, inputs.keys, seed, active)
            run_rounds(index, inputs, model, tally, Samples(), active)
            walls.append(time.perf_counter() - start)
        snapshots.append(index.dht.metrics.snapshot())
        if len(set(snapshots)) > 1:
            tally.wrong.append("routed-op counters differ between repetitions")
        if tally.wrong:
            break
    assert index is not None
    return TraceRounds(walls, snapshots, tracer, index, tally)


def trace(workload: Workload, seed: int) -> dict[str, Any]:
    """Traced run: per-layer metrics, tracing overhead and the span dump."""
    inputs = make_inputs(workload, seed).rounds(slice(0, TRACE_ROUNDS))
    rounds = trace_rounds(workload, inputs, seed)
    tracer, index, tally = rounds.tracer, rounds.index, rounds.tally
    spans = tracer.spans
    untraced, traced_wall = rounds.walls[1], rounds.walls[-1]
    metrics = layer_metrics(
        spans, rounds.snapshots[-1], index.leaf_count,
        index.dht.metrics.queue_depth_peak,
    )
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced) / untraced, "ratio")
    metrics["trace.spans"] = (len(spans), "count")

    dump = HERE / "out" / f"{workload.name}.spans.jsonl"
    tracer.dump(dump)
    totals = summarize(spans)
    print(f"perfbench {workload.name}  seed={seed}  traced run")
    print(
        f"  wall: untraced {untraced:.3f} s, traced {traced_wall:.3f} s, "
        f"overhead {metrics['trace.overhead_share'][0]:.1%}; "
        f"{len(spans)} spans -> {dump.relative_to(HERE.parent)}"
    )
    print(f"  {'layer':<12} {'calls':>9} {'self_s':>9} {'share':>7}")
    attributed = 0
    for layer, total in totals.items():
        attributed += total.self_ns
        print(
            f"  {layer:<12} {total.calls:>9} {total.self_ns / 1e9:>9.4f} "
            f"{total.self_ns / 1e9 / traced_wall:>7.1%}"
        )
    harness = traced_wall - attributed / 1e9
    print(f"  {'(harness)':<12} {'':>9} {harness:>9.4f} {harness / traced_wall:>7.1%}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for line in tally.wrong[:10]:
        print(f"  WRONG: {line}")
    return result_line(tally, metrics)


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        line = trace(workload, args.seed)
    else:
        line = measure(workload, args.seed, args.seconds)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
