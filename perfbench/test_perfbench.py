"""Tests of the benchmark itself: determinism, the layer chain, the oracle.

Run from the root of the repository::

    python -m pytest perfbench

The workloads are shrunk copies of the real ones (same substrate and
stack, fewer keys and operations), except for the scale-gate cross-check,
which needs the full 2^20-key shape.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
from layers import DHT_LAYERS, summarize

ROOT = Path(__file__).resolve().parent.parent


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(
        run.WORKLOADS[name],
        n_peers=64,
        n_keys=1 << 12,
        n_probes=run.POPULATIONS * 10,
        n_ranges=run.POPULATIONS,
        n_requests=run.POPULATIONS * 10,
    )


def counts(workload: run.Workload, seed: int) -> tuple:
    inputs = run.make_inputs(workload, seed)
    index = run.build(workload, inputs.keys, seed)
    tally = run.Tally()
    counted = run.run_rounds(index, inputs, run.Model(inputs.keys), tally, run.Samples())
    assert not tally.wrong
    return (
        index.leaf_count,
        counted.lookup_gets,
        counted.range_gets,
        tuple(counted.range_steps),
        tuple(
            (served.routed_ops, served.rounds, tuple(served.executed_order))
            for served in counted.served
        ),
        counted.serve_records_moved,
    )


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counts_repeat_for_a_seed_and_change_with_it(name: str) -> None:
    workload = tiny(name)
    first = counts(workload, 1)
    assert counts(workload, 1) == first
    assert counts(workload, 2) != first


def test_layer_chain_is_consistent_and_tracing_adds_no_routed_op() -> None:
    workload = tiny("serve-stack")
    inputs = run.make_inputs(workload, 3)
    rounds = run.trace_rounds(workload, inputs, 3)
    assert not rounds.tally.wrong
    # Untraced and traced rounds charge identical routed operations.
    assert rounds.snapshots[0] == rounds.snapshots[1] == rounds.snapshots[2]

    totals = summarize(rounds.tracer.spans)
    for upper, lower in zip(DHT_LAYERS, DHT_LAYERS[1:]):
        assert totals[upper].ops_out == totals[lower].ops_in > 0, (upper, lower)
    # The kernel charges every routed op it receives; the fault layer
    # charges the replies it drops without passing them down.
    dropped = totals["faulty"].ops_in - totals["faulty"].ops_out
    assert dropped > 0
    assert totals["kernel"].ops_in + dropped == rounds.snapshots[2].dht_lookups


def test_bare_stack_kernel_ops_equal_the_recorder() -> None:
    workload = tiny("routed-kademlia")
    rounds = run.trace_rounds(workload, run.make_inputs(workload, 4), 4)
    totals = summarize(rounds.tracer.spans)
    assert totals["kernel"].ops_in == rounds.snapshots[2].dht_lookups
    assert totals["route"].calls == totals["kernel"].ops_in  # no probes here
    assert totals["resilience"].calls == totals["faulty"].calls == 0


def test_per_layer_metrics_match_benchmark_json() -> None:
    workload = tiny("serve-stack")
    rounds = run.trace_rounds(workload, run.make_inputs(workload, 5), 5)
    metrics = run.layer_metrics(
        rounds.tracer.spans, rounds.snapshots[2], rounds.index.leaf_count, 0
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    got.update({"trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.spans": "count"})
    assert got == per_layer
    assert set(run.WHY) == set(run.WORKLOADS)


def test_oracle_catches_wrong_answers() -> None:
    workload = tiny("scale-local")
    inputs = run.make_inputs(workload, 6)
    index = run.build(workload, inputs.keys, 6)
    model = run.Model(inputs.keys)
    probe, (lo, hi) = inputs.probes[0][0], inputs.spans[0][0]
    model.remove(probe)  # the model now disagrees on one key
    model.insert((lo + hi) / 2, "phantom")  # ... and on one range
    tally = run.Tally()
    run.run_lookups(index, [probe], model, tally, [])
    run.run_ranges(index, [(lo, hi)], model, tally, [])
    assert len(tally.wrong) == 2


def test_scale_local_reproduces_the_banked_scale_gate_counts() -> None:
    banked = json.loads((ROOT / "BENCH_scale.json").read_text())["profiles"]["full"]
    workload = run.WORKLOADS["scale-local"]
    # The gate's own stream: the benchmark's population 0 is its prefix.
    params = dict(run.scale_params(workload, 1), n_probes=20000)
    assert {k: params[k] for k in banked["params"] if k != "n_ranges"} == {
        k: v for k, v in banked["params"].items() if k != "n_ranges"
    }
    keys, probes, _ = run.scale_inputs(params)
    inputs = run.make_inputs(workload, 1)
    assert inputs.keys == keys
    population_0 = [key for part in inputs.probes for key in part][:: run.POPULATIONS]
    assert population_0 == probes[: len(population_0)]
    index = run.build(workload, keys, 1)
    assert index.leaf_count == banked["counts"]["leaves"] == 16331
    tally = run.Tally()
    before = index.dht.metrics.snapshot()
    run.run_lookups(index, probes, run.Model(keys), tally, [])
    assert len(probes) == 20000
    assert (index.dht.metrics.snapshot() - before).gets == banked["counts"]["lookup_gets"]
    assert not tally.wrong


def test_a_run_reports_every_declared_end_to_end_metric() -> None:
    line = run.measure(tiny("serve-stack"), 8, 0.5)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


def self_times(name: str, seed: int) -> dict[str, int]:
    workload = tiny(name)
    rounds = run.trace_rounds(workload, run.make_inputs(workload, seed), seed)
    return {layer: t.self_ns for layer, t in summarize(rounds.tracer.spans).items()}


def test_route_dominates_kademlia_and_core_dominates_local() -> None:
    # The two control workloads: route() on routed-kademlia, the index
    # and the kernel on scale-local.  The margins are several-fold.
    kademlia = self_times("routed-kademlia", 7)
    assert max(kademlia, key=kademlia.__getitem__) == "route"
    local = self_times("scale-local", 7)
    core = sum(ns for layer, ns in local.items() if layer.startswith("core."))
    assert core + local["kernel"] > local["route"]
