"""Span tracing at the layer boundaries of the LHT stack.

The traced run of ``perfbench/run.py`` wraps the public methods each
layer exposes -- the serving engine, the index operations, the leaf
cache, every wrapper of the DHT stack, the peer-store kernel and the
substrate's ``route()`` -- and records one :class:`Span` per call.  All
of it lives here, in the benchmark's own files; the program itself is
never edited.  Instance methods are wrapped on the instance, so a
layer's calls into its own methods (``multi_get`` falling back to
``self.get``) are caught too; ``LeafCache`` uses ``__slots__`` and the
serving engine calls ``execute_batch`` as a module global, so those two
are patched on their class and module for the traced run only.

A span records its layer, the method, its start and end, its parent
span, the request it belongs to, and the routed operations it stands
for at the boundary (one per key).  Spans stay in memory and are
written out once, as JSON lines, when the run ends.

Definitions used by :func:`summarize`:

* a call *enters* a layer when its parent span belongs to another layer;
  nested calls inside one layer are that layer's own work;
* ``ops_in`` of a layer sums the operations of the calls entering it;
  ``ops_out`` sums the operations of the calls it makes into the next
  layer down, so amplification is measured at the boundary itself;
* self time is a span's duration minus its children's durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "DHT_LAYERS",
    "DHT_METHODS",
    "LAYERS",
    "LayerTotals",
    "Span",
    "Tracer",
    "summarize",
]

#: Every layer a span can belong to, top of the stack first.
LAYERS = (
    "serve",
    "core.lookup",
    "core.range",
    "core.build",
    "core.insert",
    "cache",
    "resilience",
    "replicated",
    "faulty",
    "kernel",
    "route",
)

#: The DHT stack's layers, outermost first.  Absent wrappers are skipped.
DHT_LAYERS = ("resilience", "replicated", "faulty", "kernel")

#: Routed operations timed on every DHT layer.  ``local_write*`` and the
#: introspection methods are free by contract and are not wrapped.
DHT_METHODS = (
    "get",
    "put",
    "remove",
    "multi_get",
    "multi_put",
    "probe_get",
    "put_at",
    "remove_at",
)

_BATCH_METHODS = frozenset({"multi_get", "multi_put"})


@dataclass(slots=True)
class Span:
    """One timed call at a layer boundary.

    ``ops`` is the number of routed operations the call stands for (one
    per key for DHT methods, zero elsewhere); ``info`` carries what the
    call returned that a layer metric needs (hops for ``route``, the
    result counts of a range query, ...).
    """

    id: int
    parent: int
    request: int
    layer: str
    name: str
    start_ns: int
    end_ns: int
    ops: int
    info: Any


class Tracer:
    """Collects spans from wrapped layer methods (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin_ns = time.perf_counter_ns()
        self._next_id = 0
        # Open spans, innermost last, as (span id, layer, request id).
        self._open: list[tuple[int, str, int]] = []

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        *,
        ops: Callable[[tuple[Any, ...]], int] | None = None,
        info: Callable[[tuple[Any, ...], Any], Any] | None = None,
        new_request: bool = False,
    ) -> Callable[..., Any]:
        """A traced stand-in for ``fn``.

        ``ops`` maps the call's arguments to its routed-operation count;
        ``info`` maps the arguments and a non-``None`` return value to
        the span's ``info``.  A span with no open parent, or with
        ``new_request``, starts a request of its own.
        """
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            if open_spans and not new_request:
                parent, _, request = open_spans[-1]
            else:
                parent = open_spans[-1][0] if open_spans else -1
                request = span_id
            open_spans.append((span_id, layer, request))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                open_spans.pop()
                spans.append(
                    Span(
                        span_id,
                        parent,
                        request,
                        layer,
                        name,
                        start,
                        end,
                        ops(args) if ops is not None else 0,
                        None if info is None or result is None
                        else info(args, result),
                    )
                )

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def instrument_dht(self, layer: str, dht: Any) -> None:
        """Wrap the routed operations of one DHT layer (an instance)."""
        for name in DHT_METHODS:
            setattr(
                dht,
                name,
                self.wrap(
                    layer,
                    name,
                    getattr(dht, name),
                    ops=_batch_ops if name in _BATCH_METHODS else _one_op,
                ),
            )
        if layer == "kernel":
            dht.route = self.wrap("route", "route", dht.route, info=_hops)

    def instrument_index(self, index: Any) -> None:
        """Wrap the public operations of one ``LHTIndex`` instance."""
        for layer, name, info in (
            ("core.lookup", "lookup", None),
            ("core.lookup", "exact_match", None),
            ("core.range", "range_query", _range_info),
            ("core.build", "bulk_load", None),
            ("core.insert", "insert", _insert_info),
            ("core.insert", "delete", None),
        ):
            setattr(index, name, self.wrap(layer, name, getattr(index, name), info=info))

    def instrument_engine(self, engine: Any) -> None:
        """Wrap one ``ServeEngine`` instance's ``run``."""
        engine.run = self.wrap("serve", "run", engine.run)

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Patch the class- and module-level boundaries for the block.

        ``LeafCache`` has ``__slots__`` (no per-instance override) and
        the engine reaches ``execute_batch`` through its module globals;
        both are restored on exit, so untraced runs never see a wrapper.
        """
        from repro.cache.leafcache import LeafCache
        from repro.serve import engine

        saved_lookup = LeafCache.lookup
        saved_batch = engine.execute_batch
        LeafCache.lookup = self.wrap(  # type: ignore[method-assign]
            "cache", "lookup", saved_lookup
        )
        engine.execute_batch = self.wrap(
            "serve", "execute_batch", saved_batch,
            info=_batch_info, new_request=True,
        )
        try:
            yield self
        finally:
            LeafCache.lookup = saved_lookup  # type: ignore[method-assign]
            engine.execute_batch = saved_batch

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, in start order."""
        self_ns = _self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "parent": span.parent,
                            "request": span.request,
                            "layer": span.layer,
                            "name": span.name,
                            "start_us": (span.start_ns - self.origin_ns) / 1e3,
                            "dur_us": (span.end_ns - span.start_ns) / 1e3,
                            "self_us": self_ns[span.id] / 1e3,
                            "ops": span.ops,
                            "info": span.info,
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


def _one_op(args: tuple[Any, ...]) -> int:
    return 1


def _batch_ops(args: tuple[Any, ...]) -> int:
    return len(args[0])


def _hops(args: tuple[Any, ...], result: tuple[int, int]) -> int:
    return result[1]


def _range_info(args: tuple[Any, ...], result: Any) -> tuple[int, int, int, int]:
    return (
        result.dht_lookups,
        result.parallel_steps,
        result.batch_rounds,
        result.buckets_visited,
    )


def _insert_info(args: tuple[Any, ...], result: Any) -> int:
    return result.split.records_moved if result.split is not None else 0


def _batch_info(args: tuple[Any, ...], result: Any) -> tuple[int, bool, int, int]:
    requests = args[1]
    return (len(requests), requests[0].is_read, result.rounds, result.coalesced_saved)


def _self_times(spans: list[Span]) -> list[int]:
    """Self time per span id: duration minus the children's durations."""
    size = max((s.id for s in spans), default=-1) + 1
    child_ns = [0] * size
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    out = [0] * size
    for span in spans:
        out[span.id] = span.end_ns - span.start_ns - child_ns[span.id]
    return out


@dataclass(slots=True)
class LayerTotals:
    """Boundary counts and time of one layer over a traced run."""

    calls: int = 0  # calls entering the layer
    ops_in: int = 0
    ops_out: int = 0
    self_ns: int = 0
    #: method name -> [entering calls, their ops]
    by_name: dict[str, list[int]] = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-layer totals: entering calls, ops in and out, self time."""
    layer_of = {s.id: s.layer for s in spans}
    self_ns = _self_times(spans)
    totals = {layer: LayerTotals() for layer in LAYERS}
    for span in spans:
        own = totals[span.layer]
        own.self_ns += self_ns[span.id]
        parent_layer = layer_of.get(span.parent)
        if parent_layer == span.layer:
            continue  # the layer calling itself: not a boundary crossing
        own.calls += 1
        own.ops_in += span.ops
        counts = own.by_name.setdefault(span.name, [0, 0])
        counts[0] += 1
        counts[1] += span.ops
        if parent_layer is not None:
            totals[parent_layer].ops_out += span.ops
    return totals
