"""Span tracing around the public entry points of each serving layer.

:class:`Tracer` wraps methods of the program's classes from the outside
(the program itself carries no tracing code) and records, per call, a
span ``(id, parent, name, start, end)``.  Spans are kept in memory up to
a cap and written out when the benchmark ends; per-layer totals are kept
for every call regardless of the cap:

- ``calls`` / ``time`` / ``items`` of the *outermost* span of each layer
  (a span nested in a span of the same layer, such as ``contains``
  calling ``query``, counts towards neither — its time is already in
  its parent's);
- ``self`` time of each layer: a span's duration minus the part its
  child spans cover;
- calls and time of each (parent layer, child layer) pair, which gives
  "calls into shard handles per op" and "ReplicaSet minus replica calls".
"""

from __future__ import annotations

import time
from collections import defaultdict

#: spans kept for the output file; totals cover every call regardless
SPAN_CAP = 50_000


def _one(args, result) -> int:
    return 1


def _keys_arg(args, result) -> int:
    return len(args[1])


def _returned(args, result) -> int:
    return int(result)


class _Totals:
    __slots__ = ("calls", "time", "items", "self_time")

    def __init__(self):
        self.calls = 0
        self.time = 0.0
        self.items = 0
        self.self_time = 0.0


class Tracer:
    """Records spans for the wrapped entry points while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.layers: dict[str, _Totals] = defaultdict(_Totals)
        self.pairs: dict[tuple[str, str], _Totals] = defaultdict(_Totals)
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _call(self, layer: str, name: str, items, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [layer, 0.0, span_id]   # layer, child time, id
        stack.append(frame)
        start = time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            outer = parent is None or parent[0] != layer
            totals = self.layers[layer]
            totals.self_time += duration - frame[1]
            if outer:
                totals.calls += 1
                totals.time += duration
                totals.items += items(args, result) if done else 0
            if parent is not None:
                parent[1] += duration
                if outer:
                    pair = self.pairs[(parent[0], layer)]
                    pair.calls += 1
                    pair.time += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent[2] if parent else 0,
                                   name, start, end))

    # -- installing ----------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, items=_one) -> None:
        """Replace ``owner.attr`` with a recording wrapper until
        :meth:`uninstall`.  *items* maps ``(args, result)`` to the units
        of work the call did (keys, ops served)."""
        original = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        call = self._call

        def wrapper(*args, **kwargs):
            return call(layer, name, items, original, args, kwargs)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_context(self, owner, attr: str, layer: str) -> None:
        """Wrap a context-manager factory so the *entering* of the
        returned manager is the span (how long the caller waited to get
        in — a lock section's acquisition)."""
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        tracer = self

        class _Entered:
            __slots__ = ("_cm",)

            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                return tracer._call(layer, name, _one, self._cm.__enter__,
                                    (), {})

            def __exit__(self, *exc):
                return self._cm.__exit__(*exc)

        def wrapper(*args, **kwargs):
            return _Entered(original(*args, **kwargs))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------
    def total(self, layer: str) -> _Totals:
        return self.layers.get(layer) or _Totals()

    def pair(self, parent: str, child: str) -> _Totals:
        return self.pairs.get((parent, child)) or _Totals()


def install_serving(tracer: Tracer) -> None:
    """Wrap every serving-layer entry point the ledger reads.

    Layers (the ledger's names): ``engine.submit``, ``engine.pump``,
    ``batch.execute``, ``router``, ``metrics``, ``metrics.observe``,
    ``hashing``, ``lock``,
    ``replica`` (ConcurrentSBF point verbs), ``core.scalar``,
    ``core.bulk``, ``ha``, ``wal``, ``pool``.
    """
    from repro.core.methods import MinimumSelection
    from repro.core.sbf import SpectralBloomFilter
    from repro.hashing import vectorized
    from repro.hashing.families import HashFamily
    from repro.persist.concurrent import ConcurrentSBF
    from repro.persist.wal import WriteAheadLog
    from repro.serve.batch import ShardBatcher
    from repro.serve.engine import ServingEngine
    from repro.serve.ha import ReplicaSet
    from repro.serve.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
    from repro.serve.procpool import ProcessShardPool
    from repro.serve.router import ShardedSBF

    wrap = tracer.wrap
    wrap(ServingEngine, "submit", "engine.submit")
    wrap(ServingEngine, "pump", "engine.pump", _returned)
    wrap(ShardBatcher, "execute", "batch.execute", _keys_arg)
    wrap(ShardedSBF, "shard_of", "router")
    wrap(ShardedSBF, "shard_of_many", "router", _keys_arg)
    wrap(Histogram, "observe", "metrics.observe")
    wrap(Counter, "inc", "metrics")
    wrap(Gauge, "set", "metrics")
    for attr in ("counter", "gauge", "histogram"):
        wrap(MetricsRegistry, attr, "metrics")
    wrap(HashFamily, "indices", "hashing")
    wrap(vectorized, "canonicalize_many", "hashing",
         lambda args, result: len(result))
    tracer.wrap_context(ConcurrentSBF, "exclusive", "lock")
    for attr in ("insert", "delete", "set", "query", "contains"):
        wrap(ConcurrentSBF, attr, "replica")
    for attr in ("insert", "delete", "query", "contains"):
        wrap(SpectralBloomFilter, attr, "core.scalar")
    for attr in ("insert", "delete", "estimate"):
        wrap(MinimumSelection, attr, "core.scalar")
    for attr in ("insert_many", "delete_many", "query_many"):
        wrap(SpectralBloomFilter, attr, "core.bulk",
             lambda args, result: len(args[1]))
    for attr in ("insert", "delete", "set", "query", "contains"):
        wrap(ReplicaSet, attr, "ha")
    for attr in ("log_insert", "log_delete", "log_set", "log_insert_many",
                 "log_delete_many"):
        wrap(WriteAheadLog, attr, "wal")
    for attr in ("insert_many", "delete_many", "query_many"):
        wrap(ProcessShardPool, attr, "pool", _keys_arg)


def install_setup(tracer: Tracer) -> None:
    """Wrap the set-up entry points: WAL recovery and worker spawning."""
    from repro.persist import durable
    from repro.serve.procpool import ProcessShardPool

    def replayed(args, result) -> int:
        return result[1].records_replayed

    tracer.wrap(durable, "recover", "recovery", replayed)
    tracer.wrap(ProcessShardPool, "__init__", "pool.spawn")
