"""Serving benchmark: one command, three workloads, every answer checked.

Run from the repository root::

    python3 servebench/run.py --workload engine_point --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, writes the spans and the per-layer ledger to
``servebench/out/`` and prints the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The exit code is
non-zero when any check fails.  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "servebench" / "out"

#: end-to-end metrics: name -> unit (all reported from untraced rounds)
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "memory_bytes": "bytes",
}

#: per-layer metrics: name -> unit (reported by the traced run)
PER_LAYER = {
    "engine.submit_us_per_op": "us",
    "engine.pump_self_us_per_op": "us",
    "engine.ops_per_pump": "count",
    "metrics.observes_per_op": "count",
    "metrics.us_per_op": "us",
    "batch.execute_self_us_per_op": "us",
    "batch.shard_calls_per_op": "count",
    "router.route_us_per_key": "us",
    "hashing.hashes_per_key": "count",
    "hashing.ns_per_key": "ns",
    "lock.sections_per_batch": "count",
    "lock.wait_us_per_section": "us",
    "core.scalar_us_per_op": "us",
    "core.bulk_ns_per_key": "ns",
    "ha.self_us_per_op": "us",
    "ha.replica_calls_per_op": "count",
    "wal.us_per_record": "us",
    "wal.records_per_write": "count",
    "wal.fsyncs_per_write": "count",
    "wal.bytes_per_write": "bytes",
    "recovery.s": "s",
    "recovery.records_replayed": "count",
    "pool.parent_cpu_us_per_batch": "us",
    "pool.worker_cpu_us_per_batch": "us",
    "pool.wait_us_per_batch": "us",
    "pool.frames_per_batch": "count",
    "pool.spawn_s": "s",
    "trace.overhead_pct": "%",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"servebench: no program source at {src}/repro "
                         f"(run from a full checkout)")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"servebench: imported repro from "
                         f"{repro.__file__}, not from {src}")
    # loaded here, so that no set-up is timed with the imports in it
    import repro.persist
    import repro.serve.engine
    import repro.serve.ha
    import repro.serve.procpool  # noqa: F401


def _per(value: float, base: float, scale: float = 1.0) -> float:
    return value / base * scale if base else 0.0


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        from servebench.common import HostClock, LatencyHistogram, Reference
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.clock = HostClock(Reference(all_cpus=workload.all_cpus))
        self.latency_raw = LatencyHistogram()
        self.latency_adjusted = LatencyHistogram()
        self.setups: list[tuple[float, float]] = []   # clock at start, end
        self.setup_tracers: list = []
        self.rounds: list[tuple[object, bool]] = []   # (stats, traced)
        self.attempted = 0
        self.failed = 0

    # -- phases --------------------------------------------------------
    def set_up(self) -> None:
        """Set up ``setup_repeats`` times, each between two reference
        passes; every set-up but the last is torn down again."""
        from servebench.common import release_free_memory
        from servebench.trace import Tracer, install_setup
        clock = self.clock
        for i in range(self.w.setup_repeats):
            if i:
                self.w.teardown()
            gc.collect()   # no collection of earlier garbage lands inside
            release_free_memory()
            tracer = None
            if self.trace:
                tracer = Tracer()
                install_setup(tracer)
            clock.mark()
            try:
                start = clock.now()
                self.w.setup(clock)
                end = clock.now()
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    self.setup_tracers.append(tracer)
            clock.mark()
            self.w.check_setup()
            self.setups.append((start, end))
        self.w.fill()

    def serve(self) -> None:
        """Whole rounds until the run's time is up; with tracing, every
        second round is traced (at least one of each kind)."""
        from servebench.trace import Tracer, install_serving
        self.tracer = Tracer()
        replaying = self.trace and self.w.replays
        if replaying:
            self.w.start_replay()
        clock = self.clock
        deadline = time.perf_counter() + self.seconds
        r = 0
        while True:
            inputs = self.w.make_round(r)
            traced = self.trace and r % 2 == 1
            if traced:
                install_serving(self.tracer)
            clock.mark()
            try:
                stats = self.w.run_round(inputs, clock)
            finally:
                clock.mark()
                if traced:
                    self.tracer.uninstall()
            self.attempted += stats.requests
            self.failed += self.w.check_round(inputs, stats)
            self._fold(stats, traced)
            if replaying:
                if traced:
                    install_serving(self.tracer)
                try:
                    self.w.replay_round(inputs)
                finally:
                    self.tracer.uninstall()
            stats.results = None
            self.rounds.append((stats, traced))
            r += 1
            enough = r >= (2 if self.trace else 1)
            if enough and time.perf_counter() >= deadline:
                break

    def _fold(self, stats, traced: bool) -> None:
        """Reduce a round to its figures: nominal length, and (untraced
        rounds only) its latencies into the run's histograms."""
        nominal = self.clock.nominal
        start, end = nominal([stats.start, stats.end])
        stats.nominal_elapsed = float(end - start)
        raw = stats.done - stats.due
        stats.in_calls = float(raw.sum())
        if not traced:
            self.latency_raw.add(raw)
            self.latency_adjusted.add(nominal(stats.done)
                                      - nominal(stats.due))
        stats.due = stats.done = None

    # -- figures -------------------------------------------------------
    def _throughputs(self, traced: bool) -> tuple[list, list]:
        """(adjusted, raw) units per second of each round of one kind."""
        adjusted, raw = [], []
        for s, tr in self.rounds:
            if tr == traced:
                adjusted.append(s.units / s.nominal_elapsed)
                raw.append(s.units / (s.end - s.start))
        return adjusted, raw

    def _scale(self, intervals) -> float:
        """Nominal over raw time across (start, end) *intervals*."""
        intervals = list(intervals)
        if not intervals:
            return 1.0
        nominal = self.clock.nominal(intervals)
        raw = sum(end - start for start, end in intervals)
        return float((nominal[:, 1] - nominal[:, 0]).sum()) / raw

    def _round_scale(self, traced: bool) -> float:
        rounds = [s for s, tr in self.rounds if tr == traced]
        return (sum(s.nominal_elapsed for s in rounds)
                / sum(s.end - s.start for s in rounds)) if rounds else 1.0

    def end_to_end(self, memory: int) -> dict:
        """Per metric: (adjusted, raw, reference pass ms); adjusted is
        the figure at nominal host speed."""
        import numpy as np
        from servebench.common import REF_NOMINAL_S
        thr_adj, thr_raw = self._throughputs(False)
        lat_adj, lat_raw = self.latency_adjusted, self.latency_raw
        setups = np.asarray(self.setups)
        nominal_setups = self.clock.nominal(setups)
        setup_adj = nominal_setups[:, 1] - nominal_setups[:, 0]
        setup_raw = setups[:, 1] - setups[:, 0]
        tail = self.w.tail_pct
        # the reference pass time each figure was adjusted by (ms)
        serve_ref = REF_NOMINAL_S * 1e3 / self._round_scale(False)
        setup_ref = REF_NOMINAL_S * 1e3 / self._scale(self.setups)
        return {
            "throughput_ops_s": (statistics.median(thr_adj),
                                 statistics.median(thr_raw), serve_ref),
            "latency_p50_ms": (lat_adj.percentile(50) * 1e3,
                               lat_raw.percentile(50) * 1e3, serve_ref),
            "latency_tail_ms": (lat_adj.percentile(tail) * 1e3,
                                lat_raw.percentile(tail) * 1e3, serve_ref),
            "setup_s": (float(np.median(setup_adj)),
                        float(np.median(setup_raw)), setup_ref),
            "memory_bytes": (memory, memory, None),
        }

    def ledger(self) -> dict:
        """Per-layer metrics from the traced rounds (pool CPU, frames and
        WAL byte/fsync counts from the untraced ones, which read them at
        the call boundary without wrappers in the way).  Times are scaled
        to nominal host speed like the end-to-end figures."""
        t = self.tracer
        traced = [s for s, tr in self.rounds if tr]
        plain = [s for s, tr in self.rounds if not tr]
        scale = self._round_scale(True)
        plain_scale = self._round_scale(False)
        setup_scale = self._scale(self.setups)
        ops = sum(s.requests for s in traced)
        units = sum(s.units for s in traced)
        writes = sum(s.writes for s in traced)
        plain_writes = sum(s.writes for s in plain)
        batches = sum(s.requests for s in plain)
        pump = t.total("engine.pump")
        execute = t.total("batch.execute")
        lock = t.total("lock")
        router = t.total("router")
        hashing = t.total("hashing")
        scalar = t.total("core.scalar")
        bulk = t.total("core.bulk")
        ha = t.total("ha")
        wal = t.total("wal")
        to_replica = t.pair("ha", "replica")
        shard_calls = sum(t.pair("batch.execute", child).calls
                          for child in ("core.scalar", "core.bulk", "ha",
                                        "replica"))
        metric_layers = [t.total("metrics"), t.total("metrics.observe")]
        recovery = [tr.total("recovery") for tr in self.setup_tracers]
        spawn = [tr.total("pool.spawn") for tr in self.setup_tracers]
        parent_cpu = sum(s.parent_cpu for s in plain)
        in_calls = sum(s.in_calls for s in plain)
        thr_plain, _ = self._throughputs(False)
        thr_traced, _ = self._throughputs(True)
        overhead = 100.0 * (1.0 - statistics.median(thr_traced)
                            / statistics.median(thr_plain))
        return {
            "engine.submit_us_per_op":
                _per(t.total("engine.submit").time, ops, 1e6 * scale),
            "engine.pump_self_us_per_op":
                _per(pump.time - t.pair("engine.pump", "batch.execute").time,
                     ops, 1e6 * scale),
            "engine.ops_per_pump": _per(pump.items, pump.calls),
            "metrics.observes_per_op":
                _per(t.total("metrics.observe").calls, ops),
            "metrics.us_per_op":
                _per(sum(m.time for m in metric_layers), ops, 1e6 * scale),
            "batch.execute_self_us_per_op":
                _per(execute.self_time, ops, 1e6 * scale),
            "batch.shard_calls_per_op": _per(shard_calls, ops),
            "router.route_us_per_key":
                _per(router.time, router.items, 1e6 * scale),
            "hashing.hashes_per_key": _per(hashing.items, units),
            "hashing.ns_per_key": _per(hashing.time, units, 1e9 * scale),
            "lock.sections_per_batch": _per(lock.calls, execute.calls),
            "lock.wait_us_per_section":
                _per(lock.time, lock.calls, 1e6 * scale),
            "core.scalar_us_per_op":
                _per(scalar.time, scalar.calls, 1e6 * scale),
            "core.bulk_ns_per_key": _per(bulk.time, bulk.items, 1e9 * scale),
            "ha.self_us_per_op":
                _per(ha.time - to_replica.time, ops, 1e6 * scale),
            "ha.replica_calls_per_op": _per(to_replica.calls, ops),
            "wal.us_per_record": _per(wal.time, wal.calls, 1e6 * scale),
            "wal.records_per_write": _per(wal.calls, writes),
            "wal.fsyncs_per_write":
                _per(sum(s.fsyncs for s in plain), plain_writes),
            "wal.bytes_per_write":
                _per(sum(s.wal_bytes for s in plain), plain_writes),
            "recovery.s": statistics.median(r.time for r in recovery)
            * setup_scale if recovery else 0.0,
            "recovery.records_replayed": recovery[-1].items
            if recovery else 0,
            "pool.parent_cpu_us_per_batch":
                _per(parent_cpu, batches, 1e6 * plain_scale),
            "pool.worker_cpu_us_per_batch":
                _per(sum(s.worker_cpu for s in plain), batches,
                     1e6 * plain_scale),
            "pool.wait_us_per_batch":
                _per(in_calls - parent_cpu, batches, 1e6 * plain_scale)
                if any(s.frames for s in plain) else 0.0,
            "pool.frames_per_batch":
                _per(sum(s.frames for s in plain), batches),
            "pool.spawn_s": statistics.median(s.time for s in spawn)
            * setup_scale if spawn else 0.0,
            "trace.overhead_pct": overhead,
        }


def _fleet_memory(workload) -> int:
    """Resident bytes the fleet holds at the end of the run: what the
    benchmark process and its workers give back when it is closed.

    Proportional set sizes, so a page shared between processes counts
    once; the heap's free pages are returned to the OS before both
    readings, so only the fleet's own pages make the difference.
    """
    from servebench.common import pss_bytes, release_free_memory
    gc.collect()
    release_free_memory()
    held = pss_bytes() + sum(pss_bytes(pid)
                             for pid in workload.worker_pids())
    workload.close()
    gc.collect()
    release_free_memory()
    return held - pss_bytes()


def _write_trace(run: Run, name: str, seed: int, ledger: dict,
                 throughput: dict) -> Path:
    """Write the spans and the per-layer ledger of a traced run."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    spans = run.tracer.spans
    origin = spans[0][3] if spans else 0.0
    traced = sum(1 for _, tr in run.rounds if tr)
    document = {
        "workload": name, "seed": seed,
        "rounds": {"traced": traced, "untraced": len(run.rounds) - traced},
        "throughput": throughput,
        "ledger": {key: {"value": value, "unit": PER_LAYER[key]}
                   for key, value in ledger.items()},
        "layers": {layer: {"calls": tot.calls, "seconds": tot.time,
                           "self_seconds": tot.self_time,
                           "items": tot.items}
                   for layer, tot in sorted(run.tracer.layers.items())},
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [[sid, parent, span_name, start - origin, end - origin]
                  for sid, parent, span_name, start, end in spans],
    }
    path.write_text(json.dumps(document))
    return path


def run(name: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> int:
    """Run one workload; prints the report and the JSON result line."""
    from servebench.common import REF_NOMINAL_S, CheckFailed
    from servebench.workloads import WORKLOADS
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    workload = WORKLOADS[name](seed, workdir, small=small)
    bench = Run(workload, seconds, trace)
    correct = True
    try:
        try:
            workload.prepare()
            gc.collect()
            gc.freeze()   # the harness's own inputs stay out of collections
            bench.set_up()
            bench.serve()
            info = workload.finish()
            memory = _fleet_memory(workload)
        except CheckFailed as exc:
            print(f"CHECK FAILED: {exc}")
            correct = False
    finally:
        try:
            workload.close()
        finally:
            import shutil
            shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted":
                          max(1, bench.attempted), "failed": bench.failed,
                          "metrics": {}}))
        return 1
    rounds = len(bench.rounds)
    refs = bench.clock.refs()
    print(f"workload {name}  seed {seed}  rounds {rounds}  "
          f"requests {bench.attempted}  failed {bench.failed}  "
          f"tail percentile p{workload.tail_pct:g}")
    print(f"reference pass: {len(refs)} passes, median "
          f"{statistics.median(refs) * 1e3:.3f} ms (nominal "
          f"{REF_NOMINAL_S * 1e3:.3f} ms), range "
          f"{min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f} ms; "
          f"stolen {bench.clock.stolen_share() * 100:.2f}% of the run "
          f"(read only where the workload spans every CPU)")
    print("accuracy: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    e2e = bench.end_to_end(memory)
    print("adjusted latency percentiles: " + ", ".join(
        f"p{q:g} {bench.latency_adjusted.percentile(q) * 1e3:.3f} ms"
        for q in (50, 90, 95, 98, 99, 99.5, 99.9))
        + f" (of {len(bench.latency_adjusted)} requests)")
    for key, (adjusted, raw, ref_ms) in e2e.items():
        ref = f"ref {ref_ms:.4f} ms" if ref_ms is not None else ""
        print(f"  {key:<18} adjusted {adjusted:>14.4f}  raw {raw:>14.4f}  "
              f"{END_TO_END[key]:<6} {ref}")
    if trace:
        ledger = bench.ledger()
        plain, traced = (statistics.median(bench._throughputs(kind)[0])
                         for kind in (False, True))
        path = _write_trace(bench, name, seed, ledger,
                            {"untraced": plain, "traced": traced,
                             "unit": workload.unit})
        for key, value in ledger.items():
            print(f"  {key:<30} {value:>14.4f} {PER_LAYER[key]}")
        print(f"tracing overhead: untraced {plain:.1f} {workload.unit}, "
              f"traced {traced:.1f} {workload.unit} "
              f"(overhead {ledger['trace.overhead_pct']:.1f}%)")
        print(f"trace written to {path.relative_to(ROOT)}")
        metrics = {key: {"value": value, "unit": PER_LAYER[key]}
                   for key, value in ledger.items()}
    else:
        metrics = {key: {"value": adjusted, "unit": END_TO_END[key]}
                   for key, (adjusted, _, _) in e2e.items()}
    print(json.dumps({"correct": True, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["engine_point", "replicated_durable",
                                 "pool_bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
