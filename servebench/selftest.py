"""Self-test of the benchmark's checks: run every workload at a tiny size,
then again with a deliberately corrupted answer, which must fail.

Run from the repository root (takes well under a minute)::

    python3 servebench/selftest.py

Each corruption changes what the program answers or holds (never the
check): a query answered one below its true count, a ``contains`` that
misses a present key, over-estimates on every key, a ``total_count``
off by one, one replica diverging from its set, a restart that loses a
counter.  The exit code is 0 only if every clean run passes, every
corrupted run is caught, and the traced run reports the whole ledger.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from servebench import run as bench  # noqa: E402

SECONDS = 0.3


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def quiet_run(name: str, trace: bool = False) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.run(name, seed=3, seconds=SECONDS, trace=trace,
                         small=True)
    return code, out.getvalue()


def _low_query(execute):
    def wrapper(self, ops, **kwargs):
        results = execute(self, ops, **kwargs)
        for i, op in enumerate(ops):
            if op[0] == "query" and isinstance(results[i], int) \
                    and results[i] > 0:
                results[i] -= 1
                break
        return results
    return wrapper


def _missed_contains(execute):
    def wrapper(self, ops, **kwargs):
        results = execute(self, ops, **kwargs)
        return [False if op[0] == "contains" else r
                for op, r in zip(ops, results)]
    return wrapper


def _inflated(query_many):
    def wrapper(self, keys, **kwargs):
        return [v + 1 for v in query_many(self, keys, **kwargs)]
    return wrapper


def _off_by_one(prop):
    def value(self):
        true = prop.fget(self)
        return true + 1 if true else true   # a fresh fleet still reads 0
    return property(value)


def _low_bulk(query_many):
    def wrapper(self, keys):
        result = query_many(self, keys)
        hit = result.values > 0
        if hit.any():
            result.values[int(hit.argmax())] -= 1
        return result
    return wrapper


def _inflated_bulk(query_many):
    def wrapper(self, keys):
        result = query_many(self, keys)
        result.values[:] += 1
        return result
    return wrapper


def _diverged_replica(finish):
    def wrapper(self):
        rset = self.engine.router.shards[0]
        rset.replicas[1].sbf.counters.add(0, 1)
        return finish(self)
    return wrapper


def _lossy_recovery(recover):
    def wrapper(*args, **kwargs):
        sbf, report = recover(*args, **kwargs)
        if report.records_replayed:
            sbf.counters.add(0, 1)
        return sbf, report
    return wrapper


def corruptions():
    """(workload, description, context manager) for every corruption."""
    from repro.persist import durable
    from repro.serve.batch import ShardBatcher
    from repro.serve.procpool import ProcessShardPool
    from repro.serve.router import ShardedSBF
    from servebench.workloads import ReplicatedDurable
    return [
        ("engine_point", "query one below its true count",
         patched(ShardBatcher, "execute", _low_query)),
        ("engine_point", "contains misses a present key",
         patched(ShardBatcher, "execute", _missed_contains)),
        ("engine_point", "every key over-estimated",
         patched(ShardBatcher, "query_many", _inflated)),
        ("engine_point", "total_count off by one",
         patched(ShardedSBF, "total_count", _off_by_one)),
        ("replicated_durable", "query one below its true count",
         patched(ShardBatcher, "execute", _low_query)),
        ("replicated_durable", "one replica diverges from its set",
         patched(ReplicatedDurable, "finish", _diverged_replica)),
        ("replicated_durable", "restart loses a counter",
         patched(durable, "recover", _lossy_recovery)),
        ("pool_bulk", "bulk query one below its true count",
         patched(ProcessShardPool, "query_many", _low_bulk)),
        ("pool_bulk", "every key over-estimated",
         patched(ProcessShardPool, "query_many", _inflated_bulk)),
        ("pool_bulk", "total_count off by one",
         patched(ProcessShardPool, "total_count", _off_by_one)),
    ]


def check_manifest() -> list[str]:
    """BENCHMARK.json must name exactly the metrics the command prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != bench.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if layers != bench.PER_LAYER:
        problems.append("per_layer metrics differ from run.PER_LAYER")
    names = {w["name"] for w in spec["workloads"]}
    from servebench.workloads import WORKLOADS
    if names != set(WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    return problems


#: per-layer metrics each workload must report as non-zero
EXERCISED = {
    "engine_point": ["engine.submit_us_per_op", "engine.ops_per_pump",
                     "metrics.observes_per_op", "batch.shard_calls_per_op",
                     "router.route_us_per_key", "hashing.hashes_per_key",
                     "lock.sections_per_batch", "core.scalar_us_per_op"],
    "replicated_durable": ["engine.submit_us_per_op",
                           "ha.replica_calls_per_op", "wal.us_per_record",
                           "wal.records_per_write", "wal.bytes_per_write",
                           "recovery.s", "recovery.records_replayed"],
    "pool_bulk": ["router.route_us_per_key", "hashing.hashes_per_key",
                  "core.bulk_ns_per_key", "pool.parent_cpu_us_per_batch",
                  "pool.worker_cpu_us_per_batch", "pool.frames_per_batch",
                  "pool.spawn_s"],
}


def main() -> int:
    bench._import_program()
    failures = check_manifest()
    for name in EXERCISED:
        code, out = quiet_run(name)
        result = json.loads(out.splitlines()[-1])
        metrics = result["metrics"]
        ok = (code == 0 and result["correct"] and result["failed"] == 0
              and set(result) == {"correct", "attempted", "failed",
                                  "metrics"}
              and set(metrics) == set(bench.END_TO_END)
              and all(m["value"] > 0 for m in metrics.values()))
        print(f"clean   {name:<20} {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"clean run of {name} failed:\n{out}")
        code, out = quiet_run(name, trace=True)
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        missing = set(bench.PER_LAYER) - set(metrics)
        zero = [m for m in EXERCISED[name] if not metrics[m]["value"]]
        print(f"traced  {name:<20} "
              f"{'pass' if code == 0 and not missing and not zero else 'FAIL'}")
        if code or missing or zero:
            failures.append(f"traced {name}: missing {sorted(missing)}, "
                            f"zero {zero}")
    for name, what, corruption in corruptions():
        with corruption:
            code, out = quiet_run(name)
        caught = code != 0 and "CHECK FAILED" in out
        print(f"corrupt {name:<20} {what:<36} "
              f"{'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"{name}: '{what}' was not caught")
    for problem in failures:
        print(problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
