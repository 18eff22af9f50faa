"""The three workloads, each driven through the real serving stack.

Every workload follows one protocol, used by :mod:`servebench.run`:

- ``prepare()`` builds the harness's own inputs and oracle (untimed);
- ``setup(clock)`` goes from nothing to ready to serve (timed, repeated;
  ``teardown()`` discards every set-up but the last), ``check_setup()``
  verifies what it built and ``fill()`` loads the last one (untimed);
- ``make_round(r)`` generates round ``r``'s inputs from the seed
  (untimed), ``run_round(inputs, clock)`` serves them (timed on the
  :class:`~servebench.common.HostClock`, which it ticks between units of
  work) and ``check_round`` verifies every answer against the oracle
  (untimed);
- ``finish()`` runs the end-of-run checks, ``close()`` releases
  everything (temp directories, worker processes) on every exit path.

A round is always the same amount of work, so a run attempts whole
rounds and its failure share does not depend on how long it ran.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from multiprocessing import resource_tracker
import shutil
import tempfile
import time
from collections import deque

import numpy as np

from servebench.common import (CheckFailed, OpStream, PointOracle,
                               WallClock, ZipfKeys, bloom_error,
                               check_universe, cpu_seconds,
                               overestimate_bound)


#: seed-sequence entry of the untimed fill (rounds use their index)
FILL_STREAM = 1 << 30


class RoundStats:
    """What one timed round did: its start and end on the benchmark clock,
    requests, units of work (ops or keys), and per request the clock
    reading when it was due and when its result was available (dropped
    once the run has folded them into its latency histograms)."""

    __slots__ = ("start", "end", "nominal_elapsed", "requests", "units",
                 "due", "done", "in_calls", "results", "parent_cpu",
                 "worker_cpu", "frames", "writes", "wal_bytes", "fsyncs")

    def __init__(self, start, end, units, due, done, results):
        self.start = start
        self.end = end
        self.nominal_elapsed = 0.0
        self.requests = len(due)
        self.units = units
        self.due = due
        self.done = done
        self.in_calls = 0.0   # summed request time, raw seconds
        self.results = results
        self.parent_cpu = 0.0
        self.worker_cpu = 0.0
        self.frames = 0
        self.writes = 0
        self.wal_bytes = 0
        self.fsyncs = 0


def closed_loop(engine, ops: list[tuple], window: int, clock) -> RoundStats:
    """Serve *ops* through *engine* with *window* requests outstanding.

    Each client slot submits its next request as soon as the previous
    one's result is available; the engine's deterministic pump serves
    the queue.  A request is due when its client was ready (its
    submission) and done at the end of the pump that completed it.
    Reference passes run between pumps, outside every request's time.
    """
    n = len(ops)
    results: list = [None] * n
    due = np.empty(n, dtype=np.float64)
    done = np.empty(n, dtype=np.float64)
    pending: deque = deque()
    submit = engine.submit
    pump = engine.pump
    now = clock.now
    tick = clock.tick
    start = now()
    nxt = 0
    while nxt < n and nxt < window:
        due[nxt] = now()
        pending.append((nxt, submit(*ops[nxt])))
        nxt += 1
    while pending:
        tick()
        served = pump()
        if not served:
            raise RuntimeError("engine pump served nothing with requests "
                               "outstanding")
        finished = now()
        for _ in range(served):
            idx, future = pending.popleft()
            done[idx] = finished
            exc = future.exception(timeout=0)
            results[idx] = exc if exc is not None else future.result()
            if nxt < n:
                due[nxt] = now()
                pending.append((nxt, submit(*ops[nxt])))
                nxt += 1
    return RoundStats(start, now(), n, due, done, results)


class Workload:
    """Defaults of the workload protocol."""

    all_cpus = False   # reference passes on the client's CPU only
    replays = False    # no in-process replay of the traced rounds

    def fill(self) -> None:
        """Untimed load after the last set-up, before the first round."""

    def worker_pids(self) -> list[int]:
        return []


def _digest(sbf) -> str:
    """Digest of a filter's whole counter vector (replica comparison)."""
    values = sbf.counters.get_many(np.arange(sbf.m, dtype=np.int64))
    data = np.ascontiguousarray(values, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class EnginePoint(Workload):
    """Read-heavy point traffic at the engine front door."""

    name = "engine_point"
    tail_pct = 95.0
    setup_repeats = 15
    unit = "ops/s"

    SHARDS = 4
    M = 1 << 16
    K = 4
    UNIVERSE = 1 << 16
    ZIPF_S = 1.1
    WINDOW = 1024
    ROUND_OPS = 16384
    MIX = {"query": 0.60, "contains": 0.05, "insert": 0.25, "delete": 0.10}

    def __init__(self, seed: int, workdir: str, small: bool = False):
        self.seed = seed
        self.workdir = workdir
        if small:
            self.ROUND_OPS = 2048
            self.UNIVERSE = 1 << 12
            self.M = 1 << 14
        self.engine = None

    def prepare(self) -> None:
        self.zipf = ZipfKeys(self.UNIVERSE, self.ZIPF_S, self.seed,
                             as_str=True)
        self.stream = OpStream(self.zipf, self.MIX)
        self.oracle = PointOracle(self.zipf.keys)

    def setup(self, clock) -> None:
        from repro.serve.engine import ServingEngine
        from repro.serve.router import ShardedSBF
        router = ShardedSBF.create(self.SHARDS, self.M, self.K,
                                   seed=self.seed)
        self.engine = ServingEngine(router, max_queue=self.WINDOW)

    def check_setup(self) -> None:
        if self.engine.router.total_count != 0:
            raise CheckFailed("a fresh fleet holds counts")

    def teardown(self) -> None:
        self.engine.close()
        self.engine = None

    def make_round(self, r: int) -> list[tuple]:
        rng = np.random.default_rng([self.seed, r])
        return self.stream.ops(rng, self.ROUND_OPS)

    def run_round(self, ops: list[tuple], clock) -> RoundStats:
        return closed_loop(self.engine, ops, self.WINDOW, clock)

    def check_round(self, ops, stats: RoundStats) -> int:
        return self.oracle.apply(ops, stats.results)

    def finish(self) -> dict:
        router = self.engine.router
        if router.total_count != self.oracle.total:
            raise CheckFailed(
                f"total_count {router.total_count} != net acknowledged "
                f"inserts {self.oracle.total}")
        keys = self.zipf.keys
        estimates = self.engine.batcher.query_many(keys)
        return check_universe(estimates, keys, self.oracle.truth, self.K,
                              self.M)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class ReplicatedDurable(Workload):
    """Write-heavy traffic on a replicated fleet of WAL-backed replicas.

    The WAL fsync policy is ``"checkpoint"``: records are written at once
    but forced to disk only at checkpoints, and the run takes none (fsync
    every 64 appends made run-to-run spread far larger than any bound
    worth setting).  Set-up is a restart: an untimed fill
    leaves every WAL uncheckpointed, and each timed set-up reopens all
    replicas (replaying their WALs) and builds the engine.
    """

    name = "replicated_durable"
    tail_pct = 95.0
    setup_repeats = 5
    unit = "ops/s"

    SHARDS = 4
    RF = 3
    M = 1 << 17
    K = 4
    UNIVERSE = 1 << 16
    ZIPF_S = 1.1
    WINDOW = 64
    FILL_OPS = 8192
    ROUND_OPS = 2048
    MIX = {"insert": 0.80, "delete": 0.10, "query": 0.10}

    def __init__(self, seed: int, workdir: str, small: bool = False):
        self.seed = seed
        self.workdir = workdir
        if small:
            self.FILL_OPS = 512
            self.ROUND_OPS = 256
            self.UNIVERSE = 1 << 12
            self.M = 1 << 14
        self.engine = None
        self.root = None

    def prepare(self) -> None:
        from repro.persist.crashsim import FileIO
        self.zipf = ZipfKeys(self.UNIVERSE, self.ZIPF_S, self.seed,
                             as_str=False)
        self.stream = OpStream(self.zipf, self.MIX)
        self.oracle = PointOracle(self.zipf.keys)
        self.io = FileIO()   # counts bytes written and fsyncs
        self.root = tempfile.mkdtemp(prefix="wal-", dir=self.workdir)
        clock = WallClock()
        self._build(clock)
        rng = np.random.default_rng([self.seed, FILL_STREAM])
        ops = self.stream.ops(rng, self.FILL_OPS)
        stats = closed_loop(self.engine, ops, self.WINDOW, clock)
        if self.oracle.apply(ops, stats.results):
            raise CheckFailed("an operation of the untimed fill failed")
        self.persisted = self._replica_state()
        self._close_uncheckpointed()

    def _build(self, clock) -> None:
        from repro.core.sbf import SpectralBloomFilter
        from repro.persist import ConcurrentSBF, DurableSBF
        from repro.serve.engine import ServingEngine
        from repro.serve.ha import QUORUM, replicated_fleet

        m, k, seed, root, io = self.M, self.K, self.seed, self.root, self.io

        def factory():
            return SpectralBloomFilter(m, k, seed=seed,
                                       hash_family="blocked")

        def replica(shard: int, index: int):
            clock.tick()   # a reference pass between replica recoveries
            return ConcurrentSBF(DurableSBF.open(
                f"{root}/shard{shard}-r{index}", factory=factory,
                fsync="checkpoint", io=io))

        fleet = replicated_fleet(self.SHARDS, m, k, rf=self.RF, seed=seed,
                                 read_consistency=QUORUM,
                                 write_consistency=QUORUM,
                                 replica_factory=replica)
        self.engine = ServingEngine(fleet, max_queue=self.WINDOW)

    def _replica_state(self) -> list[list[tuple[int, str]]]:
        return [[(handle.total_count, _digest(handle.sbf))
                 for handle in rset.replicas]
                for rset in self.engine.router.shards]

    def _close_uncheckpointed(self) -> None:
        """Close every WAL without a checkpoint: what a crash after the
        last acknowledged write leaves on disk."""
        for rset in self.engine.router.shards:
            for handle in rset.replicas:
                handle.raw.close()
            rset.close()
        self.engine = None

    def setup(self, clock) -> None:
        self._build(clock)

    def check_setup(self) -> None:
        state = self._replica_state()
        if state != self.persisted:
            raise CheckFailed("the restart did not recover the exact "
                              "pre-restart counters and totals")

    def teardown(self) -> None:
        self._close_uncheckpointed()

    def make_round(self, r: int) -> list[tuple]:
        rng = np.random.default_rng([self.seed, r])
        return self.stream.ops(rng, self.ROUND_OPS)

    def run_round(self, ops: list[tuple], clock) -> RoundStats:
        bytes0, fsyncs0 = self.io.bytes_written, self.io.fsync_calls
        stats = closed_loop(self.engine, ops, self.WINDOW, clock)
        stats.wal_bytes = self.io.bytes_written - bytes0
        stats.fsyncs = self.io.fsync_calls - fsyncs0
        stats.writes = sum(1 for op, res in zip(ops, stats.results)
                           if op[0] in ("insert", "delete")
                           and not isinstance(res, BaseException))
        return stats

    def check_round(self, ops, stats: RoundStats) -> int:
        return self.oracle.apply(ops, stats.results)

    def finish(self) -> dict:
        router = self.engine.router
        for rset in router.shards:
            states = {(h.total_count, _digest(h.sbf)) for h in rset.replicas}
            if len(states) != 1:
                raise CheckFailed(f"the replicas of {rset.name} disagree")
        if router.total_count != self.oracle.total:
            raise CheckFailed(
                f"total_count {router.total_count} != net acknowledged "
                f"inserts {self.oracle.total}")
        keys = self.zipf.keys
        estimates = self.engine.batcher.query_many(keys)
        return check_universe(estimates, keys, self.oracle.truth, self.K,
                              self.M)

    def close(self) -> None:
        try:
            if self.engine is not None:
                self._close_uncheckpointed()   # the directory goes next
        finally:
            if self.root is not None:
                shutil.rmtree(self.root, ignore_errors=True)
                self.root = None


class PoolBulk(Workload):
    """Bulk int batches through the multi-process shard pool.

    A cycle is ``insert_many``, ``query_many``, ``delete_many`` of the
    oldest live batch, ``query_many``: inserts and deletes balance, so
    after the untimed fill of :attr:`LIVE` batches the filter holds a
    steady load for the whole run (a growing live set would drift every
    figure with the run's length and drive E_b towards 1).
    """

    name = "pool_bulk"
    tail_pct = 90.0
    setup_repeats = 21
    unit = "keys/s"
    all_cpus = True    # the workers run on every CPU, not only the client's
    replays = True

    WORKERS = 2
    M = 1 << 20
    K = 4
    KEY_SPACE = 1 << 22
    BATCH = 8192
    LIVE = 16           # batches live at once: 131072 keys in m = 2^20
    CYCLES = 4          # a round is CYCLES x (insert, query, delete, query)

    def __init__(self, seed: int, workdir: str, small: bool = False):
        self.seed = seed
        self.workdir = workdir
        if small:
            self.BATCH = 512
            self.CYCLES = 2
            self.LIVE = 4
            self.KEY_SPACE = 1 << 16
            self.M = 1 << 14
        self.pool = None
        self.replay = None

    def prepare(self) -> None:
        self.truth = np.zeros(self.KEY_SPACE, dtype=np.int64)
        self.truth.fill(0)          # resident now, not mid-run
        self.live: deque = deque()  # inserted batches not yet deleted
        self.total = 0
        self.queries = 0
        self.overestimates = 0
        self.closest = None   # (share, bound, E_b) of the closest batch

    def setup(self, clock) -> None:
        from repro.serve.procpool import ProcessShardPool
        self.pool = ProcessShardPool(self.WORKERS, self.M, self.K,
                                     seed=self.seed, backend="numpy")

    def check_setup(self) -> None:
        if self.pool.total_count != 0:
            raise CheckFailed("a fresh pool holds counts")

    def teardown(self) -> None:
        self.pool.close()
        self.pool = None

    def fill(self) -> None:
        """Untimed: insert :attr:`LIVE` batches, the run's steady load."""
        rng = np.random.default_rng([self.seed, FILL_STREAM])
        batches = [("insert_many", rng.integers(0, self.KEY_SPACE,
                                                self.BATCH))
                   for _ in range(self.LIVE)]
        self.live.extend(keys for _, keys in batches)
        stats = self.run_round(batches, WallClock())
        if self.check_round(batches, stats):
            raise CheckFailed("a batch of the untimed fill failed")

    def make_round(self, r: int) -> list[tuple[str, np.ndarray]]:
        rng = np.random.default_rng([self.seed, r])
        batches = []
        for _ in range(self.CYCLES):
            fresh = rng.integers(0, self.KEY_SPACE, self.BATCH)
            batches += [("insert_many", fresh),
                        ("query_many", rng.integers(0, self.KEY_SPACE,
                                                    self.BATCH)),
                        ("delete_many", self.live.popleft()),
                        ("query_many", rng.integers(0, self.KEY_SPACE,
                                                    self.BATCH))]
            self.live.append(fresh)
        return batches

    def run_round(self, batches, clock) -> RoundStats:
        calls = {"insert_many": self.pool.insert_many,
                 "query_many": self.pool.query_many,
                 "delete_many": self.pool.delete_many}
        lists = [(calls[op], keys.tolist()) for op, keys in batches]
        pids = self.worker_pids()
        worker0 = sum(cpu_seconds(pid) for pid in pids)
        frames0 = self._frames()
        n = len(lists)
        due = np.empty(n, dtype=np.float64)
        done = np.empty(n, dtype=np.float64)
        results = []
        now, cpu, tick = clock.now, time.process_time, clock.tick
        parent_cpu = 0.0
        start = now()
        for i, (call, keys) in enumerate(lists):
            tick()
            due[i], c0 = now(), cpu()
            results.append(call(keys))
            parent_cpu += cpu() - c0
            done[i] = now()
        stats = RoundStats(start, now(), n * self.BATCH, due, done, results)
        stats.parent_cpu = parent_cpu
        stats.worker_cpu = sum(cpu_seconds(pid) for pid in pids) - worker0
        stats.frames = self._frames() - frames0
        return stats

    def _frames(self) -> int:
        counters = self.pool.metrics.snapshot()["counters"]
        return sum(counters.get(f"engine.worker.{i}.requests", 0)
                   for i in range(self.WORKERS))

    def check_round(self, batches, stats: RoundStats) -> int:
        failed = 0
        truth = self.truth
        for (op, keys), result in zip(batches, stats.results):
            if result.failures:
                failed += 1
                continue
            if op == "insert_many":
                np.add.at(truth, keys, 1)
                self.total += keys.size
            elif op == "delete_many":
                np.subtract.at(truth, keys, 1)
                self.total -= keys.size
                if int(truth[keys].min()) < 0:
                    raise CheckFailed("a delete batch was acknowledged "
                                      "for keys that were not present")
            else:
                self._check_query(keys, np.asarray(result.values))
        return failed

    def _check_query(self, keys: np.ndarray, values: np.ndarray) -> None:
        true = self.truth[keys]
        if values.shape != true.shape or bool((values < true).any()):
            raise CheckFailed("a bulk query answered below a true count "
                              "(MS error is one-sided)")
        over = int(np.count_nonzero(values > true))
        e_b = bloom_error(self.K, int(np.count_nonzero(self.truth)), self.M)
        bound = overestimate_bound(e_b, keys.size)
        share = over / keys.size
        if share > bound:
            raise CheckFailed(f"{share:.4f} of a query batch over-estimated,"
                              f" above the bound {bound:.4f} from "
                              f"E_b={e_b:.4f}")
        self.queries += keys.size
        self.overestimates += over
        if self.closest is None or \
                share - bound > self.closest[0] - self.closest[1]:
            self.closest = (round(share, 5), round(bound, 5), round(e_b, 5))

    def finish(self) -> dict:
        if self.pool.total_count != self.total:
            raise CheckFailed(f"total_count {self.pool.total_count} != net "
                              f"acknowledged inserts {self.total}")
        n_live = int(np.count_nonzero(self.truth))
        return {"n_live": n_live,
                "e_b": bloom_error(self.K, n_live, self.M),
                "overestimate_share": self.overestimates / max(1,
                                                               self.queries),
                "closest_batch_share_bound_eb": self.closest}

    def worker_pids(self) -> list[int]:
        return sorted(p.pid for p in multiprocessing.active_children())

    # -- traced-run replay -------------------------------------------------
    def start_replay(self) -> None:
        """An in-process filter of one worker's geometry that mirrors
        every batch, so the traced run can time the bulk kernels the
        workers run out of sight."""
        from repro.core.sbf import SpectralBloomFilter
        self.replay = SpectralBloomFilter(self.M, self.K, seed=self.seed,
                                          backend="numpy",
                                          hash_family="blocked")
        for keys in self.live:
            self.replay.insert_many(keys)

    def replay_round(self, batches) -> None:
        for op, keys in batches:
            getattr(self.replay, op)(keys)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        stop = getattr(tracker, "_stop", None)
        if stop is not None:
            stop()   # the shared-memory tracker process: stop and reap it


WORKLOADS = {cls.name: cls for cls in (EnginePoint, ReplicatedDurable,
                                       PoolBulk)}
