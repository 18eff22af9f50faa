"""Shared pieces of the serving benchmark: host-speed reference, input
generators, the accuracy bound, memory accounting and result summaries.

Nothing here imports the program under test; :mod:`servebench.run` puts
the checkout's ``src`` directory on the path before the workloads import
it.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import time

import numpy as np

#: time one reference pass takes when this host runs at its fast speed
#: (see README "Steadiness"); adjusted figures are expressed at this speed
REF_NOMINAL_S = 0.0008

#: wall seconds of program work between two reference passes
REF_EVERY_S = 0.03

#: stretches on each side over which stolen time is averaged (steal is
#: counted in 10 ms ticks, far coarser than one 30 ms stretch)
STEAL_SMOOTHING = 8


class CheckFailed(AssertionError):
    """An answer of the program disagreed with the independent oracle."""


# -- host-speed reference -------------------------------------------------
class Reference:
    """A fixed CPU loop timed between slices of work to track host speed.

    The loop mixes the interpreter work the serving path is made of
    (dict updates keyed by short strings, string formatting) with a small
    ``np.add.at`` scatter, the shape of the bulk kernels.  It runs with
    the garbage collector off so it prices the CPU, not the program's
    heap.  With *all_cpus*, one pass runs pinned to each CPU this
    process may use, in turn, and the mean is taken: the workers of a
    process pool run on every CPU, not only on the client's.  Those
    workers also wait for the hypervisor to run a woken CPU, which a
    pass does not see, so :meth:`stolen` then reads the CPUs' steal time.
    """

    def __init__(self, all_cpus: bool = False):
        rng = np.random.default_rng(12345)
        self._idx = rng.integers(0, 4096, 2048)
        self._acc = np.zeros(4096, dtype=np.int64)
        self._words = [f"w{i:05d}" for i in range(512)]
        self._cpus = sorted(os.sched_getaffinity(0)) if all_cpus else []

    def _pass(self) -> None:
        table: dict[str, int] = {}
        words = self._words
        for i in range(1500):
            word = words[(i * 7919) & 511]
            key = word + "/" + str(i & 63)
            table[key] = table.get(key, 0) + i
        np.add.at(self._acc, self._idx, 1)

    def stolen(self) -> float:
        """Seconds the hypervisor has stolen, mean over the CPUs (0.0
        without *all_cpus*): ``steal`` of each CPU in ``/proc/stat``."""
        if not self._cpus:
            return 0.0
        names = {f"cpu{cpu}" for cpu in self._cpus}
        ticks = 0
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] in names:
                    ticks += int(fields[8])
        return ticks / os.sysconf("SC_CLK_TCK") / len(self._cpus)

    def _timed_pass(self) -> float:
        start = time.perf_counter()
        self._pass()
        return time.perf_counter() - start

    def measure(self) -> float:
        """Seconds one pass takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            if not self._cpus:
                return self._timed_pass()
            times = []
            try:
                for cpu in self._cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(self._timed_pass())
            finally:
                os.sched_setaffinity(0, self._cpus)
            return sum(times) / len(times)
        finally:
            if enabled:
                gc.enable()


class HostClock:
    """The benchmark's clock: wall time with the reference passes cut out,
    and a map from it to *nominal* time, the time the same work would
    take on the host at its reference speed.

    Workloads call :meth:`tick` between units of work (a pump, a bulk
    call); every :data:`REF_EVERY_S` it runs one reference pass.  The
    stretch between two passes runs at the mean of their speeds and
    loses the share *s* of its time the hypervisor stole (averaged over
    :data:`STEAL_SMOOTHING` stretches each side; 0 unless the reference
    reads steal), so :meth:`nominal` maps a clock reading to
    ``sum(dt * (1 - s) * REF_NOMINAL_S / ref)`` over the stretches
    before it.  A request's adjusted latency is
    ``nominal(done) - nominal(due)``.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.paused = 0.0
        # (clock, ref seconds, stolen seconds so far)
        self.marks: list[tuple[float, float, float]] = []
        self._due = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def tick(self) -> None:
        """Run a reference pass if one is due."""
        if time.perf_counter() >= self._due:
            self.mark()

    def mark(self) -> None:
        """Run a reference pass now."""
        start = time.perf_counter()
        ref_s = self.reference.measure()
        self.marks.append((start - self.paused, ref_s,
                           self.reference.stolen()))
        end = time.perf_counter()
        self.paused += end - start
        self._due = end + REF_EVERY_S

    def nominal(self, readings) -> np.ndarray:
        """Nominal time of clock *readings* (one array or scalar)."""
        at, ref, stolen = np.array(self.marks, dtype=np.float64).T
        dt = np.diff(at)
        share = _window_sum(np.diff(stolen)) / _window_sum(dt)
        stretch = (dt * (1.0 - np.clip(share, 0.0, 0.5)) * REF_NOMINAL_S
                   / ((ref[:-1] + ref[1:]) / 2))
        return np.interp(readings, at, np.concatenate(([0.0],
                                                       np.cumsum(stretch))))

    def refs(self) -> list[float]:
        return [r for _, r, _ in self.marks]

    def stolen_share(self) -> float:
        """Share of the run's time the hypervisor stole (see above)."""
        (start, _, stolen0), (end, _, stolen1) = self.marks[0], self.marks[-1]
        return (stolen1 - stolen0) / (end - start)


def _window_sum(values: np.ndarray) -> np.ndarray:
    """Sum of each value and :data:`STEAL_SMOOTHING` neighbours each side."""
    cumulative = np.concatenate(([0.0], np.cumsum(values)))
    at = np.arange(values.size)
    return (cumulative[np.minimum(at + STEAL_SMOOTHING + 1, values.size)]
            - cumulative[np.maximum(at - STEAL_SMOOTHING, 0)])


class WallClock:
    """Plain wall clock for untimed phases: no reference passes."""

    now = staticmethod(time.perf_counter)

    def tick(self) -> None:
        pass


# -- input generators ------------------------------------------------------
class ZipfKeys:
    """Zipf(``s``) ranks over a universe of ``n`` keys, sampled by CDF.

    ``keys[rank]`` is the key served for a rank; the rank-to-key map is a
    seeded permutation so the hottest keys are not the smallest ids.
    """

    def __init__(self, n: int, s: float, seed: int, as_str: bool):
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        perm = np.random.default_rng([seed, 77]).permutation(n)
        if as_str:
            self.keys = [f"sku:{int(p):06x}" for p in perm]
        else:
            self.keys = [int(p) * 2654435761 % (1 << 40) for p in perm]

    def ranks(self, rng: np.random.Generator, size: int) -> list[int]:
        ranks = np.searchsorted(self.cdf, rng.random(size), side="right")
        return np.minimum(ranks, len(self.keys) - 1).tolist()


class OpStream:
    """Seeded point ops over a Zipf universe, deletes only of live keys.

    The stream keeps its own count per key of the ops it has generated.
    A delete targets its drawn key if that count is positive, else a
    second draw's key, else it turns into an insert of the drawn key; so
    every delete names a key whose true count is positive at that point
    of the submission order.  The counts are one fixed list over the
    universe, so the stream's memory does not grow with the run.
    """

    def __init__(self, zipf: ZipfKeys, mix: dict):
        self.zipf = zipf
        self.verbs = list(mix)
        self.shares = [mix[v] for v in self.verbs]
        self.counts = [0] * len(zipf.keys)

    def ops(self, rng: np.random.Generator, n: int) -> list[tuple]:
        verbs = self.verbs
        draws = rng.choice(len(verbs), size=n, p=self.shares).tolist()
        ranks = self.zipf.ranks(rng, n)
        spares = self.zipf.ranks(rng, n)
        thresholds = rng.integers(1, 4, n).tolist()
        keys, counts = self.zipf.keys, self.counts
        ops = []
        for verb_id, rank, spare, threshold in zip(draws, ranks, spares,
                                                   thresholds):
            verb = verbs[verb_id]
            if verb == "delete":
                if counts[rank] < 1:
                    rank = spare
                if counts[rank] < 1:
                    verb = "insert"
            if verb == "insert":
                counts[rank] += 1
                ops.append(("insert", keys[rank]))
            elif verb == "delete":
                counts[rank] -= 1
                ops.append(("delete", keys[rank]))
            elif verb == "contains":
                ops.append(("contains", keys[rank], threshold))
            else:
                ops.append(("query", keys[rank]))
        return ops


# -- the independent oracle ------------------------------------------------
def bloom_error(k: int, n: int, m: int) -> float:
    """E_b = (1 - e^{-kn/m})^k, the paper's Bloom error (§2.2)."""
    return (1.0 - math.exp(-k * n / m)) ** k


def overestimate_bound(e_b: float, sample: int) -> float:
    """Largest share of over-estimated keys a correct MS filter shows.

    A key is over-estimated with probability E_b (Claim 1), so over
    *sample* keys the share is binomial around E_b.  The bound allows
    25% on top of E_b for blocked hashing (all k probes of a key share
    one block, whose load varies around the mean) plus six standard
    deviations of the binomial, and one key.
    """
    sigma = math.sqrt(max(e_b * (1.0 - e_b), 1e-12) / sample)
    return min(1.0, 1.25 * e_b + 6.0 * sigma + 1.0 / sample)


class PointOracle:
    """Plain dict of true counts, checked against every point answer.

    The dict holds every key of the universe from the start, so it does
    not grow during the run."""

    def __init__(self, keys: list):
        self.truth: dict = dict.fromkeys(keys, 0)
        self.total = 0

    def apply(self, ops: list[tuple], results: list) -> int:
        """Check *results* against *ops* in submission order; returns the
        number of failed operations (exception results)."""
        truth = self.truth
        failed = 0
        for op, result in zip(ops, results):
            if isinstance(result, BaseException):
                failed += 1
                continue
            verb, key = op[0], op[1]
            if verb == "insert":
                truth[key] = truth.get(key, 0) + 1
                self.total += 1
            elif verb == "delete":
                count = truth.get(key, 0)
                if count < 1:
                    raise CheckFailed(f"delete of {key!r} acknowledged "
                                      f"with true count {count}")
                truth[key] = count - 1
                self.total -= 1
            elif verb == "query":
                true = truth.get(key, 0)
                if type(result) is not int or result < true:
                    raise CheckFailed(
                        f"query {key!r} answered {result!r} below its "
                        f"true count {true} (MS error is one-sided)")
            elif verb == "contains":
                if truth.get(key, 0) >= op[2] and result is not True:
                    raise CheckFailed(
                        f"contains({key!r}, {op[2]}) answered {result!r} "
                        f"with true count {truth.get(key, 0)}")
        return failed


def check_universe(estimates, keys: list, truth: dict, k: int, m: int,
                   ) -> dict:
    """End-of-run accuracy over every key of the universe."""
    est = np.asarray(estimates, dtype=np.int64)
    true = np.fromiter((truth.get(key, 0) for key in keys), dtype=np.int64,
                       count=len(keys))
    low = np.flatnonzero(est < true)
    if low.size:
        i = int(low[0])
        raise CheckFailed(f"{low.size} key(s) estimated below their true "
                          f"count, e.g. {keys[i]!r}: {int(est[i])} < "
                          f"{int(true[i])}")
    n_live = int(np.count_nonzero(true))
    e_b = bloom_error(k, n_live, m)
    share = float(np.count_nonzero(est > true)) / len(keys)
    bound = overestimate_bound(e_b, len(keys))
    if share > bound:
        raise CheckFailed(f"{share:.4f} of keys over-estimated, above the "
                          f"bound {bound:.4f} derived from E_b={e_b:.4f}")
    return {"n_live": n_live, "e_b": e_b, "overestimate_share": share,
            "overestimate_bound": bound}


# -- summaries -------------------------------------------------------------
class LatencyHistogram:
    """Latencies in log-spaced bins 0.05% wide, from 1 us to 1000 s.

    Its memory is fixed whatever the run's length, so the harness's own
    bookkeeping does not show in ``memory_bytes``; a percentile is read
    to within half a bin (0.025%).
    """

    RATIO = 1.0005

    def __init__(self):
        step = math.log(self.RATIO)
        self.edges = np.exp(np.arange(math.log(1e-6), math.log(1e3), step))
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)

    def add(self, seconds: np.ndarray) -> None:
        bins = np.searchsorted(self.edges, seconds)
        self.counts += np.bincount(bins, minlength=self.counts.size)

    def __len__(self) -> int:
        return int(self.counts.sum())

    def percentile(self, q: float) -> float:
        """The *q*-th percentile, in seconds (bin's geometric middle)."""
        cumulative = np.cumsum(self.counts)
        rank = max(1.0, q / 100.0 * cumulative[-1])
        i = int(np.searchsorted(cumulative, rank))
        i = min(max(i, 1), self.edges.size - 1)
        return float(self.edges[i] / math.sqrt(self.RATIO))


def release_free_memory() -> None:
    """Return the heap's free pages to the OS (glibc ``malloc_trim``).

    Called before each set-up, so that every set-up allocates fresh pages
    as a cold start does, instead of some reusing the pages the fleet torn
    down before it left in the heap and others not (which split set-up
    times into two populations, and per-run medians with them).  A no-op
    where the C library has no ``malloc_trim``.
    """
    try:
        libc = ctypes.CDLL(None)
        trim = libc.malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def pss_bytes(pid: int | str = "self") -> int:
    """Proportional set size of a process: shared pages split among the
    processes mapping them, so a sum over processes counts each once.
    Falls back to resident size where ``smaps_rollup`` is missing."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise OSError(f"no memory figures for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks
