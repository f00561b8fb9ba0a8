"""Per-sandbox runtime: synthetic workloads, CPU/memory pressure monitors,
and the requests they raise.

Every workload is a sequence of chunks (`Workload`). The runtime keeps one
cursor, the chunk it runs and the work that chunk has left, moves it with
one price per run of equal chunks, and never asks which workload it runs.

Work is tracked in an integer fixed-point unit (milli-units times
nanoseconds) so that total work done equals rate times time exactly under
any ownership schedule.
"""

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .errors import BadState
from .state import DICT, KEYED, SHARED, Schema, copied
from .units import MB, MS_NS, S_NS, align_up

# Fixed-point scale: one work unit is 1000 milli-units; rates are
# milli-units per millisecond, so rate * dt_ns consumes scaled work directly.
WORK_SCALE = 1000 * MS_NS

BIG_RATE_MU_MS = 1000    # 1.0 unit/ms
LITTLE_RATE_MU_MS = 350  # 0.35 unit/ms
DEFAULT_GPU_SPEEDUP_PCT = 357  # x3.57

USAGE_SAMPLE_NS = 100 * MS_NS
INCREASE_WINDOW_SAMPLES = 20   # 2 s of 100 ms samples
RELEASE_WINDOW_SAMPLES = 50    # 5 s
INCREASE_THRESHOLD_PERMILLE = 990
RELEASE_THRESHOLD_PERMILLE = 400
HYSTERESIS_NS = 1 * S_NS

# The rule's thresholds as window totals: an average above the increase
# threshold, and a full window's average below the release threshold.
_INCREASE_TOTAL = (INCREASE_THRESHOLD_PERMILLE + 1) * INCREASE_WINDOW_SAMPLES
_RELEASE_TOTAL = RELEASE_THRESHOLD_PERMILLE * RELEASE_WINDOW_SAMPLES
_AGGREGATE = itemgetter(0)  # of a usage sample

MEM_GRANULE = 16 * MB


class Workload:
    """Chunks run one after another; a chunk's scaled cost is fixed when it
    starts, from the cache memory owned then. At one cache size, every chunk
    of a run of chunks over one working set costs the same. No chunks here."""

    parallelizable = True   # False: only the boot core works on it
    gpu_speedup_pct = 100   # rate factor while a GPU is owned
    cache_base_bytes: Optional[int] = None  # None: no memory demand

    def chunks(self) -> int:
        return 0

    def chunk_scaled(self, i: int, cache_bytes: int) -> int:
        raise IndexError(i)

    def working_set_bytes(self, i: int) -> int:
        return 0

    def run_starts(self) -> Tuple[int, ...]:
        """The first chunk of each run of chunks over one working set, then
        the chunk count: one run here, every working set being 0."""
        return (0, self.chunks()) if self.chunks() else (0,)


@dataclass(frozen=True)
class Idle(Workload):
    pass


@dataclass(frozen=True)
class InferenceBatch(Workload):
    """One chunk: the whole batch."""

    images: int
    units_per_image: int
    parallelizable: bool = True
    gpu_speedup_pct: int = DEFAULT_GPU_SPEEDUP_PCT

    def chunks(self) -> int:
        return 1

    def chunk_scaled(self, i: int, cache_bytes: int) -> int:
        return self.images * self.units_per_image * WORK_SCALE


@dataclass(frozen=True)
class CipherQuery(Workload):
    """Query workload over encrypted files, one chunk per query, priced by
    its file's size alone: the part of a file that fits in the owned cache
    memory scans cheap, the rest pays a decrypt penalty."""

    file_sizes: Tuple[int, ...]
    queries_per_file: int = 10
    cache_base_bytes: int = 10 * MB
    scan_units_per_mb: int = 10
    miss_units_per_mb: int = 50

    def chunks(self) -> int:
        return len(self.file_sizes) * self.queries_per_file

    def chunk_scaled(self, i: int, cache_bytes: int) -> int:
        return self.query_scaled(self.working_set_bytes(i), cache_bytes)

    def working_set_bytes(self, i: int) -> int:
        return self.file_sizes[i // self.queries_per_file]

    def run_starts(self) -> Tuple[int, ...]:
        # A run is the queries of one file, or of neighbouring equal files.
        q = self.queries_per_file
        return tuple(accumulate((q * len(list(run)) for _, run in groupby(self.file_sizes)
                                 if q), initial=0))

    def query_scaled(self, file_bytes: int, cache_bytes: int) -> int:
        whole_mb = -(-file_bytes // MB)
        uncached_mb = -(-max(0, file_bytes - cache_bytes) // MB)
        units = whole_mb * self.scan_units_per_mb \
            + uncached_mb * self.miss_units_per_mb
        return units * WORK_SCALE


@dataclass(frozen=True)
class AdjustRequest:
    kind: str                      # "increase_core" | "release_core"
    core_class: Optional[str] = None
    core_id: Optional[int] = None


@dataclass(frozen=True)
class MemRequest:
    kind: str                      # "attach" | "detach"
    nbytes: int


class UsageWindow:
    """The CPU monitor's window: the last RELEASE_WINDOW_SAMPLES usage
    samples, each (aggregate, {core: permille}), oldest first, kept as runs
    of equal samples, (sample, count): a tick appends one sample, and a fold
    appends copies of the last one."""

    def __init__(self):
        self.runs: deque = deque()
        self.count = 0

    def copy(self) -> "UsageWindow":
        twin = UsageWindow()
        twin.runs, twin.count = deque(self.runs), self.count
        return twin

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator:
        return chain.from_iterable(repeat(sample, n) for sample, n in self.runs)

    def append(self, sample: Tuple[int, Dict[int, int]], copies: int = 1) -> None:
        runs = self.runs
        if runs and runs[-1][0] == sample:
            runs[-1] = (sample, runs[-1][1] + copies)
        else:
            runs.append((sample, copies))
        self.count += copies
        while self.count > RELEASE_WINDOW_SAMPLES:  # the oldest go
            oldest, n = runs.popleft()
            excess = self.count - RELEASE_WINDOW_SAMPLES
            if n > excess:
                runs.appendleft((oldest, n - excess))
            self.count -= min(n, excess)

    def repeat_last(self, copies: int) -> None:
        self.append(self.runs[-1][0], min(copies, RELEASE_WINDOW_SAMPLES))

    def ahead(self, width: int, value: Callable) -> Tuple[int, List[Tuple[int, int]]]:
        """The total of value over the last `width` samples as they stand,
        and how further copies of the last sample move it: (step, copies)
        in turn, a copy adding its value and, once `width` are held, taking
        off the oldest's. Past those copies the total stays."""
        runs = reversed(self.runs)
        sample, n = next(runs)
        last = value(sample)
        total, room, steps = last * min(n, width), width - n, []
        for sample, n in runs:  # newest first, while within the last width
            if room <= 0:
                break
            v, n = value(sample), min(n, room)
            total += v * n
            steps.append((last - v, n))
            room -= n
        if room > 0:  # the copies that fill a short window take nothing off
            steps.append((last, room))
        return total, steps[::-1]


def _first_reaching(total: int, steps: List[Tuple[int, int]], first: int, last: int,
                    bound: int) -> Optional[int]:
    """The first j in first..last at which a total moved by j copies, as
    `UsageWindow.ahead` gives it, is at least bound; None if at none."""
    j = 0
    for step, n in steps:
        lo = max(first, j)
        if lo <= min(last, j + n):
            if total + step * (lo - j) >= bound:
                return lo
            if step > 0 and j - (total - bound) // step <= min(last, j + n):
                return j - (total - bound) // step
        total, j = total + step * n, j + n
    lo = max(first, j)
    return lo if lo <= last and total >= bound else None


# Past terminating a runtime leaves the world (`World._dead`).
_STATE_ORDER = ["booting", "running", "terminating"]

# Why the timing fields are not keyed.
_CLOCK = ("simulated time; exploration runs in instant mode, where the clock "
          "stays at 0 and no tick or completion event runs")


class SandboxRuntime:
    def __init__(self, sandbox_id: int, max_cores: int,
                 max_memory: int, boot_core: int, boot_core_class: str,
                 base_bytes: int, workload=None,
                 mem_granule: int = MEM_GRANULE):
        self.id = sandbox_id
        self.state = "booting"
        self.max_cores = max_cores
        self.max_memory = max_memory
        self.boot_core = boot_core
        self.base_bytes = base_bytes
        self.mem_granule = mem_granule
        # Runtime's own view of what it may use; the ledger stays the truth.
        self.cores: Dict[int, str] = {boot_core: boot_core_class}
        self.devices: Dict[str, str] = {}  # device -> its kind
        self.workload: Workload = workload if workload is not None else Idle()
        # Progress: the chunk being run and the scaled work it has left.
        self._chunk = 0
        self.remaining_scaled = 0
        self._prefix: tuple = (None,)  # built by _sums
        self._attached_bytes = 0
        self.mem_pending = False
        # Accounting.
        self.work_started_ns: Optional[int] = None
        self.work_finished_ns: Optional[int] = None
        self._last_account_ns: Optional[int] = None
        self.usage = UsageWindow()
        self.hysteresis_until_ns = 0

    # -- state machine -----------------------------------------------------

    def advance(self, new_state: str) -> None:
        cur = _STATE_ORDER.index(self.state)
        if _STATE_ORDER[cur + 1:cur + 2] != [new_state]:
            raise BadState(f"sandbox {self.id}: {self.state} -> {new_state}")
        self.state = new_state

    def require_running(self) -> None:
        if self.state != "running":
            raise BadState(f"sandbox {self.id} is {self.state}")

    # -- workload ------------------------------------------------------------

    def busy(self) -> bool:
        return self.state == "running" and self._chunk < self.workload.chunks()

    def rate_mu_ms(self) -> int:
        """Aggregate compute rate over owned cores (boot core only for
        non-parallelizable work), GPU factor applied."""
        classes = self.cores.values() if self.workload.parallelizable \
            else (self.cores[self.boot_core],)
        rate = sum(BIG_RATE_MU_MS if c == "big" else LITTLE_RATE_MU_MS for c in classes)
        if "gpu" in self.devices.values():
            rate = rate * self.workload.gpu_speedup_pct // 100
        return rate

    def start_work(self, now_ns: int) -> None:
        """Run the workload from its first chunk."""
        self.work_started_ns = now_ns
        self.work_finished_ns = None
        self._last_account_ns = now_ns
        self._seek(0)

    def _sums(self) -> tuple:
        """(workload, cache bytes, the first chunk of each run of chunks over
        one working set and then the chunk count, and at that cache each
        run's cost per chunk and the scaled work before it, then 0 and the
        total). Only the costs depend on the cache."""
        w, cache = self.workload, self._cache_bytes()
        if self._prefix[0] is not w:
            self._prefix = (w, None, w.run_starts())
        if self._prefix[1] != cache:
            starts = self._prefix[2]
            costs = tuple(max(0, w.chunk_scaled(i, cache)) for i in starts[:-1]) + (0,)
            self._prefix = (w, cache, starts, costs, tuple(accumulate(
                (c * (b - a) for c, a, b in zip(costs, starts, starts[1:])), initial=0)))
        return self._prefix

    def _seek(self, pos: int) -> None:
        """Run from pos scaled units in: a chunk that costs nothing is no work."""
        _, _, starts, costs, before = self._sums()
        pos = min(pos, before[-1])
        r = bisect_right(before, pos) - 1
        k, into = divmod(pos - before[r], costs[r] or 1)
        self._chunk, self.remaining_scaled = starts[r] + k, costs[r] - into

    def _cache_bytes(self) -> int:
        return (self.workload.cache_base_bytes or 0) + self._attached_bytes

    def working_set_bytes(self) -> int:
        return self.workload.working_set_bytes(self._chunk) if self.busy() else 0

    def used_bytes(self, working_set: int) -> int:
        """Memory the runtime is actually using, given its working set: the
        OS image footprint plus whatever part of it fits the cache
        allocation."""
        cache_base = self.workload.cache_base_bytes
        if cache_base is None:
            return self.base_bytes
        return self.base_bytes - cache_base + min(working_set, self._cache_bytes())

    def step_workload(self, dt_ns: int) -> int:
        """Consume work for dt at the current rate; returns scaled work done."""
        self.require_running()
        if dt_ns < 0:
            raise BadState("negative step")
        budget = self.rate_mu_ms() * dt_ns
        if budget <= 0 or not self.busy():
            return 0
        if budget < self.remaining_scaled:
            self.remaining_scaled -= budget
            return budget
        left = self._scaled_left()[1]
        self._seek(self._sums()[4][-1] - left + budget)
        return min(budget, left)

    def account_to(self, now_ns: int) -> None:
        """Fold elapsed time into the workload; call before any rate change."""
        if self.state != "running" or self._last_account_ns is None:
            return
        dt = now_ns - self._last_account_ns
        self._last_account_ns = now_ns
        if dt > 0 and self.busy():
            self.step_workload(dt)
            if not self.busy() and self.work_finished_ns is None:
                self.work_finished_ns = now_ns

    def finish_eta_ns(self) -> Optional[int]:
        """Time to finish from the last accounting point at the current
        rate, or None when idle."""
        if not self.busy():
            return None
        rate = self.rate_mu_ms()
        if rate == 0:
            return None
        return -(-self._scaled_left()[1] // rate)

    def working_set_left_scaled(self) -> int:
        """Scaled work left before the working set changes: the rest of the
        run of chunks over the current chunk's working set (busy only)."""
        return self._scaled_left()[0]

    def _scaled_left(self) -> Tuple[int, int]:
        """Scaled work left in the current chunk's run and in the whole
        workload, at the current cache (busy only)."""
        _, _, starts, costs, before = self._sums()
        r = bisect_right(starts, self._chunk)
        run = self.remaining_scaled + costs[r - 1] * (starts[r] - self._chunk - 1)
        return run, run + before[-1] - before[r]

    # -- usage sampling and monitors ----------------------------------------

    def sample_usage(self, now_ns: int, busy_ns_in_window: int) -> None:
        permille = min(1000, busy_ns_in_window * 1000 // USAGE_SAMPLE_NS)
        if self.workload.parallelizable:
            per_core = dict.fromkeys(self.cores, permille)
        else:
            per_core = {cid: permille if cid == self.boot_core else 0
                        for cid in self.cores}
        agg = sum(per_core.values()) // max(1, len(per_core))
        self.usage.append((agg, per_core))

    def surplus_cores(self) -> List[int]:
        """Cores held beyond the boot core, lowest first: the ones a
        release may give back."""
        return sorted(c for c in self.cores if c != self.boot_core)

    def _cores_fixed(self) -> bool:
        """The CPU monitor can neither grow nor release a core."""
        return len(self.cores) >= self.max_cores and self.cores.keys() <= {self.boot_core}

    def monitor_cpu(self, now_ns: int) -> Optional[AdjustRequest]:
        # Every request needs at least INCREASE_WINDOW_SAMPLES samples.
        if self.state != "running" or now_ns < self.hysteresis_until_ns \
                or len(self.usage) < INCREASE_WINDOW_SAMPLES or self._cores_fixed():
            return None
        return self.cpu_request(0, 0)[1]

    def cpu_request(self, first: int, last: int
                    ) -> Tuple[Optional[int], Optional[AdjustRequest]]:
        """The CPU monitor's rule, hysteresis aside, asked of the window with
        j more copies of its last sample for each j in first..last: the first
        such j that raises a request, and the request; (None, None) if none
        does. It asks for a core when the last INCREASE_WINDOW_SAMPLES
        aggregates average above INCREASE_THRESHOLD_PERMILLE, and gives back
        a surplus core that a full window saw owned throughout at an average
        below RELEASE_THRESHOLD_PERMILLE."""
        w, found = self.usage, []
        if len(self.cores) < self.max_cores:
            j = _first_reaching(*w.ahead(INCREASE_WINDOW_SAMPLES, _AGGREGATE),
                                max(first, INCREASE_WINDOW_SAMPLES - len(w)), last,
                                _INCREASE_TOTAL)
            if j is not None:
                found.append((j, AdjustRequest("increase_core",
                                               core_class=self.cores[self.boot_core])))
        for cid in self.surplus_cores():
            owned = 0  # the samples at the window's end taken while cid was owned
            for sample, n in reversed(w.runs):
                if cid not in sample[1]:
                    break
                owned += n
            # From j = RELEASE_WINDOW_SAMPLES - owned on, a full window saw cid
            # owned throughout. Its total is below the bound when the negated
            # total is at least 1 - bound.
            start = max(first, RELEASE_WINDOW_SAMPLES - owned)
            j = _first_reaching(*w.ahead(RELEASE_WINDOW_SAMPLES, lambda s: -s[1].get(cid, 0)),
                                start, last, 1 - _RELEASE_TOTAL) \
                if owned and start <= last else None
            if j is not None:
                found.append((j, AdjustRequest("release_core", core_id=cid)))
        return min(found, key=itemgetter(0), default=(None, None))

    def ticks_before_request(self, now_ns: int, count: int) -> int:
        """How many of the count ticks after now_ns, each appending the
        window's last sample, pass before the first one at or past the
        hysteresis end that raises a CPU request: one question to
        `cpu_request`, over those ticks."""
        if self._cores_fixed():
            return count
        first = max(1, -(-(self.hysteresis_until_ns - now_ns) // USAGE_SAMPLE_NS))
        j = self.cpu_request(first, count)[0] if first <= count else None
        return count if j is None else j - 1

    def monitor_memory(self, requested_bytes: int) -> Optional[MemRequest]:
        """Attach when the demanded bytes outgrow the owned dynamic memory,
        detach whole granules once they are free again."""
        if self.state != "running" or self.workload.cache_base_bytes is None:
            return None
        need = max(0, requested_bytes - self._cache_bytes())
        if need > 0:
            ask = align_up(need, self.mem_granule)
            room = self.max_memory - self.base_bytes - self._attached_bytes
            ask = min(ask, room - room % self.mem_granule)
            if ask > 0:
                return MemRequest("attach", ask)
            return None
        slack = self._cache_bytes() - requested_bytes
        free_granules = min(slack // self.mem_granule,
                            self._attached_bytes // self.mem_granule)
        if free_granules > 0:
            return MemRequest("detach", free_granules * self.mem_granule)
        return None

    # -- cloning for exploration ------------------------------------------------

    STATE = Schema(
        id=KEYED, state=KEYED,
        max_cores=SHARED, max_memory=SHARED, boot_core=SHARED, base_bytes=SHARED,
        mem_granule=SHARED,
        workload=SHARED,  # parameters only; progress is in the fields below
        cores=DICT, devices=DICT,
        _chunk=KEYED, remaining_scaled=KEYED,
        _prefix=copied("derived from workload and _attached_bytes"),
        _attached_bytes=KEYED,
        mem_pending=copied("set and cleared inside one op in instant mode"),
        work_started_ns=copied(_CLOCK), work_finished_ns=copied(_CLOCK),
        _last_account_ns=copied(_CLOCK), hysteresis_until_ns=copied(_CLOCK),
        usage=copied(_CLOCK, copy=UsageWindow.copy),
    )
    clone = STATE.clone
    canonical = STATE.canonical
    __eq__ = STATE.same  # so World.runtimes compares by value
