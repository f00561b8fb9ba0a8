import random
from collections import deque
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teesim.errors import BadState
from teesim.sos import (
    HYSTERESIS_NS,
    INCREASE_WINDOW_SAMPLES,
    RELEASE_WINDOW_SAMPLES,
    USAGE_SAMPLE_NS,
    CipherQuery,
    Idle,
    InferenceBatch,
    SandboxRuntime,
    UsageWindow,
    WORK_SCALE,
)
from teesim.units import MB, MS_NS, S_NS


def running_runtime(workload=None, max_cores=2, cores=("big",)):
    rt = SandboxRuntime(1, max_cores=max_cores, max_memory=512 * MB,
                        boot_core=4, boot_core_class=cores[0],
                        base_bytes=128 * MB, workload=workload)
    rt.advance("running")
    for i, cls in enumerate(cores[1:], start=5):
        rt.cores[i] = cls
    rt.start_work(0)
    return rt


def test_one_big_core_100ms_is_100_units():
    rt = running_runtime(InferenceBatch(images=10, units_per_image=100))
    done = rt.step_workload(100 * MS_NS)
    assert done == 100 * WORK_SCALE


def test_two_big_cores_parallel_double_rate():
    rt = running_runtime(InferenceBatch(images=10, units_per_image=100),
                         cores=("big", "big"))
    assert rt.step_workload(100 * MS_NS) == 200 * WORK_SCALE


def test_serial_workload_uses_boot_core_only():
    rt = running_runtime(
        InferenceBatch(images=10, units_per_image=100, parallelizable=False),
        cores=("big", "big"),
    )
    assert rt.step_workload(100 * MS_NS) == 100 * WORK_SCALE


def test_little_core_rate():
    rt = running_runtime(InferenceBatch(images=10, units_per_image=100),
                         cores=("little",))
    assert rt.step_workload(100 * MS_NS) == 35 * WORK_SCALE


def test_gpu_factor_357():
    wl = InferenceBatch(images=10, units_per_image=1000)
    rt = running_runtime(wl)
    rt.devices["gpu"] = "gpu"
    assert rt.step_workload(100 * MS_NS) == 357 * WORK_SCALE


def test_step_requires_running():
    rt = SandboxRuntime(1, 1, 512 * MB, 4, "big", 128 * MB,
                        InferenceBatch(1, 1))
    with pytest.raises(BadState):
        rt.step_workload(MS_NS)


def test_work_remaining_strictly_decreases_while_busy():
    rt = running_runtime(InferenceBatch(images=3, units_per_image=50))
    prev = rt.remaining_scaled
    while rt.busy():
        rt.step_workload(10 * MS_NS)
        assert rt.remaining_scaled < prev or not rt.busy()
        prev = rt.remaining_scaled
    assert rt.remaining_scaled == 0


def test_increase_fires_after_2s_of_full_usage():
    rt = running_runtime(InferenceBatch(images=1000, units_per_image=1000))
    for i in range(INCREASE_WINDOW_SAMPLES):
        rt.sample_usage((i + 1) * USAGE_SAMPLE_NS, USAGE_SAMPLE_NS)
    req = rt.monitor_cpu(INCREASE_WINDOW_SAMPLES * USAGE_SAMPLE_NS)
    assert req is not None and req.kind == "increase_core"
    assert req.core_class == "big"


def test_increase_gated_by_quota():
    rt = running_runtime(InferenceBatch(images=1000, units_per_image=1000),
                         max_cores=1)
    for i in range(INCREASE_WINDOW_SAMPLES):
        rt.sample_usage((i + 1) * USAGE_SAMPLE_NS, USAGE_SAMPLE_NS)
    assert rt.monitor_cpu(2 * S_NS) is None


def test_release_fires_after_5s_idle_surplus():
    rt = running_runtime(Idle(), cores=("big", "big"))
    for i in range(RELEASE_WINDOW_SAMPLES):
        rt.sample_usage((i + 1) * USAGE_SAMPLE_NS, 30 * MS_NS)  # 30% busy
    req = rt.monitor_cpu(RELEASE_WINDOW_SAMPLES * USAGE_SAMPLE_NS)
    assert req is not None and req.kind == "release_core" and req.core_id == 5


def test_hysteresis_suppresses_requests():
    rt = running_runtime(InferenceBatch(images=1000, units_per_image=1000))
    for i in range(INCREASE_WINDOW_SAMPLES):
        rt.sample_usage((i + 1) * USAGE_SAMPLE_NS, USAGE_SAMPLE_NS)
    now = INCREASE_WINDOW_SAMPLES * USAGE_SAMPLE_NS
    rt.hysteresis_until_ns = now + HYSTERESIS_NS
    assert rt.monitor_cpu(now) is None
    assert rt.monitor_cpu(now + HYSTERESIS_NS) is not None


def test_threshold_fidelity_against_bruteforce_window():
    """monitor_cpu's increase decision must match a direct evaluation of the
    trailing 2s window on random usage traces."""
    rng = random.Random(17)
    for _ in range(300):
        rt = running_runtime(InferenceBatch(images=10**6, units_per_image=1))
        trace = [rng.choice([0, 50 * MS_NS, 99 * MS_NS, USAGE_SAMPLE_NS])
                 for _ in range(rng.randint(1, 70))]
        for i, busy in enumerate(trace):
            rt.sample_usage((i + 1) * USAGE_SAMPLE_NS, busy)
        now = len(trace) * USAGE_SAMPLE_NS
        got = rt.monitor_cpu(now)
        window = trace[-INCREASE_WINDOW_SAMPLES:]
        if len(window) < INCREASE_WINDOW_SAMPLES:
            expect = False
        else:
            permille = [min(1000, b * 1000 // USAGE_SAMPLE_NS) for b in window]
            expect = sum(permille) // INCREASE_WINDOW_SAMPLES > 990
        assert (got is not None and got.kind == "increase_core") == expect


def test_memory_monitor_requests_16mb_granules():
    wl = CipherQuery(file_sizes=(40 * MB,), cache_base_bytes=10 * MB)
    rt = running_runtime(wl)
    req = rt.monitor_memory(40 * MB)
    assert req is not None and req.kind == "attach"
    assert req.nbytes == 32 * MB  # two 16MB granules cover the 30MB shortfall


def test_memory_monitor_quiet_when_fits():
    wl = CipherQuery(file_sizes=(8 * MB,), cache_base_bytes=10 * MB)
    rt = running_runtime(wl)
    assert rt.monitor_memory(8 * MB) is None


def test_memory_monitor_detaches_freed_granules():
    wl = CipherQuery(file_sizes=(40 * MB, 10 * MB), cache_base_bytes=10 * MB)
    rt = running_runtime(wl)
    rt._attached_bytes = 32 * MB
    req = rt.monitor_memory(10 * MB)
    assert req is not None and req.kind == "detach" and req.nbytes == 32 * MB


def test_state_transitions_enforced():
    rt = SandboxRuntime(1, 1, 512 * MB, 4, "big", 128 * MB)
    assert rt.state == "booting"
    with pytest.raises(BadState):
        rt.advance("terminating")
    rt.advance("running")
    with pytest.raises(BadState):
        rt.advance("dead")


def test_cipher_cost_depends_on_cache():
    wl = CipherQuery(file_sizes=(100 * MB,), queries_per_file=1,
                     cache_base_bytes=10 * MB, scan_units_per_mb=10,
                     miss_units_per_mb=50)
    small = wl.query_scaled(100 * MB, 10 * MB)
    large = wl.query_scaled(100 * MB, 100 * MB)
    assert small == (100 * 10 + 90 * 50) * WORK_SCALE
    assert large == 100 * 10 * WORK_SCALE


@pytest.mark.parametrize("wl", [
    CipherQuery(file_sizes=(0,)),
    CipherQuery(file_sizes=(10 * MB,), queries_per_file=0),
    CipherQuery(file_sizes=(10 * MB,), scan_units_per_mb=0, miss_units_per_mb=0),
], ids=["files=0", "queries=0", "scan=0,miss=0"])
def test_zero_cost_work_is_no_work(wl):
    """A busy runtime always has time left to finish: with a zero ETA the
    completion event would reschedule itself forever at one instant."""
    rt = running_runtime(wl)
    assert not rt.busy() or rt.finish_eta_ns() > 0


def test_restarted_cipher_runs_from_its_first_query():
    wl = CipherQuery(file_sizes=(10 * MB, 20 * MB), queries_per_file=2)
    rt = running_runtime(wl)
    rt.step_workload(10 * S_NS)
    assert not rt.busy()
    rt.start_work(10 * S_NS)
    assert rt.busy() and rt.working_set_bytes() == 10 * MB
    assert rt.finish_eta_ns() == 200 * MS_NS + 1400 * MS_NS


class SteppedRuntime(SandboxRuntime):
    """The oracle for the runtime's accounting: a runtime that starts every
    chunk it crosses, one at a time, and sums or scans the chunks ahead on
    every estimate."""

    def start_work(self, now_ns):
        self.work_started_ns = now_ns
        self.work_finished_ns = None
        self._last_account_ns = now_ns
        self._start_chunk(0)

    def _start_chunk(self, i):
        w, cache = self.workload, self._cache_bytes()
        while i < w.chunks() and w.chunk_scaled(i, cache) <= 0:
            i += 1
        self._chunk = i
        self.remaining_scaled = w.chunk_scaled(i, cache) if i < w.chunks() else 0

    def step_workload(self, dt_ns):
        self.require_running()
        budget, done = self.rate_mu_ms() * dt_ns, 0
        while budget > 0 and self.busy():
            take = min(budget, self.remaining_scaled)
            self.remaining_scaled -= take
            done += take
            budget -= take
            if self.remaining_scaled == 0:
                self._start_chunk(self._chunk + 1)
        return done

    def working_set_left_scaled(self):
        w = self.workload
        end, ws = self._chunk + 1, w.working_set_bytes(self._chunk)
        while end < w.chunks() and w.working_set_bytes(end) == ws:
            end += 1
        return self._scaled_before(end)

    def _scaled_left(self):
        return self.working_set_left_scaled(), self._scaled_before(self.workload.chunks())

    def _scaled_before(self, end):
        w, cache = self.workload, self._cache_bytes()
        return self.remaining_scaled + sum(
            max(0, w.chunk_scaled(i, cache)) for i in range(self._chunk + 1, end))


def _runtime(cls, workload, cores):
    rt = cls(1, max_cores=4, max_memory=512 * MB, boot_core=4,
             boot_core_class=cores[0], base_bytes=128 * MB, workload=workload)
    rt.advance("running")
    rt.cores.update(enumerate(cores[1:], start=5))
    rt.start_work(0)
    return rt


def _progress(rt):
    return (rt._chunk, rt.remaining_scaled, rt.work_finished_ns, rt.busy(),
            rt.finish_eta_ns(), rt.working_set_left_scaled() if rt.busy() else None)


# Sizes in whole and odd MB, 0 included: a zero-size file, a zero query
# count and zero unit costs make chunks that cost nothing, and so does a
# scan cost of 0 for a file that fits the cache.
_WORKLOADS = st.one_of(
    st.builds(CipherQuery,
              file_sizes=st.lists(st.sampled_from([0, 1, 3, 10, 17, 32]).map(
                  lambda mb: mb * MB), min_size=1, max_size=5).map(tuple),
              queries_per_file=st.integers(0, 4),
              cache_base_bytes=st.sampled_from([0, 10 * MB]),
              scan_units_per_mb=st.sampled_from([0, 1, 10]),
              miss_units_per_mb=st.sampled_from([0, 5, 50])),
    st.builds(InferenceBatch, images=st.integers(0, 4),
              units_per_image=st.sampled_from([0, 1, 250, 1000]),
              parallelizable=st.booleans()),
)


def _compare_with_stepper(workload, cores, steps):
    """Run the runtime and the chunk stepper through the same steps, each
    (dt, attached granules, direct): account up to a time, or step the
    workload directly, then move the cache. Their progress must match at
    the start and after every step; returns the runtime's progress."""
    rt, oracle = _runtime(SandboxRuntime, workload, cores), \
        _runtime(SteppedRuntime, workload, cores)
    seen = [_progress(rt)]
    assert seen[-1] == _progress(oracle)
    now = 0
    for dt, granules, direct in steps:
        now += dt
        if direct:
            assert rt.step_workload(dt) == oracle.step_workload(dt)
        else:
            rt.account_to(now)
            oracle.account_to(now)
        for r in (rt, oracle):
            r._attached_bytes = granules * 16 * MB
        seen.append(_progress(rt))
        assert seen[-1] == _progress(oracle), now
    return seen


@given(workload=_WORKLOADS,
       cores=st.sampled_from([("big",), ("little",), ("big", "little", "big")]),
       steps=st.lists(st.tuples(st.integers(0, 1500).map(lambda ms: ms * MS_NS),
                                st.integers(0, 3), st.booleans()), max_size=12))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_prefix_accounting_matches_a_chunk_stepper(workload, cores, steps):
    """Accounting by the price of each run of chunks does the work, and
    leaves the cursor, the finish time and every estimate, where stepping
    chunk by chunk does, while the cache grows and shrinks between steps."""
    _compare_with_stepper(workload, cores, steps)


def test_stepper_agrees_across_a_run_that_costs_nothing():
    """A step that ends where the first file's queries end lands past the
    empty file's, on the first query of the third file (700 units: 200 to
    scan 20 MB, 500 for the 10 MB the cache misses)."""
    seen = _compare_with_stepper(
        CipherQuery(file_sizes=(10 * MB, 0, 20 * MB)), ("big",),
        [(250 * MS_NS, 0, False), (750 * MS_NS, 0, False), (1 * MS_NS, 0, True),
         (699 * MS_NS, 0, False), (3 * S_NS, 0, True), (10 * S_NS, 0, False)])
    assert seen[2][:2] == (20, 700 * WORK_SCALE)
    assert not seen[-1][3]


def test_stepper_agrees_when_the_cache_moves_inside_a_run():
    """The cache grows and shrinks while a query of the first file runs: the
    query keeps the cost it started with, the rest of the run takes the new
    one (700 units per query at a 10 MB cache, 200 at 26 MB)."""
    seen = _compare_with_stepper(
        CipherQuery(file_sizes=(20 * MB, 40 * MB)), ("big",),
        [(2450 * MS_NS, 1, False), (400 * MS_NS, 0, False), (100 * MS_NS, 1, True),
         (3 * S_NS, 2, False), (60 * S_NS, 0, False)])
    assert seen[1][:2] == (3, 350 * WORK_SCALE)
    assert seen[2][:2] == (4, 150 * WORK_SCALE)
    assert not seen[-1][3]


@given(workload=_WORKLOADS)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_chunks_of_a_run_cost_the_same(workload):
    """The runtime prices one chunk of each run of chunks over one working
    set and charges that price for all of them, so every chunk of such a
    run must cost the same at any one cache size."""
    for cache in (0, 1 * MB - 1, 3 * MB, 10 * MB, 17 * MB + 1, 64 * MB):
        for _, run in groupby(range(workload.chunks()), workload.working_set_bytes):
            assert len({workload.chunk_scaled(i, cache) for i in run}) == 1, cache


def _request(rt, window):
    """The CPU monitor's rule, counted afresh over a window's samples."""
    if len(window) >= INCREASE_WINDOW_SAMPLES and len(rt.cores) < rt.max_cores:
        recent = list(window)[-INCREASE_WINDOW_SAMPLES:]
        if sum(a for a, _ in recent) // INCREASE_WINDOW_SAMPLES > 990:
            return "increase_core"
    for cid in rt.surplus_cores():
        vals = [pc[cid] for _, pc in window if cid in pc]
        if len(vals) >= RELEASE_WINDOW_SAMPLES and sum(vals) // len(vals) < 400:
            return "release_core"
    return None


def _copy_and_reask(rt, usage, now_ns, count):
    """The look-ahead the running sums replaced: append the last sample to a
    copy of the window once per tick and ask the whole rule again."""
    window, asked = deque(usage, maxlen=RELEASE_WINDOW_SAMPLES), 0
    for j in range(1, count + 1):
        window.append(usage[-1])
        if now_ns + j * USAGE_SAMPLE_NS < rt.hysteresis_until_ns:
            continue
        asked += 1
        if _request(rt, window) is not None:
            return j - 1, asked
        if window.count(usage[-1]) == window.maxlen:
            break
    return count, asked


# A few samples, so that windows hold runs of equal ones; each names the
# surplus cores owned when it was taken.
_SAMPLES = st.builds(
    lambda agg, owned, permille: (agg, {4: agg, **{c: permille for c in owned}}),
    st.sampled_from([0, 399, 990, 991, 1000]),
    st.one_of(st.just({5, 6}), st.sets(st.sampled_from([5, 6]))),
    st.sampled_from([0, 399, 400, 1000]))


@given(window=st.lists(_SAMPLES, max_size=RELEASE_WINDOW_SAMPLES),
       appended=st.lists(st.tuples(_SAMPLES, st.integers(0, 60)), min_size=1,
                         max_size=20),
       ahead=st.integers(0, 60))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_usage_sums_slide_like_sums_counted_afresh(window, appended, ahead):
    """The window holds the last samples after each sample a tick appends
    and the copies of it that a fold appends (`repeat_last`). Its sums, as
    they stand and with further copies of the last sample, equal the sums
    counted afresh over the samples it would then hold."""
    usage, held = UsageWindow(), list(window)
    for sample in window:
        usage.append(sample)
    for sample, copies in appended:
        usage.append(sample)
        usage.repeat_last(copies)
        held = (held + [sample] * (1 + copies))[-RELEASE_WINDOW_SAMPLES:]
        assert list(usage) == held and len(usage) == len(held)
    for j in range(ahead + 1):
        then = (held + [held[-1]] * j)[-RELEASE_WINDOW_SAMPLES:]
        sums = [(INCREASE_WINDOW_SAMPLES, lambda s: s[0])] + [
            (RELEASE_WINDOW_SAMPLES, f) for c in (4, 5, 6)
            for f in (lambda s, c=c: c in s[1], lambda s, c=c: s[1].get(c, 0))]
        for width, value in sums:
            total, steps = usage.ahead(width, value)
            copies = j
            for step, n in steps:  # the copies move the total by each step in turn
                total += step * min(n, copies)
                copies -= min(n, copies)
            assert total == sum(map(value, then[-width:]))


@given(samples=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=70),
       palette=st.lists(_SAMPLES, min_size=3, max_size=3),
       surplus=st.sets(st.sampled_from([5, 6])), max_cores=st.integers(1, 4),
       hysteresis_ms=st.integers(-1000, 3000), count=st.integers(0, 90))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_lookahead_sums_match_copy_and_reask(samples, palette, surplus, max_cores,
                                             hysteresis_ms, count):
    """The rule gives the request counted afresh on the window as it
    stands, and the look-ahead gives the copy-and-re-ask loop's answer,
    asking the rule once at most, and not at all when the loop asks
    nothing."""
    rt = _runtime(SandboxRuntime, Idle(), ("big",))
    rt.max_cores = max_cores
    rt.cores.update({c: "big" for c in surplus})
    for i in samples:
        rt.usage.append(palette[i])
    now = 10 * S_NS
    rt.hysteresis_until_ns = now + hysteresis_ms * MS_NS
    now_request = rt.cpu_request(0, 0)[1]
    assert (now_request and now_request.kind) == _request(rt, list(rt.usage))
    asked = []
    request = rt.cpu_request
    rt.cpu_request = lambda *ticks: asked.append(1) or request(*ticks)
    want, want_asked = _copy_and_reask(rt, list(rt.usage), now, count)
    assert rt.ticks_before_request(now, count) == want
    assert len(asked) <= min(1, want_asked)
