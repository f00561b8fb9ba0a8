import random

import pytest

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
    rt.gpu_owned = True
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
