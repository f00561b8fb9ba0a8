import pytest

from teesim import bench, sos
from teesim import scenario as sc
from teesim.engine import Engine
from teesim.errors import BadState
from teesim.hw_model import ROS_CTX, default_config
from teesim.sos import WORK_SCALE, InferenceBatch
from teesim.units import MB, MS_NS, S_NS
from teesim.world import World

PAYLOAD = b"workload-app"


def timed_world():
    return World(default_config(), apps=[("demo", PAYLOAD)])


def test_sandbox_runs_only_after_boot_delay():
    w = timed_world()
    sb = w.create_sandbox("demo")
    w.engine.run_until(531 * MS_NS)
    assert w.state_of(sb) == "booting"
    w.engine.run_until(533 * MS_NS)
    assert w.state_of(sb) == "running"


def test_device_fifo_wait_and_grant_on_release():
    w = timed_world()
    a = w.create_sandbox("demo")
    b = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    assert w.request_peripheral(a, "wifi") == "granted"
    assert w.request_peripheral(b, "wifi") == "queued"
    assert w.monitor.ledger.dev_owner["wifi"] == a
    w.release_peripheral(a, "wifi")
    assert w.monitor.ledger.dev_owner["wifi"] == b
    assert "wifi" not in w.runtimes[a].devices


def test_device_wait_times_out():
    w = timed_world()
    a = w.create_sandbox("demo")
    b = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    w.request_peripheral(a, "wifi")
    w.request_peripheral(b, "wifi")
    w.engine.run_until(5 * S_NS)
    assert w.dev_queues["wifi"] == [b]
    w.engine.run_until(6 * S_NS)
    assert "wifi" not in w.dev_queues
    assert w.monitor.ledger.dev_owner["wifi"] == a


def _run_timeline(horizon: str, timeline: str) -> sc.RunResult:
    return sc.run_scenario(sc.parse(
        f"{sc.HEADER} v{sc.VERSION}\nhorizon = {horizon}\n\n[apps]\napp demo x\n\n"
        f"[timeline]\nat 0ms create sb1 app=demo core=big\n{timeline}"))


@pytest.mark.xfail(strict=True, reason=(
    "known defect: release_peripheral accepts a device the ledger gives the "
    "sandbox before it arrives, and _device_arrived then adds it to the "
    "runtime anyway. A wifi released at 700 ms after a request at 600 ms "
    "makes a terminate at 1000 ms fail NotOwner; a gpu released at 650 ms "
    "still speeds up a later inference (560 ms instead of 2000 ms)"))
def test_device_released_before_arrival_is_not_held():
    wifi = _run_timeline("2s", "at 600ms request_dev sb1 wifi\n"
                         "at 700ms release_dev sb1 wifi\nat 1000ms terminate sb1\n")
    gpu = _run_timeline("5s", "at 600ms request_dev sb1 gpu\n"
                        "at 650ms release_dev sb1 gpu\n"
                        "at 1000ms workload sb1 inference images=4 units=500\n")
    plain = _run_timeline("5s", "at 1000ms workload sb1 inference images=4 units=500\n")
    assert wifi.world.state_of(wifi.handles["sb1"]) == "dead"
    assert gpu.world.runtimes[gpu.handles["sb1"]].devices == {}
    assert gpu.world.metrics.completion_ns == plain.world.metrics.completion_ns


def test_tampered_driver_returns_device():
    w = timed_world()
    a = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    w.ros.driver_blobs["wifi"] = b"evil-blob"
    with pytest.raises(Exception):
        w.request_peripheral(a, "wifi")
    assert w.monitor.ledger.dev_owner["wifi"] == ROS_CTX
    assert "wifi" not in w.runtimes[a].devices


def test_failed_grant_moves_on_to_the_next_waiter():
    """A grant that fails driver verification hands the device straight
    back, so the next waiter is tried at once instead of timing out."""
    w = timed_world()
    sb1, sb2, sb3 = (w.create_sandbox("demo") for _ in range(3))
    w.engine.run_until(600 * MS_NS)
    assert w.request_peripheral(sb1, "wifi") == "granted"
    assert w.request_peripheral(sb2, "wifi") == "queued"
    assert w.request_peripheral(sb3, "wifi") == "queued"
    w.ros.driver_blobs["wifi"] = b"evil-blob"
    w.engine.run_until(1 * S_NS)
    w.release_peripheral(sb1, "wifi")
    assert "wifi" not in w.dev_queues
    assert w.monitor.ledger.dev_owner["wifi"] == ROS_CTX
    w.engine.run_until(7 * S_NS)
    installs = [(r["actor"], r["t_ns"], r["verdict"], r.get("reason"))
                for r in w.engine.records if r["op"] == "driver_install"]
    assert (f"sb{sb3}", 1 * S_NS, "rejected", "IntegrityError") in installs
    assert not [r for r in w.engine.records if r.get("reason") == "WaitTimeout"]


def test_work_conservation_over_ownership_schedule():
    """Total work units completed must equal the rate-time integral over the
    core ownership schedule, reconstructed independently from the trace."""
    w = timed_world()
    sb = w.create_sandbox(
        "demo", max_cores=2, core_pref="big",
        workload=InferenceBatch(images=12, units_per_image=500),
    )
    w.engine.run_until(20 * S_NS)
    rt = w.runtimes[sb]
    assert not rt.busy()
    start = rt.work_started_ns
    finish = rt.work_finished_ns
    # reconstruct the schedule: one big core from start, second from the
    # moment the transfer's charged cost elapsed
    grants = [r for r in w.engine.records
              if r["op"] == "cost" and r["args"]["name"].startswith("core_inc")]
    assert len(grants) == 1
    second_core_at = grants[0]["t_ns"] + grants[0]["args"]["ns"]
    expected = (finish - start) * 1000 + max(0, finish - second_core_at) * 1000
    total_work = 12 * 500 * WORK_SCALE
    assert expected == total_work


def test_zero_cost_cipher_work_finishes():
    """Cipher work that costs nothing is no work: the run ends."""
    text = (f"{sc.HEADER} v{sc.VERSION}\nhorizon = 2s\n\n[apps]\napp demo x\n\n"
            "[timeline]\n"
            "at 0ms create sb1 cipher files=0 app=demo\n"
            "at 0ms create sb2 cipher queries=0 app=demo\n"
            "at 0ms create sb3 cipher files=10M scan=0 miss=0 app=demo\n")
    res = sc.run_scenario(sc.parse(text), with_trace=False)
    assert res.exit_code == 0
    assert not any(rt.busy() for rt in res.world.runtimes.values())


@pytest.mark.parametrize("files, finished_ns", [
    ("10M", 30_571_428_572),
    ("10M,20M,30M", 35_428_571_429),
])
def test_second_cipher_workload_starts_from_its_first_file(files, finished_ns):
    """A workload set after an earlier cipher finished runs all its own
    files: none is skipped and none is out of range."""
    text = (f"{sc.HEADER} v{sc.VERSION}\nhorizon = 40s\n\n[apps]\napp demo x\n\n"
            "[timeline]\n"
            "at 0ms create sb1 cipher files=10M,20M queries=2 app=demo\n"
            f"at 30s workload sb1 cipher files={files} queries=2\n")
    res = sc.run_scenario(sc.parse(text), with_trace=False)
    assert res.exit_code == 0
    assert res.world.runtimes[res.handles["sb1"]].work_finished_ns == finished_ns


def test_every_finished_workload_is_reported():
    """A workload set after an earlier one finished is traced and measured
    when it completes too."""
    text = (f"{sc.HEADER} v{sc.VERSION}\nhorizon = 40s\n\n[apps]\napp demo x\n\n"
            "[timeline]\n"
            "at 0ms create sb1 cipher files=10M,20M queries=2 app=demo\n"
            "at 30s workload sb1 cipher files=10M queries=2\n")
    res = sc.run_scenario(sc.parse(text))
    done = [(r["t_ns"], r["args"]["duration_ns"]) for r in res.world.engine.records
            if r["op"] == "workload_complete"]
    assert done == [(3_674_857_143, 3_142_857_143), (30_571_428_572, 571_428_572)]
    assert res.world.metrics.completion_ns == {res.handles["sb1"]: 571_428_572}


def test_superseded_completion_leaves_the_queue():
    """A new estimate retires the sandbox's queued completion event, so the
    engine never dispatches it and the next tick fold is not bounded by it."""
    w = timed_world()
    sb = w.create_sandbox("demo", core_pref="big",
                          workload=InferenceBatch(images=10, units_per_image=1000))
    w.engine.run_until(600 * MS_NS)
    first = w._completions[sb]
    w.set_workload(sb, InferenceBatch(images=2, units_per_image=1000))
    queued = {seq for _, seq, _, _ in w.engine._queue}
    assert first not in queued and w._completions[sb] in queued
    w.engine.run_until(5 * S_NS)
    assert w.metrics.completion_ns == {sb: 2 * S_NS} and w._completions == {}


def test_terminate_mid_adjustment_is_atomic():
    w = timed_world()
    sb = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    span = w.monitor.ledger.sandbox_span(sb)
    assert w._request_attach(sb, 16 * MB)
    # terminate while the attach's cost is still pending
    w.terminate(sb)
    w.engine.run_until(3 * S_NS)
    assert w.state_of(sb) == "dead"
    from teesim.adversary import check_invariants

    assert check_invariants(w) == []
    assert w.monitor.ledger.sandbox_intervals(sb) == []


def test_double_terminate_rejected():
    w = timed_world()
    sb = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    w.terminate(sb)
    with pytest.raises(BadState):
        w.terminate(sb)


def test_gpu_grant_auto_released_on_terminate():
    w = timed_world()
    sb = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    w.request_peripheral(sb, "gpu")
    w.engine.run_until(1 * S_NS)
    w.terminate(sb)
    assert w.monitor.ledger.dev_owner["gpu"] == ROS_CTX
    assert w.ros.driver_states[(ROS_CTX, "gpu")] == "loaded"
    assert len(w.metrics.frozen_gui_ns) == 1


def test_max_concurrent_metric():
    w = timed_world()
    for _ in range(4):
        w.create_sandbox("demo")
    assert w.metrics.max_concurrent == 4


def test_quota_safety_over_random_scenarios():
    """No reachable state grants a sandbox more cores or memory than its
    quota, regardless of how requests interleave."""
    from teesim import scenario as sc

    for seed in range(80):
        res = sc.run_scenario(sc.make_random_scenario(seed), with_trace=False)
        w = res.world
        for sb, meta in w.monitor.sandboxes.items():
            assert len(w.monitor.ledger.cores_of(sb)) <= meta.max_cores
            assert w.monitor.ledger.sandbox_size(sb) <= meta.max_memory


# -- quiescent tick folding ----------------------------------------------------

def _one_app_scenario(horizon_s: int, timeline: str) -> str:
    return (
        f"{sc.HEADER} v{sc.VERSION}\n"
        "seed = 1\n"
        f"horizon = {horizon_s}s\n"
        "\n[apps]\n"
        "app a a-payload\n"
        "\n[timeline]\n"
        + timeline
    )


def _no_workload_scenario(cores: int, horizon_s: int, extra: str = "") -> str:
    return _one_app_scenario(
        horizon_s,
        f"at 0ms create sb1 app=a cores={cores} memory=256M core=big\n" + extra)


FOLD_CASES = {
    "mem_query_flexible": bench._query_scenario(10, dynamic=True),
    "mem_query_static_30M": bench._query_scenario(30, dynamic=False),
    "dl_batch_40_images_3_cores": bench._dl_scenario(40, 3),
    # A tick falls at 10,032 ms; the directive queued for that time runs
    # before it, so the fold must stop short of it.
    "no_workload_3_cores": _no_workload_scenario(
        3, 12, "at 10032ms terminate sb1\n"),
    # Wants more cores than the machine has: once it holds all seven it is
    # refused every 1.1 s, and between refusals only the hysteresis window
    # holds it back, so the fold must stop one tick before each refusal.
    "no_workload_8_cores": _no_workload_scenario(8, 20),
    # One big core does 100 units per tick and work starts on a tick, so
    # each query (10,000, 20,000 and 30,000 units) runs out exactly on a
    # tick, where the used memory grows by 10M: the fold must stop one tick
    # before it.
    "cipher_chunk_ends_on_tick": _one_app_scenario(70, (
        "at 0ms create sb1 app=a cores=1 memory=158M core=big base=158M\n"
        "at 0ms workload sb1 cipher files=10M,20M,30M queries=1 cache=30M "
        "scan=1000\n")),
    # The GPU scales the rate by 3.57 while it is held; folds before and
    # after the release account at different rates.
    "inference_gpu_released_mid_run": _one_app_scenario(80, (
        "at 0ms create sb1 app=a cores=1 memory=256M core=big\n"
        "at 0ms workload sb1 inference images=100 units=1000\n"
        "at 600ms request_dev sb1 gpu\n"
        "at 12s release_dev sb1 gpu\n")),
    # A GPU factor of 0 stalls the batch while the GPU is held: no work is
    # done, so the fold needs no chunk bound there.
    "inference_stalled_by_gpu": _one_app_scenario(40, (
        "at 0ms create sb1 app=a cores=1 memory=256M core=big\n"
        "at 0ms workload sb1 inference images=20 units=1000 gpu_speedup=0\n"
        "at 600ms request_dev sb1 gpu\n"
        "at 20s release_dev sb1 gpu\n")),
    # The new workload lands between two ticks of a folded stretch of query
    # chunks and restarts the work from its own first chunk.
    "workload_replaced_mid_fold": _one_app_scenario(60, (
        "at 0ms create sb1 app=a cores=1 memory=256M core=big\n"
        "at 0ms workload sb1 cipher files=40M queries=4 cache=10M scan=100 "
        "miss=100\n"
        "at 10050ms workload sb1 inference images=20 units=1000\n")),
    # Only the boot core works on a serial batch, so the second core idles
    # and is given back after 5 s. A lone core reads 1000 permille, so the
    # increase monitor takes the core again 2 s later: the window never
    # settles while the batch runs, and the fold starts after it is done.
    "serial_batch_2_cores": _one_app_scenario(60, (
        "at 0ms create sb1 app=a cores=2 memory=256M core=big\n"
        "at 0ms workload sb1 inference images=40 units=1000 serial\n")),
    # One big core does 100 units per tick, each query (2,000 units on
    # 20M, 4,000 on 40M) ends on a tick, and the cache holds 30M. The fold
    # runs across query ends and across the 20M -> 20M file boundary, but
    # must stop one tick before the 40M file, where the used memory grows.
    "cipher_same_working_set_across_files": _one_app_scenario(50, (
        "at 0ms create sb1 app=a cores=1 memory=158M core=big base=158M\n"
        "at 0ms workload sb1 cipher files=20M,20M,40M queries=5 cache=30M "
        "scan=100 miss=0\n")),
    # The batch takes the second core after 20 samples, runs about 1 s on
    # both and leaves them idle: the surplus core is given back at its 50th
    # sample, while the window still holds busy samples, and the fold must
    # stop one tick before that release.
    "short_batch_releases_core_while_window_fills": _one_app_scenario(20, (
        "at 0ms create sb1 app=a cores=2 memory=256M core=big\n"
        "at 0ms workload sb1 inference images=40 units=100\n")),
    # Two busy cores' worth of work: the increase fires at the 20th sample,
    # before the window is full, and the fold must stop one tick before it.
    "busy_batch_takes_core_at_20_samples": _one_app_scenario(30, (
        "at 0ms create sb1 app=a cores=2 memory=256M core=big\n"
        "at 0ms workload sb1 inference images=40 units=1000\n")),
    # Two cores work the batch; the terminate cuts a folded stretch short.
    "terminate_mid_fold": _one_app_scenario(60, (
        "at 0ms create sb1 app=a cores=2 memory=256M core=big\n"
        "at 0ms workload sb1 inference images=100 units=1000\n"
        "at 30010ms terminate sb1\n")),
}


def _counting_run_until(monkeypatch, step_ns=None):
    """Patch Engine.run_until to record what each call dispatches; with
    step_ns, each call advances in steps of at most step_ns."""
    whole = Engine.run_until
    counts = []

    def run_until(self, t_end_ns):
        if step_ns is None:
            n = whole(self, t_end_ns)
        else:
            n = whole(self, min(self.now_ns + step_ns, t_end_ns))
            while self.now_ns < t_end_ns:
                n += whole(self, min(self.now_ns + step_ns, t_end_ns))
        counts.append(n)
        return n

    monkeypatch.setattr(Engine, "run_until", run_until)
    return counts


def _fold_observables(res):
    w = res.world
    m = w.metrics
    return {
        "trace_digest": res.trace_digest,
        "completion_ns": m.completion_ns,
        "integrals": (m.mem_used_integral, m.mem_alloc_integral,
                      m.core_busy_integral, m.core_alloc_integral),
        "adjust_count": m.adjust_count,
        "runtimes": {
            sb: (rt.canonical(), list(rt.usage), rt._last_account_ns)
            for sb, rt in w.runtimes.items()
        },
    }


def _whole_and_stepped(monkeypatch, scenario):
    """Run once with one run_until over the horizon, once in 37 ms steps:
    a step shorter than a tick leaves no tick to fold."""
    with monkeypatch.context() as m:
        whole_counts = _counting_run_until(m)
        whole = _fold_observables(sc.run_scenario(scenario))
    with monkeypatch.context() as m:
        stepped_counts = _counting_run_until(m, step_ns=37 * MS_NS)
        stepped = _fold_observables(sc.run_scenario(scenario))
    return whole, stepped, sum(whole_counts), sum(stepped_counts)


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_folded_ticks_equal_tick_by_tick(monkeypatch, name):
    whole, stepped, whole_events, stepped_events = _whole_and_stepped(
        monkeypatch, sc.parse(FOLD_CASES[name]))
    assert whole == stepped
    assert whole_events < stepped_events


def test_folded_ticks_equal_tick_by_tick_on_random_scenarios(monkeypatch):
    for seed in range(30):
        whole, stepped, _, _ = _whole_and_stepped(
            monkeypatch, sc.make_random_scenario(seed))
        assert whole == stepped, seed


@pytest.mark.parametrize("name", ["mem_query_flexible", "mem_query_static_30M"])
def test_busy_mem_query_dispatches_few_events(monkeypatch, name):
    """A query sandbox folds its busy ticks across query ends, up to the
    end of each file, and while its usage window fills (1,457 and 3,179
    events when only idle ticks folded; 341 and 317 when busy ticks stopped
    at each query end and every fold waited for a full window)."""
    counts = _counting_run_until(monkeypatch)
    sc.run_scenario(sc.parse(FOLD_CASES[name]), with_trace=False,
                    check_each_directive=False)
    assert counts and sum(counts) < 100


def test_dl_batch_suite_dispatches_few_events(monkeypatch):
    """Inference batches fold while the usage window fills and through the
    hysteresis after each core transfer (1,539 events when the fold waited
    for a full, uniform window past hysteresis)."""
    counts = _counting_run_until(monkeypatch)
    bench.run_suite("dl_batch")
    assert sum(counts) < 400


def test_suites_price_each_run_of_chunks_once(monkeypatch):
    """A pass over the suites computes each run of chunks over one working
    set once per cache size, 145 chunk costs (3,265 when every rebuild
    priced every chunk), counted as `tools/bench_record.py` counts them."""
    calls = []
    for cls in vars(sos).values():
        if isinstance(cls, type) and issubclass(cls, sos.Workload) \
                and "chunk_scaled" in vars(cls):
            def counting(self, i, cache_bytes, _price=cls.chunk_scaled):
                calls.append(i)
                return _price(self, i, cache_bytes)
            monkeypatch.setattr(cls, "chunk_scaled", counting)
    for name in bench.SUITES:
        bench.run_suite(name)
    assert 0 < len(calls) <= 200
