import pytest

from teesim import bench
from teesim import scenario as sc
from teesim.engine import Engine
from teesim.errors import BadState
from teesim.hw_model import ROS_CTX, default_config
from teesim.sos import WORK_SCALE, InferenceBatch
from teesim.units import MB, MS_NS, S_NS
from teesim.world import WorldOptions, build_world

PAYLOAD = b"workload-app"


def timed_world():
    return build_world(default_config(), apps=[("demo", PAYLOAD)])


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
    w = build_world(default_config(), apps=[("demo", PAYLOAD)],
                    options=WorldOptions(device_wait_timeout_ns=1 * S_NS))
    a = w.create_sandbox("demo")
    b = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    w.request_peripheral(a, "wifi")
    w.request_peripheral(b, "wifi")
    w.engine.run_until(2 * S_NS)
    assert w.dev_queues["wifi"] == []
    assert w.monitor.ledger.dev_owner["wifi"] == a


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
    assert w.dev_queues["wifi"] == []
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

def _no_workload_scenario(cores: int, horizon_s: int, extra: str = "") -> str:
    return (
        f"{sc.HEADER} v{sc.VERSION}\n"
        "seed = 1\n"
        f"horizon = {horizon_s}s\n"
        "\n[apps]\n"
        "app idle idle-payload\n"
        "\n[timeline]\n"
        f"at 0ms create sb1 app=idle cores={cores} memory=256M core=big\n"
        + extra
    )


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
    # holds it back, so none of its ticks may fold.
    "no_workload_8_cores": _no_workload_scenario(8, 20),
}
NOTHING_TO_FOLD = {"no_workload_8_cores"}


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
    if name in NOTHING_TO_FOLD:
        assert whole_events == stepped_events
    else:
        assert whole_events < stepped_events


def test_folded_ticks_equal_tick_by_tick_on_random_scenarios(monkeypatch):
    for seed in range(30):
        whole, stepped, _, _ = _whole_and_stepped(
            monkeypatch, sc.make_random_scenario(seed))
        assert whole == stepped, seed


def test_idle_flexible_mem_query_dispatches_few_events(monkeypatch):
    counts = _counting_run_until(monkeypatch)
    sc.run_scenario(sc.parse(bench._query_scenario(10, dynamic=True)),
                    with_trace=False, check_each_directive=False)
    assert counts and sum(counts) < 2000
