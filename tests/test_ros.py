import random

import pytest

from teesim.errors import (
    BadState,
    NoAdjacentSpace,
    OutOfMemory,
    UnsupportedDevice,
)
from teesim.hw_model import ROS_CTX, CoreClass, MachineConfig, default_config
from teesim.ros import (
    DRIVER_LOADED,
    DRIVER_SUSPENDED_GPU,
    DRIVER_UNLOADED,
    CmaPool,
)
from teesim.units import GB, MB, MS_NS
from teesim.world import World

PAYLOAD = b"app-bytes"


def fresh_world():
    return World(default_config(), instant=True,
                 apps=[("demo", PAYLOAD)])


class BlockMapAllocator:
    """Reference allocator: brute-force first-fit over a 2MB block bitmap."""

    def __init__(self, extents):
        self.blocks = set()
        for s, e in extents:
            self.blocks |= set(range(s // (2 * MB), e // (2 * MB)))
        self.taken = {}

    def alloc(self, nbytes, adjacent_to=None):
        want = nbytes // (2 * MB)
        if adjacent_to is not None:
            for cand_start in (adjacent_to[0] // (2 * MB) - want,
                               adjacent_to[1] // (2 * MB)):
                cand = set(range(cand_start, cand_start + want))
                if cand <= self.blocks and not (cand & set(self.taken)):
                    for b in cand:
                        self.taken[b] = True
                    return (cand_start * 2 * MB, (cand_start + want) * 2 * MB)
            return None
        for start in sorted(self.blocks):
            cand = set(range(start, start + want))
            if cand <= self.blocks and not (cand & set(self.taken)):
                for b in cand:
                    self.taken[b] = True
                return (start * 2 * MB, (start + want) * 2 * MB)
        return None

    def free(self, rng):
        for b in range(rng[0] // (2 * MB), rng[1] // (2 * MB)):
            del self.taken[b]


def take_found(pool, nbytes, adjacent_to=None):
    """Find a range, then take it, as `RosActor.launch` does."""
    return pool.take(pool.find(nbytes, adjacent_to), None)


def test_first_fit_starts_at_extent_base():
    pool = CmaPool(((1 * GB, 1 * GB + 1 * GB),))
    assert take_found(pool, 128 * MB) == (1 * GB, 1 * GB + 128 * MB)


def test_alloc_zero_rejected():
    pool = CmaPool(((0, 512 * MB),))
    with pytest.raises(OutOfMemory):
        pool.find(0)


def test_alloc_adjacent_prefers_low_then_high():
    pool = CmaPool(((1 * GB, 2 * GB),))
    base = take_found(pool, 128 * MB)
    got = take_found(pool, 16 * MB, base)
    # below the base there is no room inside the extent, so above wins
    assert got == (base[1], base[1] + 16 * MB)
    mid = take_found(pool, 128 * MB, got)
    assert mid == (got[1], got[1] + 128 * MB)


def test_alloc_adjacent_fails_when_hemmed_in():
    pool = CmaPool(((0, 256 * MB),))
    a = take_found(pool, 128 * MB)
    take_found(pool, 128 * MB)
    with pytest.raises(NoAdjacentSpace):
        take_found(pool, 16 * MB, a)


def test_allocator_matches_reference_on_random_sequences():
    rng = random.Random(5)
    extents = ((0, 256 * MB), (512 * MB, 768 * MB))
    for _ in range(30):
        pool = CmaPool(extents)
        ref = BlockMapAllocator(extents)
        live = []
        for _ in range(60):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                pool.free(victim)
                ref.free(victim)
                continue
            size = rng.choice([2 * MB, 16 * MB, 64 * MB])
            adj = rng.choice(live) if live and rng.random() < 0.3 else None
            expect = ref.alloc(size, adj)
            try:
                got = take_found(pool, size, adj)
            except (OutOfMemory, NoAdjacentSpace):
                got = None
            assert got == expect
            if got is not None:
                live.append(got)


def test_create_sandbox_charges_boot_cost():
    w = fresh_world()
    w.create_sandbox("demo")
    boots = [r for r in w.engine.records
             if r["op"] == "cost" and r["args"]["name"] == "boot"]
    assert len(boots) == 1 and boots[0]["args"]["ns"] == 532 * MS_NS


def test_send_data_costs():
    w = fresh_world()
    sb = w.create_sandbox("demo")
    total = w.send_data(sb, 64 * 1024, "to_sandbox")
    assert total == 16_580_000 + 23_890
    total = w.send_data(sb, 64 * MB, "to_sandbox")
    assert total == 323_420_000 + 23_890
    total = w.send_data(sb, 0, "to_ros")
    assert total == 53_120


def test_send_data_monotone_in_size():
    w = fresh_world()
    sb = w.create_sandbox("demo")
    sizes = [0, 1, 64 * 1024, 100 * 1024, 1 * MB, 5 * MB, 64 * MB, 200 * MB]
    costs = [w.send_data(sb, s, "to_sandbox") for s in sizes]
    assert costs == sorted(costs)


def test_prepare_wifi_unloads_driver():
    w = fresh_world()
    w.ros.prepare_peripheral("wifi")
    assert w.ros.driver_states[(ROS_CTX, "wifi")] == DRIVER_UNLOADED


def test_prepare_shared_bus_device_unsupported():
    w = fresh_world()
    with pytest.raises(UnsupportedDevice):
        w.ros.prepare_peripheral("usb")


def test_prepare_gpu_suspends():
    w = fresh_world()
    w.ros.prepare_peripheral("gpu")
    assert w.ros.driver_states[(ROS_CTX, "gpu")] == DRIVER_SUSPENDED_GPU


def test_gpu_roundtrip_records_frozen_interval():
    w = World(default_config(), apps=[("demo", PAYLOAD)])
    sb = w.create_sandbox("demo")
    w.engine.run_until(600 * MS_NS)
    w.request_peripheral(sb, "gpu")
    t_suspend = w.ros.gpu_suspended_at["gpu"]
    w.engine.run_until(900 * MS_NS)
    w.release_peripheral(sb, "gpu")
    assert w.ros.driver_states[(ROS_CTX, "gpu")] == DRIVER_LOADED
    assert w.metrics.frozen_gui_ns == [w.engine.now_ns - t_suspend]


def test_reclaim_while_sandbox_owner_is_bad_state():
    w = fresh_world()
    sb = w.create_sandbox("demo")
    w.request_peripheral(sb, "wifi")
    with pytest.raises(BadState):
        w.ros.reclaim_peripheral("wifi")


def test_channel_immutable_until_teardown():
    w = fresh_world()
    sb = w.create_sandbox("demo")
    ch = w.monitor.ledger.shared_channels[sb]
    span = w.monitor.ledger.sandbox_span(sb)
    region = (span[1], span[1] + 16 * MB)
    assert w.monitor.attach_memory(sb, region)[0].approved
    assert w.monitor.ledger.shared_channels[sb] == ch
    w.terminate(sb)
    assert sb not in w.monitor.ledger.shared_channels


def test_rollback_frees_pool_on_integrity_error():
    w = fresh_world()
    w.ros.images["demo"] = w.ros.tampered_image("demo")
    allocations = list(w.ros.cma.allocations)
    with pytest.raises(Exception):
        w.create_sandbox("demo")
    assert w.ros.cma.allocations == allocations
    assert not w.monitor.ledger.shared_channels


def test_launch_reuses_lowest_freed_channel():
    w = fresh_world()
    channels = w.monitor.ledger.shared_channels
    a, b, c = (w.create_sandbox("demo") for _ in range(3))
    ch_a, ch_b = channels[a], channels[b]
    assert ch_a < ch_b < channels[c]
    w.terminate(b)
    w.terminate(a)
    assert channels[w.create_sandbox("demo")] == ch_a
    assert channels[w.create_sandbox("demo")] == ch_b


def test_shared_pool_exhausted_changes_nothing():
    """32MB of RAM leaves two channel slots, and 4 cores admit three sandboxes."""
    config = MachineConfig(ram_bytes=32 * MB, io_window=(32 * MB, 33 * MB),
                           cores=tuple((i, CoreClass.BIG) for i in range(4)))
    w = World(config, instant=True, apps=[("demo", PAYLOAD)])
    w.create_sandbox("demo")
    w.create_sandbox("demo")
    allocations, ledger = list(w.ros.cma.allocations), w.monitor.ledger.canonical()
    with pytest.raises(OutOfMemory, match="shared pool exhausted"):
        w.create_sandbox("demo")
    assert w.ros.cma.allocations == allocations
    assert w.monitor.ledger.canonical() == ledger
