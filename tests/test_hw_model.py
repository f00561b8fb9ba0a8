import pytest

from teesim import hw_model
from teesim.engine import Engine
from teesim.errors import AlignmentError, ConfigError
from teesim.hw_model import (
    CoreClass,
    DevKind,
    Machine,
    MachineConfig,
    PeripheralDesc,
    default_config,
)
from teesim.monitor import Monitor
from teesim.secure_world import KeyStore
from teesim.stage2 import Attr
from teesim.units import BLOCK_2M, GB, KB, MB


def test_default_machine_boots_all_cores_in_ros():
    m = Machine(default_config())
    assert len(m.cores) == 8
    big = [c for c, cls in m.cores.items() if cls is CoreClass.BIG]
    assert len(big) == 4
    assert m.active_ctx == dict.fromkeys(range(8), hw_model.ROS_CTX)
    assert not m.cache and all(not t for t in m.tlbs.values())


def test_single_core_config_rejected():
    cfg = MachineConfig(ram_bytes=GB, io_window=(GB, GB + MB),
                        cores=((0, CoreClass.BIG),))
    with pytest.raises(ConfigError):
        Machine(cfg)


def test_overlapping_mmio_rejected():
    base = default_config()
    p = base.peripherals[0]
    clash = PeripheralDesc("clash", DevKind.OTHER, p.mmio_range)
    cfg = MachineConfig(
        ram_bytes=base.ram_bytes, io_window=base.io_window, cores=base.cores,
        peripherals=base.peripherals + (clash,),
    )
    with pytest.raises(ConfigError):
        Machine(cfg)


def test_io_window_must_not_overlap_ram():
    with pytest.raises(ConfigError):
        MachineConfig(ram_bytes=2 * GB, io_window=(GB, 2 * GB),
                      cores=((0, CoreClass.BIG), (1, CoreClass.BIG))).validate()


def test_cache_fill_then_lookup_hits():
    m = Machine(default_config())
    m.cache_fill(0, 0x1000)
    assert m.cache_lookup(0x1000) == 0


def test_cache_fill_unaligned_rounds_to_line():
    m = Machine(default_config())
    m.cache_fill(0, 0x1034)
    assert m.cache_lookup(0x1000) == 0
    assert m.cache_lookup(0x1040) is None


def test_tlb_flush_range_counts_matching_entries():
    m = Machine(default_config())
    # three entries over the target range on two cores, one outside
    m.tlb_insert(0, 0, 0, Attr.NORMAL)
    m.tlb_insert(0, 0, 2 * MB, Attr.NORMAL)
    m.tlb_insert(3, 0, 2 * MB, Attr.NORMAL)
    m.tlb_insert(3, 0, 64 * MB, Attr.NORMAL)
    # oracle: linear scan
    expect = sum(
        1 for tlb in m.tlbs.values() for (_, base, gran) in tlb
        if base < 4 * MB and base + gran > 0
    )
    assert expect == 3
    assert m.tlb_flush_range((0, 4 * MB)) == 3
    assert m.tlb_flush_range((0, 4 * MB)) == 0


def test_tlb_flush_untouched_range_is_zero():
    m = Machine(default_config())
    assert m.tlb_flush_range((128 * MB, 256 * MB)) == 0


def test_translate_inserts_one_tlb_entry_then_flush_removes_it():
    m = Machine(default_config())
    res = m.translate(2, 0x1000_0000)
    assert res.hit
    assert len(m.tlbs[2]) == 1
    assert m.tlb_flush_range((0x1000_0000 - 0x1000_0000 % BLOCK_2M,
                              0x1000_0000 + BLOCK_2M)) == 1


def test_tlb_flush_requires_2mb_alignment():
    """A memory region must be 2MB-aligned to be sanitized; the machine's
    flush itself takes any range (a device switch flushes 4KB pages)."""
    m = Machine(default_config())
    monitor = Monitor(m, KeyStore(), Engine())
    with pytest.raises(AlignmentError):
        monitor.sanitize((4 * KB, 2 * MB), new_owner=hw_model.ROS_CTX)
    m.tlb_insert(1, hw_model.ROS_CTX, 2 * MB, Attr.NORMAL)
    assert m.tlb_flush_range((2 * MB + 4 * KB, 2 * MB + 8 * KB)) == 1


def test_stale_tlb_survives_unmap_until_flushed():
    """The attack window: translation cached, table entry removed, TLB still
    answers until sanitization flushes it."""
    m = Machine(default_config())
    ros = m.table_sets[0]
    pa = 512 * MB
    assert m.translate(1, pa).hit
    ros.unmap_range((pa, pa + 2 * MB))
    assert m.translate(1, pa).hit          # via stale TLB
    m.tlb_flush_range((pa, pa + 2 * MB))
    assert not m.translate(1, pa).hit


def test_cache_determinism():
    def drive():
        m = Machine(default_config())
        for i in range(40):
            m.cache_fill(i % 3, (i * 0x40) % 0x1000)
        return tuple(sorted(m.cache.items()))

    assert drive() == drive()
