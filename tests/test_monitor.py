import random

import pytest

from teesim import adversary
from teesim.errors import (
    AlignmentError,
    BadState,
    DeviceBusy,
    IntegrityError,
    LastCoreError,
    NotOwner,
    QuotaExceeded,
    ResourceBusy,
    TooManySandboxes,
)
from teesim.hw_model import ROS_CTX, default_config
from teesim.monitor import AdjustVerdict, Defenses, Reason
from teesim.stage2 import Attr
from teesim.units import MB, MS_NS, PAGE_4K
from teesim.world import World

PAYLOAD = b"protected-app-payload"


def fresh_world(**kw):
    return World(default_config(), instant=True,
                 apps=[("demo", PAYLOAD)], **kw)


def cost_records(world, name):
    return [r["args"]["ns"] for r in world.engine.records
            if r["op"] == "cost" and r["args"]["name"] == name]


def test_first_launch_leaves_ros_seven_cores():
    w = fresh_world()
    sb = w.create_sandbox("demo")
    assert sb == 1
    assert len(w.monitor.ledger.cores_of(ROS_CTX)) == 7
    assert cost_records(w, "boot") == [532 * MS_NS]


def test_eighth_concurrent_launch_rejected():
    w = fresh_world()
    for _ in range(7):
        w.create_sandbox("demo")
    with pytest.raises(TooManySandboxes):
        w.create_sandbox("demo")


def test_tampered_image_rejected_and_ledger_untouched():
    w = fresh_world()
    before = w.monitor.ledger.canonical()
    ros_runs = w.machine.table_sets[ROS_CTX].canonical()
    w.ros.images["demo"] = w.ros.tampered_image("demo")
    with pytest.raises(IntegrityError):
        w.create_sandbox("demo")
    assert w.monitor.ledger.canonical() == before
    assert w.machine.table_sets[ROS_CTX].canonical() == ros_runs
    assert not w.monitor.sandboxes


def refused(w, op, sb, region):
    """The reason the monitor refuses an attach or detach, checked to change
    nothing but its one verify_region record."""
    before, seen = w.canonical(), len(w.engine.records)
    verdict, cost = getattr(w.monitor, f"{op}_memory")(sb, region)
    assert not verdict.approved and cost == 0
    assert w.canonical() == before
    [record] = w.engine.records[seen:]
    assert (record["op"], record["verdict"], record["reason"]) == \
        ("verify_region", "rejected", verdict.reason.value)
    assert record["args"] == {"sandbox": sb, "region": list(region), "op": op}
    return verdict.reason


def test_attach_verdicts():
    w = fresh_world()
    a = w.create_sandbox("demo", max_memory=512 * MB)
    mon = w.monitor
    span_a = mon.ledger.sandbox_span(a)
    adjacent = (span_a[1], span_a[1] + 16 * MB)
    assert mon.attach_memory(a, adjacent) == (AdjustVerdict(True), 54 * MS_NS)
    assert mon.detach_memory(a, adjacent) == (AdjustVerdict(True), 56 * MS_NS)

    # first-fit places the next sandbox right above a, so the same region
    # now belongs to someone else: the classic malicious-ROS overlap
    w.create_sandbox("demo")
    assert refused(w, "attach", a, adjacent) is Reason.OVERLAP

    far = (span_a[1] + 384 * MB, span_a[1] + 400 * MB)
    assert refused(w, "attach", a, far) is Reason.NOT_CONTIGUOUS

    misaligned = (span_a[1], span_a[1] + MB)
    assert refused(w, "attach", a, misaligned) is Reason.BAD_ALIGNMENT

    below_huge = (span_a[0] - 448 * MB, span_a[0])
    assert refused(w, "attach", a, below_huge) is Reason.QUOTA_EXCEEDED


def test_detach_verdicts():
    w = fresh_world()
    a = w.create_sandbox("demo")
    mon = w.monitor
    span = mon.ledger.sandbox_span(a)
    region = (span[1], span[1] + 16 * MB)
    assert mon.attach_memory(a, region)[0].approved

    middle = (span[0] + 2 * MB, span[0] + 4 * MB)
    assert refused(w, "detach", a, middle) is Reason.NOT_CONTIGUOUS

    too_much = (span[0], span[1] + 16 * MB)
    assert refused(w, "detach", a, too_much) is Reason.QUOTA_EXCEEDED

    assert mon.detach_memory(a, region)[0].approved


def test_attach_detach_roundtrip_restores_state():
    w = fresh_world()
    a = w.create_sandbox("demo")
    mon = w.monitor
    led = mon.ledger.canonical()
    tables = {c: t.canonical() for c, t in w.machine.table_sets.items()}
    span = mon.ledger.sandbox_span(a)
    region = (span[1], span[1] + 16 * MB)
    mon.attach_memory(a, region)
    mon.detach_memory(a, region)
    assert mon.ledger.canonical() == led
    assert {c: t.canonical() for c, t in w.machine.table_sets.items()} == tables


def test_refused_adjustment_changes_only_its_record():
    """Every refusal reason of an attach and of a detach leaves the ledger,
    table sets, TLBs, cache and CMA as they were, with warm TLB entries and
    cache lines over the refused region; an unknown sandbox is refused
    before any record."""
    w = fresh_world()
    a = w.create_sandbox("demo")
    w.create_sandbox("demo")  # first-fit: right above a
    span = w.monitor.ledger.sandbox_span(a)
    ram = w.machine.config.ram_bytes
    cases = [
        ("attach", (span[1], span[1] + MB), Reason.BAD_ALIGNMENT),
        ("attach", (span[1], span[1] + 2 * MB), Reason.OVERLAP),
        ("attach", (ram, ram + 2 * MB), Reason.NOT_FREE),
        ("attach", (span[0] - 64 * MB, span[0] - 32 * MB), Reason.NOT_CONTIGUOUS),
        ("attach", (span[0] - 512 * MB, span[0]), Reason.QUOTA_EXCEEDED),
        ("detach", (span[1] - MB, span[1]), Reason.BAD_ALIGNMENT),
        ("detach", (span[1] - 2 * MB, span[1] + 2 * MB), Reason.NOT_FREE),
        ("detach", (span[0] + 2 * MB, span[0] + 4 * MB), Reason.NOT_CONTIGUOUS),
        ("detach", (span[1] - 2 * MB, span[1]), Reason.QUOTA_EXCEEDED),
    ]
    for op, region, reason in cases:
        for ctx, pa in ((ROS_CTX, region[0]), (a, region[1] - 1)):
            w.probe_translate(ctx, pa)
            w.machine.cache_fill(ctx, pa)
        assert refused(w, op, a, region) is reason, (op, region)
    seen = len(w.engine.records)
    for op in ("attach", "detach"):
        with pytest.raises(BadState):
            getattr(w.monitor, f"{op}_memory")(99, (span[1], span[1] + 2 * MB))
    assert len(w.engine.records) == seen


def test_attach_costs_match_table():
    w = fresh_world()
    a = w.create_sandbox("demo")
    span = w.monitor.ledger.sandbox_span(a)
    region = (span[1], span[1] + 16 * MB)
    assert w.monitor.attach_memory(a, region)[1] == 54 * MS_NS
    assert w.monitor.detach_memory(a, region)[1] == 56 * MS_NS
    assert cost_records(w, "mem_inc") == [54 * MS_NS]
    assert cost_records(w, "mem_dec") == [56 * MS_NS]


def test_transfer_core_costs_and_ratio():
    w = fresh_world()
    a = w.create_sandbox("demo", max_cores=2, core_pref="big")
    mon = w.monitor
    big_free = [c for c in mon.ledger.cores_of(ROS_CTX)
                if w.machine.cores[c].value == "big"][0]
    mon.transfer_core(big_free, ROS_CTX, a, optimized=True)
    mon.transfer_core(big_free, a, ROS_CTX, optimized=True)
    mon.transfer_core(big_free, ROS_CTX, a, optimized=False)
    assert cost_records(w, "core_inc_big_opt") == [79 * MS_NS]
    assert cost_records(w, "core_inc_big_noopt") == [199 * MS_NS]
    ratio = 199 / 79
    assert abs(ratio - 2.52) / 2.52 < 0.02


def test_transfer_last_core_rejected():
    w = fresh_world()
    a = w.create_sandbox("demo")
    boot = w.monitor.sandboxes[a].boot_core
    with pytest.raises(LastCoreError):
        w.monitor.transfer_core(boot, a, ROS_CTX)


def test_transfer_requires_ownership():
    w = fresh_world()
    a = w.create_sandbox("demo", max_cores=2)
    with pytest.raises(NotOwner):
        w.monitor.transfer_core(7, a, ROS_CTX)  # ROS owns core 7


def test_core0_pinned_to_ros():
    w = fresh_world()
    a = w.create_sandbox("demo", max_cores=2)
    with pytest.raises(ResourceBusy):
        w.monitor.transfer_core(0, ROS_CTX, a)


def test_quota_enforced_on_transfer():
    w = fresh_world()
    a = w.create_sandbox("demo", max_cores=1)
    free = w.monitor.ledger.cores_of(ROS_CTX)[1]
    with pytest.raises(QuotaExceeded):
        w.monitor.transfer_core(free, ROS_CTX, a)


def test_switch_peripheral_requires_release_handshake():
    w = fresh_world()
    a = w.create_sandbox("demo")
    with pytest.raises(DeviceBusy):
        w.monitor.switch_peripheral("wifi", ROS_CTX, a)


def test_gpu_switch_flips_translation_sides():
    w = fresh_world()
    a = w.create_sandbox("demo")
    gpu = w.machine.config.peripheral("gpu").mmio_range
    assert w.probe_translate(ROS_CTX, gpu[0]).hit
    w.request_peripheral(a, "gpu")
    core_a = w.monitor.ledger.cores_of(a)[0]
    assert w.machine.translate(core_a, gpu[0]).hit
    assert not w.probe_translate(ROS_CTX, gpu[0]).hit
    assert cost_records(w, "periph_map_gpu_sandbox") == [121 * MS_NS]
    assert cost_records(w, "periph_unmap_gpu_ros") == [35 * MS_NS]


def test_peripheral_switch_flushes_device_tlb_entry():
    """A ROS core that translated wifi's MMIO holds a 4KB device TLB entry;
    granting wifi to a sandbox leaves no core with an entry for it."""
    w = fresh_world()
    a = w.create_sandbox("demo")
    lo, hi = w.machine.config.peripheral("wifi").mmio_range
    assert w.probe_translate(ROS_CTX, lo).hit

    def wifi_entries():
        return [(cid, key) for cid, tlb in w.machine.tlbs.items() for key in tlb
                if lo <= key[1] < hi]

    assert wifi_entries() == [(0, (ROS_CTX, lo, PAGE_4K))]
    assert adversary.check_invariants(w) == []  # ROS still owns wifi
    assert w.request_peripheral(a, "wifi") == "granted"
    assert wifi_entries() == []
    assert adversary.check_invariants(w) == []


def test_sanitize_clears_stale_state():
    w = fresh_world()
    region = (512 * MB, 514 * MB)
    # two stale TLB entries and five foreign lines
    w.machine.translate(0, region[0])
    w.machine.translate(1, region[0])
    for i in range(5):
        w.machine.cache_fill(ROS_CTX, region[0] + i * 64)
    flushed, invalidated = w.monitor.sanitize(region, new_owner=99)
    assert (flushed, invalidated) == (2, 5)
    assert w.monitor.sanitize(region, new_owner=99) == (0, 0)


def test_sanitize_then_translate_faults():
    w = fresh_world()
    a = w.create_sandbox("demo")
    span = w.monitor.ledger.sandbox_span(a)
    region = (span[1], span[1] + 16 * MB)
    w.probe_translate(ROS_CTX, region[0])
    w.monitor.attach_memory(a, region)
    assert not w.probe_translate(ROS_CTX, region[0]).hit


def test_teardown_restores_prelaunch_ledger():
    w = fresh_world()
    before_led = w.monitor.ledger.canonical()
    before_ros = w.machine.table_sets[ROS_CTX].canonical()
    a = w.create_sandbox("demo", max_cores=3)
    span = w.monitor.ledger.sandbox_span(a)
    region = (span[1], span[1] + 16 * MB)
    w.monitor.attach_memory(a, region)
    for _ in range(2):
        w._request_core_increase(a, None)
    w.request_peripheral(a, "gpu")
    w.terminate(a)
    assert w.monitor.ledger.canonical() == before_led
    assert w.machine.table_sets[ROS_CTX].canonical() == before_ros
    assert cost_records(w, "shutdown") == [629 * MS_NS]
    assert a not in w.machine.table_sets


def test_teardown_requires_terminating_state():
    w = fresh_world()
    a = w.create_sandbox("demo")
    with pytest.raises(BadState):
        w.monitor.teardown(a, state_of=w.state_of)


def test_post_teardown_probe_finds_no_foreign_cache():
    w = fresh_world()
    a = w.create_sandbox("demo")
    span = w.monitor.ledger.sandbox_span(a)
    core_a = w.monitor.ledger.cores_of(a)[0]
    w.machine.translate(core_a, span[0])
    w.machine.cache_fill(a, span[0])
    w.terminate(a)
    _, leaked = w.probe_cache(ROS_CTX, span[0])
    assert leaked == 0
    assert all(owner != a for owner in w.machine.cache.values())


def test_verdict_soundness_randomized():
    """Applying only approved attach/detach operations never breaks
    exclusivity or contiguity; cross-checked against a brute-force
    block-owner map."""
    rng = random.Random(99)
    for round_ in range(15):
        w = fresh_world()
        sandboxes = [w.create_sandbox("demo", max_memory=256 * MB)
                     for _ in range(3)]
        # independent oracle: block index -> owner
        blocks = {}
        for sb in sandboxes:
            s, e = w.monitor.ledger.sandbox_span(sb)
            for b in range(s // (2 * MB), e // (2 * MB)):
                blocks[b] = sb
        for _ in range(40):
            sb = rng.choice(sandboxes)
            span = w.monitor.ledger.sandbox_span(sb)
            grow = rng.random() < 0.6
            if grow:
                size = rng.choice([16 * MB, 32 * MB])
                side = rng.choice(["hi", "lo"])
                region = (span[1], span[1] + size) if side == "hi" \
                    else (span[0] - size, span[0])
            else:
                size = 16 * MB
                region = (span[1] - size, span[1])
            adjust = w.monitor.attach_memory if grow else w.monitor.detach_memory
            verdict, _ = adjust(sb, region)
            if not verdict.approved:
                continue
            if grow:
                for b in range(region[0] // (2 * MB), region[1] // (2 * MB)):
                    assert b not in blocks, "oracle: overlap approved"
                    blocks[b] = sb
            else:
                for b in range(region[0] // (2 * MB), region[1] // (2 * MB)):
                    assert blocks.pop(b) == sb
            assert not check_excl_contig(w), "invariant broke after approved op"


def check_excl_contig(world):
    return [v for v in adversary.check_invariants(world)
            if v.invariant_id in ("EXCL-MEM", "CONTIG")]


def test_attach_without_legality_check_refuses_before_unmapping():
    """With the legality check off, ROS unmaps what it maps of the region,
    and a region whose end splits ROS's 2MB shared entry is refused before
    any of it is unmapped."""
    w = fresh_world(defenses=Defenses.with_mutations(("no_legality_check",)))
    sb = w.create_sandbox("demo")
    ros = w.machine.table_sets[ROS_CTX]
    channel = w.monitor.ledger.shared_channels[sb]
    assert ros.translate(channel[0] - PAGE_4K).attr is Attr.NORMAL
    region = (channel[0] - 2 * MB, channel[0] + PAGE_4K)
    before = ros.canonical()
    with pytest.raises(AlignmentError):
        w.monitor.attach_memory(sb, region)
    assert ros.canonical() == before
    assert w.engine.records[-1]["verdict"] == "approved"
