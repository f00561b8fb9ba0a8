import dataclasses
import shlex

import pytest

from teesim import scenario as sc
from teesim.engine import COSTS_NS, copy_cost_ns
from teesim.errors import ParseError, ValidationError
from teesim.units import MS_NS

MINIMAL = """teesim-scenario v1
seed = 5
horizon = 3s

[apps]
app demo demo-payload

[timeline]
at 0ms create sb1 app=demo
at 800ms workload sb1 idle
at 1500ms terminate sb1
"""


def test_parse_minimal():
    s = sc.parse(MINIMAL)
    assert s.seed == 5
    assert len(s.timeline) == 3
    assert s.timeline[0].kind == "create"


def test_roundtrip_specific():
    s = sc.parse(MINIMAL)
    assert sc.parse(sc.serialize(s)) == s


@pytest.mark.parametrize("seed", range(12))
def test_roundtrip_generated(seed):
    s = sc.make_random_scenario(seed)
    assert sc.parse(sc.serialize(s)) == s


def test_missing_header_is_parse_error():
    with pytest.raises(ParseError) as exc:
        sc.parse("not a scenario\n")
    assert exc.value.line == 1


def test_bad_section_reports_line():
    text = MINIMAL.replace("[apps]", "[wat]")
    with pytest.raises(ParseError) as exc:
        sc.parse(text)
    assert exc.value.line == 5


def test_bad_keyvalue_reports_line():
    with pytest.raises(ParseError) as exc:
        sc.parse("teesim-scenario v1\nseed 5\n")
    assert exc.value.line == 2


WIFI = "peripheral wifi kind=wifi mmio=3584M:3585M"


@pytest.mark.parametrize("extra,line", [
    ("optimized_core_transfers = off", 4),
    ("mem_granule = 2M", 4),
    ("colour = blue", 4),
    ("mutate = no_such_flag", 4),
    ("[defenses]\nsanitize = off", 4),
    ("[costs]\nboot_ms = 100", 4),
    ("[machine]\nram = 3584M\npreset = small", 6),
    (f"[machine]\n{WIFI} dam colour=red", 5),
    (f"[machine]\n{WIFI} dam", 5),
    (f"[machine]\n{WIFI} dma colour=red", 5),
    ("at 0ms create sb1 app=demo corse=2", 12),
    ("at 2s workload sb1 inference imgaes=3", 12),
    ("at 2s workload sb1 inference files=20M", 12),
    ("at 2s workload sb1 idle images=3", 12),
    ("at 2s create sb2 app=demo cipher serial=1", 12),
    ("[machine]\ncache_line = 32", 5),
    ("[machine]\ntlb_capacity = 4", 5),
    ("at 2s attach sb1 16M 32M", 12),
    ("at 2s add_core sb1 extra", 12),
    ("at 2s terminate sb1 foo=", 12),
    ("at 2s request_dev sb1 wifi now=", 12),
    ("at 2s send sb1 to_ros 5 6", 12),
    ("at 2s workload sb1 inference serial=0", 12),
    ("at 2s workload sb1 idle serial", 12),
    ("seed = abc", 4),
    ("horizon = 10x", 4),
    ("instant = yes", 4),
    ("[machine]\nram = 12Q", 5),
    ("[machine]\nio_window = 4G", 5),
    ("[machine]\nio_window = 3584M:4G:5G", 5),
])
def test_unknown_key_or_section_reports_line(extra, line):
    """`extra` goes after the header, or at the end of the timeline if it
    is a directive."""
    if extra.startswith("at "):
        text = MINIMAL + extra
    else:
        text = MINIMAL.replace("horizon = 3s", "horizon = 3s\n" + extra)
    with pytest.raises(ParseError) as exc:
        sc.parse(text)
    assert exc.value.line == line


def test_peripheral_flags_roundtrip():
    text = MINIMAL.replace(
        "[apps]", f"[machine]\n{WIFI} dma shared_driver always_busy\n[apps]")
    s = sc.parse(text)
    p = s.machine.peripherals[0]
    assert (p.dma_capable, p.independent, p.always_busy_in_ros) == (True, False, True)
    assert sc.parse(sc.serialize(s)) == s


def test_unknown_device_is_validation_error():
    text = MINIMAL.replace("at 800ms workload sb1 idle",
                           "at 800ms request_dev sb1 floppy")
    with pytest.raises(ValidationError):
        sc.parse(text)


@pytest.mark.parametrize("directive", [
    "send sb1 sideways 10",
    "send sb1 to_ros lots",
    "send sb1",
    "attach sb1 banana",
    "attach sb1",
    "detach sb1 x",
    "create sb2 app=demo cores=abc",
    "create sb2 app=demo corse=",
    "workload sb1 inference images=x",
    "create sb2 inference images=-3 app=demo",
    "workload sb1 cipher scan=-5",
    "workload sb1 inference gpu_speedup=-1",
    "workload sb1 inference gpu_speedup=inf",
    "workload sb1 inference gpu_speedup=nan",
    "attack malicious_image_swap app=nope",
    "attack io_eavesdrop dev=floppy",
    "attack dma_bypass target=sb9",
    "add_core sb1 core=medium",
])
def test_malformed_directive_value_is_validation_error(directive):
    with pytest.raises(ValidationError):
        sc.parse(MINIMAL + f"at 2s {directive}\n")


@pytest.mark.parametrize("machine", ["ram = 4G", "core 0 big\ncore 0 little"])
def test_invalid_machine_is_validation_error(machine):
    with pytest.raises(ValidationError):
        sc.parse(MINIMAL.replace("[apps]", f"[machine]\n{machine}\n[apps]"))


def test_malformed_value_error_names_its_argument():
    with pytest.raises(ValidationError) as err:
        sc.parse(MINIMAL + "at 2s workload sb1 inference images=20 gpu_speedup=-1\n")
    assert str(err.value) == ("bad workload argument: gpu_speedup: "
                              "-1 is not a finite non-negative number")


def test_teardown_returns_device_grant_still_in_flight():
    """Terminate lands after the monitor gave sb1 the GPU but before the
    grant reached its runtime, so teardown returns a device that
    `rt.devices` does not hold yet."""
    text = MINIMAL.replace("seed = 5\nhorizon = 3s", "seed = 1\nhorizon = 4s")
    text = text.split("[timeline]")[0] + (
        "[timeline]\n"
        "at 0ms create sb1 app=demo cores=2 memory=512M core=big\n"
        "at 600ms add_core sb1\n"
        "at 1s request_dev sb1 gpu\n"
        "at 1050ms terminate sb1\n")
    res = sc.run_scenario(sc.parse(text))
    assert res.trace_digest == \
        "56451d33705155681b07aa00d62122d3df85ba2de22610ba2f715111955d7611"
    assert res.world.metrics.frozen_gui_ns == [50_000_000]


TWO_GPUS = """teesim-scenario v1
seed = 1
horizon = 30s

[machine]
peripheral gpu0 kind=gpu mmio=3584M:3585M dma
peripheral gpu1 kind=gpu mmio=3585M:3586M dma

[apps]
app demo demo-payload

[timeline]
at 0ms create sb1 app=demo core=big
at 600ms request_dev sb1 gpu0
at 800ms request_dev sb1 gpu1
at 1s workload sb1 inference images=10 units=2000
"""


def test_releasing_one_of_two_gpus_keeps_the_gpu_rate():
    """A sandbox that gives back one of its two GPUs still holds a GPU, so
    it keeps the 3.57x rate and finishes when it would with both."""
    both = sc.run_scenario(sc.parse(TWO_GPUS))
    one = sc.run_scenario(sc.parse(TWO_GPUS + "at 1500ms release_dev sb1 gpu1\n"))
    assert one.exit_code == 0
    assert one.world.runtimes[1].rate_mu_ms() == 3570
    assert one.world.metrics.completion_ns == both.world.metrics.completion_ns \
        == {1: 5_602_240_897}


def test_unknown_handle_is_validation_error():
    text = MINIMAL.replace("terminate sb1", "terminate sb9")
    with pytest.raises(ValidationError):
        sc.parse(text)


def test_unsorted_timeline_rejected():
    text = MINIMAL.replace("at 1500ms terminate sb1",
                           "at 100ms terminate sb1")
    with pytest.raises(ValidationError):
        sc.parse(text)


def test_minimal_run_has_boot_and_shutdown_costs():
    res = sc.run_scenario(sc.parse(MINIMAL))
    assert res.exit_code == 0
    costs = {r["args"]["name"]: r["args"]["ns"]
             for r in res.world.engine.records if r["op"] == "cost"}
    assert costs["boot"] == 532 * MS_NS
    assert costs["shutdown"] == 629 * MS_NS


def test_independent_other_peripheral_charges_the_other_rows():
    """A device of kind `other` has no profiled row of its own; switching
    it charges the cheapest profiled map (55 ms) and unmap (23 ms)."""
    text = MINIMAL.replace(
        "[apps]", "[machine]\nperipheral cam kind=other mmio=3584M:3585M\n[apps]")
    text = text.replace("at 800ms workload sb1 idle",
                        "at 800ms request_dev sb1 cam\nat 1200ms release_dev sb1 cam")
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 0
    periph = [(r["args"]["name"], r["args"]["ns"]) for r in res.world.engine.records
              if r["op"] == "cost" and r["args"]["name"].startswith("periph_")]
    assert periph == [
        ("periph_unmap_other_ros", 23 * MS_NS), ("periph_map_other_sandbox", 55 * MS_NS),
        ("periph_unmap_other_sandbox", 23 * MS_NS), ("periph_map_other_ros", 55 * MS_NS),
    ]


def test_every_cost_record_is_a_table_row():
    """A cost record's name is its `COSTS_NS` key, or `copy`, interpolated
    over the copy anchors for its byte count."""
    names = set()
    for seed in range(50):
        for r in sc.run_scenario(sc.make_random_scenario(seed)).world.engine.records:
            if r["op"] != "cost":
                continue
            name, ns = r["args"]["name"], r["args"]["ns"]
            names.add(name)
            if name == "copy":
                assert ns == copy_cost_ns(r["args"]["bytes"])
            else:
                assert name in COSTS_NS and ns == COSTS_NS[name], name
    assert {"boot", "shutdown", "copy", "mem_inc"} <= names


def test_rerun_same_seed_identical_digest():
    s = sc.make_random_scenario(3)
    assert sc.run_scenario(s).trace_digest == sc.run_scenario(s).trace_digest


def test_mutation_flag_roundtrip():
    text = MINIMAL.replace("seed = 5", "seed = 5\nmutate = no_sanitize")
    s = sc.parse(text)
    assert s.mutations == ("no_sanitize",)
    assert sc.parse(sc.serialize(s)) == s


def test_attack_directive_runs():
    text = MINIMAL.replace("at 800ms workload sb1 idle",
                           "at 800ms attack dma_bypass target=sb1")
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 0
    assert len(res.world.attack_outcomes) == 1
    assert res.world.attack_outcomes[0].blocked


def test_dma_attack_through_device_without_dma_is_blocked():
    text = MINIMAL.replace("at 800ms workload sb1 idle",
                           "at 800ms attack dma_bypass target=sb1 dev=bluetooth")
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 0
    assert [o.blocked for o in res.world.attack_outcomes] == [True]


def test_cache_attack_primes_only_ros_memory():
    """sb2 sits right past sb1, so the frame the cache attack would prime
    belongs to sb2, not ROS: it is left alone and the attach is refused."""
    text = MINIMAL.replace("at 800ms workload sb1 idle",
                           "at 0ms create sb2 app=demo\n"
                           "at 1s attack cache_direct_attack target=sb1")
    res = sc.run_scenario(sc.parse(text))
    assert res.violations == []
    assert res.exit_code == 0
    assert [o.blocked for o in res.world.attack_outcomes] == [True]


@pytest.mark.parametrize("attack, instant, mutate, blocked, leaked, exit_code", [
    ("cache_direct_attack", "false", "", True, 0, 0),
    ("cache_direct_attack", "false", "no_sanitize", False, 64, 1),
    ("stale_tlb_read", "true", "", True, 0, 0),
    ("stale_tlb_read", "true", "no_sanitize", False, 4096, 1),
])
def test_attacks_use_the_region_the_attach_takes(attack, instant, mutate,
                                                 blocked, leaked, exit_code):
    """Once sb1 is gone sb2 has free memory below it, and the attach takes
    that region first: the cache attack primes, touches and probes it, and
    the stale-TLB attack touches the granule the detach then gives back
    (instant, so that the detach need not wait for the attach)."""
    text = MINIMAL.replace("seed = 5",
                           f"seed = 5\nmutate = {mutate}\ninstant = {instant}")
    text = text.replace("at 0ms create sb1 app=demo",
                        "at 0ms create sb1 app=demo\n"
                        "at 0ms create sb2 app=demo memory=512M")
    text = text.replace("at 800ms workload sb1 idle\nat 1500ms terminate sb1",
                        "at 700ms terminate sb1\n"
                        f"at 1500ms attack {attack} target=sb2")
    res = sc.run_scenario(sc.parse(text))
    assert [(o.blocked, o.leaked_bytes)
            for o in res.world.attack_outcomes] == [(blocked, leaked)]
    assert res.exit_code == exit_code


@pytest.mark.parametrize("mutate", ["", "no_sanitize"])
def test_stale_tlb_attack_with_attach_pending_is_not_a_leak(mutate):
    """In timed mode the attack's own attach is still pending, so its detach
    is refused: the translation that still hits is the sandbox's own."""
    text = MINIMAL.replace("seed = 5", f"seed = 5\nmutate = {mutate}")
    text = text.replace("at 800ms workload sb1 idle",
                        "at 800ms attack stale_tlb_read target=sb1")
    res = sc.run_scenario(sc.parse(text))
    assert [(o.blocked, o.leaked_bytes, o.detail)
            for o in res.world.attack_outcomes] == [(True, 0, "setup detach rejected")]
    assert res.exit_code == 0


def test_unblocked_attack_sets_exit_code():
    text = MINIMAL.replace("seed = 5", "seed = 5\nmutate = no_smmu")
    text = text.replace("at 800ms workload sb1 idle",
                        "at 800ms attack dma_bypass target=sb1")
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 1


# Every directive kind and every attack key, run once.
ALL_DIRECTIVES = """teesim-scenario v1
seed = 7
horizon = 12s

[apps]
app demo demo-payload
app qdb query-payload

[timeline]
at 0ms create sb1 app=demo cores=3 memory=512M core=big inference images=4 units=300 serial
at 0ms create sb2 app=qdb cores=1 memory=320M core=little base=160M cipher files=20M,40M queries=2 cache=10M scan=10 miss=25
at 0ms create sb3 app=demo
at 700ms workload sb3 inference images=2 units=100 gpu_speedup=2.5
at 800ms send sb1 to_sandbox 65536
at 850ms send sb1 to_ros
at 900ms request_dev sb1 gpu
at 950ms request_dev sb3 gpu
at 1s request_dev sb2 usb
at 1100ms attach sb1 16M
at 1200ms add_core sb1 core=little
at 1300ms add_core sb1
at 1500ms release_dev sb1 gpu
at 1600ms release_dev sb2 wifi
at 2s detach sb1 16M
at 2100ms release_core sb1
at 2200ms release_core sb3
at 2500ms attack overlapping_memory_config victim=sb1 requester=sb3
at 2600ms attack double_core_alloc victim=sb1
at 2700ms attack io_eavesdrop holder=sb3 dev=gpu
at 2800ms attack dma_bypass target=sb1 dev=wifi
at 2900ms attack malicious_image_swap app=demo
at 3s attack stale_tlb_read target=sb2
at 3100ms attack cache_direct_attack
at 4s terminate sb3
at 5s send sb3 to_ros 4096
at 5100ms workload sb3 idle
at 6s terminate sb1
"""


def test_all_directive_kinds_pinned():
    res = sc.run_scenario(sc.parse(ALL_DIRECTIVES))
    assert res.trace_digest == \
        "795881383c800cab590450dd3980b776521396a114730b79c6cd408569cdad2c"
    assert res.exit_code == 0
    assert len(res.world.attack_outcomes) == 7
    assert all(o.blocked for o in res.world.attack_outcomes)
    system = [(r["op"], r["verdict"], r["reason"])
              for r in res.world.engine.records if r["actor"] == "system"]
    assert system == [("request_dev", "rejected", "UnsupportedDevice"),
                      ("release_dev", "rejected", "BadState"),
                      ("send", "skipped", "NoSuchSandbox"),
                      ("workload", "skipped", "NoSuchSandbox")]


ADVERSARY_DIRECTIVES = """teesim-scenario v1
seed = 11
horizon = 3s
mutate = no_smmu

[apps]
app demo demo-payload

[timeline]
at 0ms create sb2 app=demo
at 0ms create sb1 app=demo memory=256M
at 700ms ros_prime sb1
at 710ms attach sb1 16M
at 720ms victim_touch sb1
at 730ms overlap_attach sb2 sb1
at 740ms ros_probe sb1
at 750ms steal_core sb1 app=demo
at 760ms create_tampered sb3 app=demo
at 770ms ros_dma sb2 wifi
at 800ms terminate sb1
at 900ms victim_touch sb1
"""


def test_adversary_directives_pinned():
    """Each adversary step directive in a timed run: only the DMA, with the
    SMMU off, leaks, and a leak fails the run like an unblocked attack."""
    res = sc.run_scenario(sc.parse(ADVERSARY_DIRECTIVES))
    assert res.trace_digest == \
        "f542a26a607a5569914ba803815ce3a69f8be301dab8f3a5190ac385eba3e983"
    assert res.exit_code == 1
    assert res.first_seen == {"attack": 9}
    assert res.world.metrics.leaked_bytes == 4096
    assert res.violations == [] and res.world.attack_outcomes == []
    system = [(r["op"], r["verdict"], r["reason"])
              for r in res.world.engine.records if r["actor"] == "system"]
    assert system == [("steal_core", "rejected", "ResourceBusy"),
                      ("create_tampered", "rejected", "IntegrityError"),
                      ("victim_touch", "rejected", "BadState")]


def test_instant_header_key():
    text = ADVERSARY_DIRECTIVES.replace("mutate = no_smmu\n",
                                        "mutate = no_smmu\ninstant = true\n")
    s = sc.parse(text)
    assert s.instant and sc.serialize(sc.parse(sc.serialize(s))) == sc.serialize(s)
    assert "instant" not in sc.serialize(sc.parse(ADVERSARY_DIRECTIVES))
    # Instant: the sandboxes are running at once, and the terminate is done
    # before the last touch, which finds no sandbox.
    res = sc.run_scenario(s)
    assert res.world.engine.records[-1]["reason"] == "NoSuchSandbox"
    with pytest.raises(ParseError):
        sc.parse(text.replace("instant = true", "instant = yes"))


# Directives that name sandboxes by handle, given and defaulted, one of them
# dead by the time it runs.
HANDLES = MINIMAL.replace("at 800ms workload sb1 idle\n", (
    "at 0ms create sb2 app=demo cores=2\n"
    "at 700ms workload sb2 inference images=3 units=200\n"
    "at 800ms attack dma_bypass target=sb1\n"
    "at 900ms attack cache_direct_attack\n"
    "at 1000ms add_core sb2\n")) + "at 1600ms send sb1 to_ros 4096\n"


def test_each_directive_is_read_once(monkeypatch):
    """Validation reads every directive's values, and the runner reuses
    them: one `_read` per directive over a parse and a run."""
    read, reads = sc._read, []
    monkeypatch.setattr(sc, "_read", lambda d, lookup: reads.append(d.kind)
                        or read(d, lookup))
    s = sc.parse(HANDLES)
    sc.run_scenario(s)
    assert reads == [d.kind for d in s.timeline]


@pytest.mark.parametrize("text", [HANDLES, ADVERSARY_DIRECTIVES] + [
    sc.serialize(sc.make_random_scenario(seed)) for seed in range(6)])
def test_a_parsed_scenario_runs_again_like_a_fresh_parse(text):
    """The values a parse keeps are never changed by a run: the scenario
    runs again, and under the other mode as `compare` runs it, with the
    trace digests of fresh parses."""
    once = sc.parse(text)
    for mode in ("leap", "tzasc"):
        fresh = sc.run_scenario(dataclasses.replace(sc.parse(text), mode=mode))
        again = [sc.run_scenario(dataclasses.replace(once, mode=mode)) for _ in range(2)]
        assert [r.trace_digest for r in again] == [fresh.trace_digest] * 2


@pytest.mark.parametrize("line", [
    "app a b", "app a  b", " app a b", "app a b ", "app\ta b", "app a b\tc",
    "app a 'b c'", 'app a "b c"', "app a b\\ c", "app a b\\", "app a b\fc",
    "app a b\x0bc", "app a b\xa0c", "app a b\rc", "app a b\nc", "app a ''"])
def test_apps_lines_split_as_shlex_splits(line):
    def split(how):
        try:
            return how(line)
        except ValueError as exc:
            return str(exc)
    assert split(sc._split_words) == split(shlex.split)
