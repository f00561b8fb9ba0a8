import pytest

from teesim import scenario as sc
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
])
def test_malformed_directive_value_is_validation_error(directive):
    with pytest.raises(ValidationError):
        sc.parse(MINIMAL + f"at 2s {directive}\n")


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


def test_unblocked_attack_sets_exit_code():
    text = MINIMAL.replace("seed = 5", "seed = 5\nmutate = no_smmu")
    text = text.replace("at 800ms workload sb1 idle",
                        "at 800ms attack dma_bypass target=sb1")
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 1
