import hashlib
import random
from collections import deque

import pytest

from teesim import adversary
from teesim.adversary import (
    AttackKind,
    AttackScenario,
    _Node,
    check_invariants,
    default_alphabet,
    explore,
    make_small_world,
    replay_trace,
    run_attack,
)
from teesim.errors import BudgetExceeded, OutOfMemory, SimError
from teesim.hw_model import default_config
from teesim.monitor import Defenses
from teesim.world import World, WorldOptions, build_world

PAYLOAD = b"secret model weights"


def fresh(mutations=()):
    return build_world(default_config(),
                       defenses=Defenses.with_mutations(mutations),
                       options=WorldOptions(instant=True),
                       apps=[("demo", PAYLOAD)])


EXPECTED_MECHANISM = {
    AttackKind.MALICIOUS_IMAGE_SWAP: "integrity",
    AttackKind.OVERLAPPING_MEMORY_CONFIG: "legality check",
    AttackKind.DOUBLE_CORE_ALLOC: "legality check",
    AttackKind.IO_EAVESDROP: "stage-2",
    AttackKind.STALE_TLB_READ: "stage-2",
    AttackKind.CACHE_DIRECT_ATTACK: "sanitize",
    AttackKind.DMA_BYPASS: "SMMU",
}


@pytest.mark.parametrize("kind", list(AttackKind))
def test_attack_blocked_with_defenses_on(kind):
    w = fresh()
    out = run_attack(w, AttackScenario(kind))
    assert out.blocked, out.detail
    assert out.leaked_bytes == 0
    assert out.mechanism == EXPECTED_MECHANISM[kind]
    assert check_invariants(w) == []


@pytest.mark.parametrize("flag,kind", [
    ("no_verify", AttackKind.MALICIOUS_IMAGE_SWAP),
    ("no_legality_check", AttackKind.OVERLAPPING_MEMORY_CONFIG),
    ("no_legality_check", AttackKind.DOUBLE_CORE_ALLOC),
    ("no_sanitize", AttackKind.CACHE_DIRECT_ATTACK),
    ("no_sanitize", AttackKind.STALE_TLB_READ),
    ("no_smmu", AttackKind.DMA_BYPASS),
])
def test_mutation_unblocks_matching_attack(flag, kind):
    w = fresh((flag,))
    out = run_attack(w, AttackScenario(kind))
    assert not out.blocked


# Every attack under every defense setting, as (mutation flag, attack,
# blocked, mechanism, leaked bytes, sha256 of the serialized trace). With
# no_verify every attack reads unblocked: each one launches a sandbox, which
# then boots unverified and trips BOOT-GATE.
CATALOGUE_MATRIX = [
    (None, "malicious_image_swap", True, "integrity", 0,
     "0b5b0cf861bfe075068a51a4f3d1842641509fdfd6510ff83825869d1d3b6bca"),
    (None, "overlapping_memory_config", True, "legality check", 0,
     "437b375aea2753805b9a4741e1c378f9e938572f8ffe0a0cf22b266c88a5480c"),
    (None, "double_core_alloc", True, "legality check", 0,
     "87dcf0e76a5ac6c59ea9f7b21ad002543fc9be3823892f8e6a6e891f73e62cdf"),
    (None, "io_eavesdrop", True, "stage-2", 0,
     "87914a535a1da1e2c36b78e060995c4bfac7519be67a5ed1e99b30230ae3bfcc"),
    (None, "cache_direct_attack", True, "sanitize", 0,
     "767fb97452843a5f9841a3732557489a7ace4a9646462ad2808d147ccda5aabd"),
    (None, "dma_bypass", True, "SMMU", 0,
     "7bb45d8ed4b2b9e6b14c5b7a83729f648e3da1463b2a0b839e6026d3c84f3064"),
    (None, "stale_tlb_read", True, "stage-2", 0,
     "df6474bece0bd39096a618ead3f6d30cffe9d84bc91089e92bb545d1759d4f6d"),
    ('no_verify', "malicious_image_swap", False, "none", 20,
     "f29e71288037816f75f385b3b3e57a60a301e17076651263a83dec0cd30715d1"),
    ('no_verify', "overlapping_memory_config", False, "legality check", 0,
     "e6f659696b4357b7b5ad692e815f812a7035c676d6c12d82c0c82a9fc3dd0bf5"),
    ('no_verify', "double_core_alloc", False, "legality check", 0,
     "a86e65c98abc6e0e069a932b6e365b4e02bdc6082966f72d703caf70a3bf81f3"),
    ('no_verify', "io_eavesdrop", False, "stage-2", 0,
     "19eedf3d210784a03752f6195e46025f8f7a3fbb6b25d2406fc929b05ee27ed6"),
    ('no_verify', "cache_direct_attack", False, "sanitize", 0,
     "8b434e2e944e9e2a4559675b238e05f1ec686d10bfc43dbb133fb3e7cbf8e26a"),
    ('no_verify', "dma_bypass", False, "SMMU", 0,
     "3ff4d8466ed9018450fc107e549675e6d364bb5d0cc15b2831268cbdd966c42a"),
    ('no_verify', "stale_tlb_read", False, "stage-2", 0,
     "8e1a175b5abbd9332779644f32d728a402f1805a0048aeb50b9989d47dde873a"),
    ('no_sanitize', "malicious_image_swap", True, "integrity", 0,
     "0b5b0cf861bfe075068a51a4f3d1842641509fdfd6510ff83825869d1d3b6bca"),
    ('no_sanitize', "overlapping_memory_config", True, "legality check", 0,
     "ef32e7f6a87c64c3cf3c349cac08cae152314fce4486fabb63b8a93476059fb5"),
    ('no_sanitize', "double_core_alloc", True, "legality check", 0,
     "38c560f9e4333c5fca43afd5361e49531d147cddd2189806333cc98803681e85"),
    ('no_sanitize', "io_eavesdrop", True, "stage-2", 0,
     "31567988cedc75a0780794a8b6aeb0bc0bc451df759b256269a6ffc96f2b5320"),
    ('no_sanitize', "cache_direct_attack", False, "none", 64,
     "79bcebe797578bc90d2cbb047b0db92c2b549347b7abbb7a27e4895810fceece"),
    ('no_sanitize', "dma_bypass", True, "SMMU", 0,
     "3068922b72c850fb8a6a945d1e2bf71025cbc02e0bc79a3e06761454d91d2ca0"),
    ('no_sanitize', "stale_tlb_read", False, "none", 4096,
     "6c1dd64679287f802dc3bee67d6ef7d34c6f70f2d6e270ec984f56b3de595d17"),
    ('no_legality_check', "malicious_image_swap", True, "integrity", 0,
     "0b5b0cf861bfe075068a51a4f3d1842641509fdfd6510ff83825869d1d3b6bca"),
    ('no_legality_check', "overlapping_memory_config", False, "none", 2097152,
     "8ff327adbcbab43acbcd3faee3acd70267cca8294c844bdb0e5335167a34865d"),
    ('no_legality_check', "double_core_alloc", False, "none", 0,
     "50cb42be3abdcc0d1f7926028f0cbcf2f5c8fdd08dc20c52055e13724ce5bb04"),
    ('no_legality_check', "io_eavesdrop", True, "stage-2", 0,
     "87914a535a1da1e2c36b78e060995c4bfac7519be67a5ed1e99b30230ae3bfcc"),
    ('no_legality_check', "cache_direct_attack", True, "sanitize", 0,
     "767fb97452843a5f9841a3732557489a7ace4a9646462ad2808d147ccda5aabd"),
    ('no_legality_check', "dma_bypass", True, "SMMU", 0,
     "7bb45d8ed4b2b9e6b14c5b7a83729f648e3da1463b2a0b839e6026d3c84f3064"),
    ('no_legality_check', "stale_tlb_read", True, "stage-2", 0,
     "df6474bece0bd39096a618ead3f6d30cffe9d84bc91089e92bb545d1759d4f6d"),
    ('no_smmu', "malicious_image_swap", True, "integrity", 0,
     "0b5b0cf861bfe075068a51a4f3d1842641509fdfd6510ff83825869d1d3b6bca"),
    ('no_smmu', "overlapping_memory_config", True, "legality check", 0,
     "437b375aea2753805b9a4741e1c378f9e938572f8ffe0a0cf22b266c88a5480c"),
    ('no_smmu', "double_core_alloc", True, "legality check", 0,
     "87dcf0e76a5ac6c59ea9f7b21ad002543fc9be3823892f8e6a6e891f73e62cdf"),
    ('no_smmu', "io_eavesdrop", True, "stage-2", 0,
     "87914a535a1da1e2c36b78e060995c4bfac7519be67a5ed1e99b30230ae3bfcc"),
    ('no_smmu', "cache_direct_attack", True, "sanitize", 0,
     "767fb97452843a5f9841a3732557489a7ace4a9646462ad2808d147ccda5aabd"),
    ('no_smmu', "dma_bypass", False, "none", 4096,
     "021ed8062f29516bb7d939d1cc4f5809c6e2f6b056c48ccf6cacdeb0f443e724"),
    ('no_smmu', "stale_tlb_read", True, "stage-2", 0,
     "df6474bece0bd39096a618ead3f6d30cffe9d84bc91089e92bb545d1759d4f6d"),
]


@pytest.mark.parametrize("flag,kind,blocked,mechanism,leaked,trace_sha",
                         CATALOGUE_MATRIX)
def test_catalogue_matrix(flag, kind, blocked, mechanism, leaked, trace_sha):
    w = fresh((flag,) if flag else ())
    out = run_attack(w, AttackScenario(AttackKind(kind)))
    assert (out.blocked, out.mechanism, out.leaked_bytes) == \
        (blocked, mechanism, leaked)
    assert hashlib.sha256(w.engine.serialize_trace().encode()).hexdigest() \
        == trace_sha


def test_io_eavesdrop_blocked_for_other_sandboxes_too():
    w = fresh()
    holder = w.create_sandbox("demo")
    other = w.create_sandbox("demo")
    w.request_peripheral(holder, "wifi")
    mmio = w.machine.config.peripheral("wifi").mmio_range
    reached, leaked = w.probe_read(other, mmio[0])
    assert not reached and leaked == 0


def test_fresh_world_has_no_violations():
    assert check_invariants(fresh()) == []


def test_cache_probe_requires_successful_translation():
    """A line cached by ROS is unreachable from a sandbox that has no valid
    translation for the address, physically indexed cache or not."""
    w = fresh()
    sb = w.create_sandbox("demo")
    ros_addr = 0x1000  # ROS-owned low RAM, never mapped into the sandbox
    w.machine.cache_fill(0, ros_addr)
    reached, leaked = w.probe_cache(sb, ros_addr)
    assert not reached and leaked == 0
    # the owner itself still hits
    reached, _ = w.probe_cache(0, ros_addr)
    assert reached


def test_corrupted_ledger_reports_excl_mem():
    w = fresh()
    a = w.create_sandbox("demo")
    b = w.create_sandbox("demo")
    # test-only backdoor: clone b's first frame into a's table set
    frame = w.monitor.ledger.sandbox_intervals(b)[0]
    from teesim.stage2 import Attr

    w.machine.table_sets[a].map_range(
        (frame[0], frame[0] + 2 * 1024 * 1024), Attr.NORMAL
    )
    ids = {v.invariant_id for v in check_invariants(w)}
    assert "EXCL-MEM" in ids


def test_cap_violation_detected():
    w = fresh()
    for _ in range(7):
        w.create_sandbox("demo")
    w.monitor.sandboxes[99] = w.monitor.sandboxes[1]
    ids = {v.invariant_id for v in check_invariants(w)}
    assert "CAP" in ids
    del w.monitor.sandboxes[99]


def test_no_transient_excl_dev_false_positives():
    """Peripheral switches are engine-atomic, so random request/release
    schedules must never show a state with a device mapped in two sets."""
    rng = random.Random(31)
    for _ in range(60):
        w = fresh()
        sbs = [w.create_sandbox("demo") for _ in range(2)]
        for _ in range(30):
            sb = rng.choice(sbs)
            dev = rng.choice(["wifi", "bluetooth", "gpu"])
            try:
                if rng.random() < 0.5:
                    w.request_peripheral(sb, dev)
                else:
                    w.release_peripheral(sb, dev)
            except Exception:
                pass
            assert not [v for v in check_invariants(w)
                        if v.invariant_id == "EXCL-DEV"]


def test_explore_depth_zero_is_single_state():
    res = explore(depth=0)
    assert res.states_visited == 1
    assert res.transitions == 0
    assert res.violations == []


def test_explore_small_depths_are_clean_and_deterministic():
    a = explore(depth=5)
    b = explore(depth=5)
    assert a.violations == []
    assert (a.states_visited, a.transitions) == (b.states_visited, b.transitions)


def test_explore_budget_exceeded_carries_partial_stats():
    with pytest.raises(BudgetExceeded) as exc:
        explore(depth=6, state_budget=100)
    assert exc.value.partial is not None
    assert exc.value.partial.states_visited > 100


@pytest.mark.parametrize("flag", ["no_verify", "no_sanitize",
                                  "no_legality_check", "no_smmu"])
def test_explore_mutation_sensitivity_with_replay(flag):
    res = explore(world_factory=lambda: make_small_world((flag,)),
                  depth=6, stop_at_first=True)
    assert res.violations, f"{flag} produced no counterexample"
    finding = res.violations[0]
    violations, leaked = replay_trace(finding.trace, mutations=(flag,))
    if finding.kind == "attack":
        assert leaked > 0
    else:
        assert finding.kind in {v.invariant_id for v in violations}


def test_counterexample_replay_is_deterministic():
    res = explore(world_factory=lambda: make_small_world(("no_sanitize",)),
                  depth=6, stop_at_first=True)
    finding = res.violations[0]
    first = replay_trace(finding.trace, mutations=("no_sanitize",))
    second = replay_trace(finding.trace, mutations=("no_sanitize",))
    assert [v.invariant_id for v in first[0]] == \
        [v.invariant_id for v in second[0]]
    assert first[1] == second[1]


def test_failed_steal_core_leaves_world_unchanged():
    """With a and b alive the shared pool is full: the op fails and must not
    leave a CMA region behind."""
    ops = dict(default_alphabet())
    node = _Node(make_small_world(), {}, ())
    ops["create_a"](node)
    ops["create_b"](node)
    world = node.world
    before = (world.canonical(), list(world.ros.cma.allocations))
    with pytest.raises(OutOfMemory):
        ops["adv_steal_core"](node)
    assert (world.canonical(), world.ros.cma.allocations) == before


def test_failed_double_core_attack_leaves_cma_unchanged():
    w = make_small_world()
    victim = w.create_sandbox("w")
    w.create_sandbox("w")
    before = list(w.ros.cma.allocations)
    with pytest.raises(OutOfMemory):
        run_attack(w, AttackScenario(AttackKind.DOUBLE_CORE_ALLOC,
                                     (("victim", victim),)))
    assert w.ros.cma.allocations == before


def test_explore_empty_alphabet_has_no_transitions():
    res = explore(op_alphabet=[], depth=2)
    assert (res.states_visited, res.transitions) == (1, 0)
    with pytest.raises(KeyError):
        replay_trace(("create_a",), op_alphabet=[])


def _reference_explore(world_factory, depth):
    """Plain BFS: clone before every op and check every transition."""
    ops = default_alphabet()
    root = _Node(world_factory(), {}, ())
    seen = {root.digest()}
    states, transitions, findings = 1, 0, []
    frontier = deque([(root, 0)])
    while frontier:
        node, d = frontier.popleft()
        if d >= depth:
            continue
        for name, fn in ops:
            child = _Node(node.world.clone(), dict(node.handles),
                          node.trace + (name,))
            try:
                leaked = fn(child)
            except SimError:
                continue
            transitions += 1
            violations = check_invariants(child.world)
            if leaked:
                findings.append(("attack", f"{name} leaked {leaked} bytes",
                                 child.trace))
            findings += [(v.invariant_id, v.detail, child.trace)
                         for v in violations]
            if violations or leaked:
                continue
            digest = child.digest()
            if digest not in seen:
                seen.add(digest)
                states += 1
                frontier.append((child, d + 1))
    return states, transitions, findings


@pytest.mark.parametrize("mutations", [(), ("no_verify",), ("no_sanitize",),
                                       ("no_legality_check",), ("no_smmu",)])
def test_explore_matches_reference_bfs(mutations):
    factory = lambda: make_small_world(mutations)  # noqa: E731
    res = explore(world_factory=factory, depth=5, stop_at_first=False)
    got = (res.states_visited, res.transitions,
           [(f.kind, f.detail, f.trace) for f in res.violations])
    assert got == _reference_explore(factory, 5)
    assert bool(got[2]) == bool(mutations)


def test_explore_reports_every_transition_into_a_violating_root():
    def broken_world():
        w = make_small_world(("no_verify",))
        w.create_sandbox("w")  # boots unverified: BOOT-GATE
        return w

    def noop(node):
        assert node.world is not None
        return 0

    res = explore(world_factory=broken_world, op_alphabet=[("noop", noop)],
                  depth=3)
    assert (res.states_visited, res.transitions) == (1, 1)
    assert [(f.kind, f.trace) for f in res.violations] == \
        [("BOOT-GATE", ("noop",))]


def test_explore_work_counters_at_depth_6(monkeypatch):
    calls = {"clone": 0, "check": 0}
    clone, check = World.clone, adversary.check_invariants

    def counted_clone(self):
        calls["clone"] += 1
        return clone(self)

    def counted_check(world):
        calls["check"] += 1
        return check(world)

    monkeypatch.setattr(World, "clone", counted_clone)
    monkeypatch.setattr(adversary, "check_invariants", counted_check)
    res = explore(depth=6)
    assert (res.states_visited, res.transitions) == (1147, 3357)
    assert calls["clone"] <= 5902
    assert calls["check"] <= 1147
