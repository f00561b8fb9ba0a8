import gc
import hashlib
import random
import weakref
from collections import deque

import pytest

from teesim import adversary
from teesim import scenario as sc
from teesim.adversary import (
    AttackKind,
    _Node,
    check_invariants,
    default_alphabet,
    explore,
    make_small_world,
    run_attack,
)
from teesim.engine import Engine
from teesim.errors import (
    BadState,
    BudgetExceeded,
    OutOfMemory,
    SimError,
    ValidationError,
)
from teesim.hw_model import default_config
from teesim.monitor import MUTATION_FLAGS, Defenses
from teesim.state import NESTED, REWIRED, SHARED
from teesim.world import Metrics, World

PAYLOAD = b"secret model weights"


def fresh(mutations=()):
    return World(default_config(),
                 defenses=Defenses.with_mutations(mutations),
                 instant=True,
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
    out = run_attack(w, kind)
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
    out = run_attack(w, kind)
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
    out = run_attack(w, AttackKind(kind))
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


FLAGS = ("no_verify", "no_sanitize", "no_legality_check", "no_smmu")


def replay(trace, mutations, with_trace=True):
    """Run an explored op sequence from its scenario file's text."""
    text = sc.serialize(sc.explored_scenario(trace, mutations))
    assert sc.serialize(sc.parse(text)) == text
    return sc.run_scenario(sc.parse(text), with_trace=with_trace)


def leaked(result):
    return result.world.metrics.leaked_bytes


@pytest.mark.parametrize("flag", FLAGS)
def test_explore_mutation_sensitivity_with_replay(flag):
    res = explore(world_factory=lambda: make_small_world((flag,)),
                  depth=6, stop_at_first=True)
    assert res.violations, f"{flag} produced no counterexample"
    finding = res.violations[0]
    result = replay(finding.trace, (flag,))
    assert result.exit_code == 1
    assert result.first_seen[finding.kind] == len(finding.trace) - 1
    if finding.kind == "attack":
        assert leaked(result) > 0
    else:
        assert finding.kind in {v.invariant_id for v in result.violations}


def test_counterexample_replay_is_deterministic():
    res = explore(world_factory=lambda: make_small_world(("no_sanitize",)),
                  depth=6, stop_at_first=True)
    finding = res.violations[0]
    first = replay(finding.trace, ("no_sanitize",))
    second = replay(finding.trace, ("no_sanitize",))
    assert [v.invariant_id for v in first.violations] == \
        [v.invariant_id for v in second.violations]
    assert leaked(first) == leaked(second)
    assert first.trace_digest == second.trace_digest


def test_mutation_findings_pinned():
    """Counts and every finding of depth-5 explores, honest and under each
    mutation flag: op names, order and leak sizes are part of the pin."""
    digest = hashlib.sha256()
    for flags in [()] + [(flag,) for flag in FLAGS]:
        res = explore(world_factory=lambda: make_small_world(flags), depth=5)
        digest.update(repr((res.states_visited, res.transitions,
                            [(f.kind, f.detail, f.trace)
                             for f in res.violations])).encode())
    assert digest.hexdigest() == \
        "310c931668de3d851704e335be2352b20608b1f6cf6bab20e3c00460afbbaed4"


def test_alphabet_is_directives_on_the_small_machine():
    names = [name for name, _ in default_alphabet()]
    assert names == [
        "create_a", "grow_mem_a", "shrink_mem_a", "terminate_a",
        "dev_request_a", "dev_release_a",
        "create_b", "grow_mem_b", "shrink_mem_b", "terminate_b",
        "dev_request_b", "dev_release_b",
        "grow_core_a", "shrink_core_a", "create_a_tampered",
        "adv_overlap_attach", "adv_prime_next_frame", "adv_victim_touch",
        "adv_probe_a", "adv_dma_a", "adv_steal_core",
    ]
    # Every directive line parses and validates in a small-machine scenario.
    scenario = sc.explored_scenario(tuple(names))
    assert [d.kind for d in scenario.timeline] == \
        [line.split()[0] for _, line in adversary.ALPHABET]


def test_every_depth5_finding_replays_from_its_scenario_file():
    """Each distinct finding under each flag, written as a scenario file,
    round-trips through serialize(parse()) and replays to its kind, first
    seen after its last directive; a leak leaks bytes."""
    checked = 0
    for flag in FLAGS:
        res = explore(world_factory=lambda: make_small_world((flag,)), depth=5)
        for kind, trace in dict.fromkeys((f.kind, f.trace) for f in res.violations):
            result = replay(trace, (flag,), with_trace=False)
            assert result.first_seen.get(kind) == len(trace) - 1, (flag, trace)
            if kind == "attack":
                assert leaked(result) > 0, (flag, trace)
            checked += 1
    assert checked == 443


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
        run_attack(w, AttackKind.DOUBLE_CORE_ALLOC, victim=victim)
    assert w.ros.cma.allocations == before


def test_attack_without_room_for_its_sandbox_is_blocked_at_setup():
    """Seven sandboxes take every non-ROS core of the default machine, so
    the attack's own create is refused: the attack still gets an outcome,
    blocked at setup, and its trace record."""
    text = ("teesim-scenario v1\n\n[apps]\napp demo payload\n\n[timeline]\n"
            + "".join(f"at 0ms create sb{i} app=demo\n" for i in range(1, 8))
            + "at 1s attack cache_direct_attack\n")
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 0
    [out] = res.world.attack_outcomes
    assert (out.kind, out.blocked, out.mechanism, out.leaked_bytes) == \
        (AttackKind.CACHE_DIRECT_ATTACK, True, "setup", 0)
    assert "TooManySandboxes" in out.detail
    assert res.world.metrics.attacks_blocked == 1
    assert [(r["actor"], r["op"], r["verdict"], r.get("reason"))
            for r in res.world.engine.records[-2:]] == [
        ("ros", "create_sandbox", "rejected", "TooManySandboxes"),
        ("adversary", "attack_cache_direct_attack", "blocked", "setup")]


def test_victim_touch_needs_a_core():
    """Without the legality check ROS can launch on a's only core: a keeps
    its memory but has no core to touch it from."""
    w = make_small_world(("no_legality_check",))
    a = w.create_sandbox("w")
    adversary.steal_core(w, a, "w")
    assert w.monitor.ledger.cores_of(a) == []
    with pytest.raises(BadState):
        adversary.victim_touch(w, a)


def test_steps_on_a_terminating_sandbox_are_refused():
    """A terminated sandbox holds no core and no memory until its teardown
    cost has passed, so each directive that reads its memory is refused."""
    steps = ("attach sb1 2M", "detach sb1 2M", "victim_touch sb1", "ros_probe sb1",
             "ros_prime sb1", "ros_dma sb1 wifi", "overlap_attach sb2 sb1")
    text = ("teesim-scenario v1\n\n[apps]\napp demo payload\n\n[timeline]\n"
            "at 0ms create sb1 app=demo\nat 0ms create sb2 app=demo\n"
            "at 1s terminate sb1\n" + "".join(f"at 1001ms {s}\n" for s in steps))
    res = sc.run_scenario(sc.parse(text))
    assert res.exit_code == 0
    assert [(r["op"], r["verdict"], r["reason"]) for r in res.world.engine.records
            if r["actor"] == "system"] == [
        (step.split()[0], "rejected", "BadState") for step in steps]


def test_explore_empty_alphabet_has_no_transitions():
    res = explore(op_alphabet=[], depth=2)
    assert (res.states_visited, res.transitions) == (1, 0)
    # An op name is no directive: as a scenario line it does not validate.
    with pytest.raises(ValidationError):
        sc.parse(sc.serialize(sc.explored_scenario(())) + "at 0ns create_a\n")


def _repr_key(node):
    """A state key that shares no code with the explorer's interned ids: a
    digest of the printed canonical tuple and sorted handles."""
    value = (node.world.canonical(), tuple(sorted(node.handles.items())))
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def _reference_explore(world_factory, depth):
    """Plain BFS: clone before every op, check every transition and key
    states by `_repr_key`."""
    ops = default_alphabet()
    root = _Node(world_factory(), {}, ())
    seen = {_repr_key(root)}
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
            digest = _repr_key(child)
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


def test_interned_keys_match_repr_keys(monkeypatch):
    """Over every successful transition of an honest depth-6 explore, two
    states share an interned key exactly when they share a repr digest, so
    == and repr agree on every value a key holds."""
    interned_of, repr_of = {}, {}
    calls = []
    make_keys = adversary._state_keys

    def recording_keys():
        key = make_keys()

        def recorded(node, parent=None):
            k, r = key(node, parent), _repr_key(node)
            calls.append(k)
            assert interned_of.setdefault(r, k) == k
            assert repr_of.setdefault(k, r) == r
            return k

        return recorded

    monkeypatch.setattr(adversary, "_state_keys", recording_keys)
    res = explore(depth=6)
    assert (res.states_visited, res.transitions) == (1147, 3357)
    # The root, then every transition but the 582 blocked probes and DMAs,
    # which change nothing and are not keyed.
    assert len(calls) == 1 + 3357 - 582
    assert len(interned_of) == len(repr_of) == 1147
    assert all(type(i) is int for k in repr_of for i in k)


def _canonical_leaves(obj, canonical) -> list:
    """The keys of obj's keyed fields, read out of its canonical tuple
    through the STATE schemas: a NESTED field's key is its value's own
    canonical tuple, read the same way."""
    out = []
    keyed = [(name, f) for name, f in type(obj).STATE.fields.items()
             if f.role == "keyed"]
    for (name, f), part in zip(keyed, canonical, strict=True):
        if f is NESTED:
            out += _canonical_leaves(getattr(obj, name), part)
        else:
            out.append(part)
    return out


@pytest.mark.parametrize("mutations,depth",
                         [((), 8)] + [((flag,), 5) for flag in MUTATION_FLAGS])
def test_incremental_keys_match_keys_from_canonical(monkeypatch, mutations, depth):
    """Every key the explorer makes, a child's against its parent's, equals
    the key interned from scratch from `World.canonical()` and the sorted
    handles, in the same intern table."""
    keys = []
    make_keys = adversary._state_keys

    def checked_keys():
        ids = {}
        key = make_keys(ids)

        def checked(node, parent=None):
            k = key(node, parent)
            world = node.world
            values = _canonical_leaves(world, world.canonical())
            values.append(tuple(sorted(node.handles.items())))
            assert k == tuple(ids.setdefault(v, len(ids)) for v in values), \
                node.trace
            keys.append(k)
            return k

        return checked

    monkeypatch.setattr(adversary, "_state_keys", checked_keys)
    res = explore(world_factory=lambda: make_small_world(mutations), depth=depth)
    assert bool(res.violations) == bool(mutations)
    if not mutations:
        assert (res.states_visited, res.transitions) == (7172, 24604)
        assert len(keys) == 1 + res.transitions - 4086  # blocked probes and DMAs
    assert len(set(keys)) >= res.states_visited


def test_frontier_keeps_no_ancestors():
    """A child holds no reference to its parent, so once the root is
    expanded, nothing holds the root's world any more."""
    roots, dead = [], []

    def factory():
        world = make_small_world()
        roots.append(weakref.ref(world))
        return world

    def probe(node):
        if node.trace and not dead:  # the first child of a depth-1 state
            dead.append(roots[0]() is None)  # freed by reference counting
        raise BadState("probe only")

    explore(world_factory=factory,
            op_alphabet=default_alphabet() + [("probe", probe)], depth=2)
    assert dead == [True]


def test_frontier_keeps_nothing_at_the_bound():
    """A child at the depth bound is never expanded, so the frontier does
    not keep it: once its parent is expanded, no world made at the bound
    is alive."""
    depth, at_bound, dead = 2, [], []

    def recorded(op_fn):
        def op(node):
            leaked = op_fn(node)
            if len(node.trace) == depth - 1 and node._world is not None:
                at_bound.append(weakref.ref(node._world))
            return leaked
        return op

    def probe(node):  # the last op: every other child of this parent is made
        if len(node.trace) == depth - 1:
            dead.append(all(ref() is None for ref in at_bound))
        raise BadState("probe only")

    ops = [(name, recorded(fn)) for name, fn in default_alphabet()]
    explore(op_alphabet=ops + [("probe", probe)], depth=depth)
    assert at_bound and dead and all(dead)


@pytest.mark.parametrize("mutations,depth",
                         [((), 6)] + [((flag,), 5) for flag in MUTATION_FLAGS])
def test_explore_leaves_no_cyclic_garbage(mutations, depth):
    """Explore runs without the cyclic collector, so everything it makes
    must be freed by reference counting: a field that adds a cycle to a
    world, a key or an id table fails here."""
    gc.collect()
    gc.disable()
    try:
        explore(world_factory=lambda: make_small_world(mutations), depth=depth)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _fails(node):
    raise RuntimeError("not a refusal")


# How an explore can end, as (explore's arguments, the exception it raises).
EXPLORE_EXITS = {
    "return": ({"depth": 2}, None),
    "stop_at_first": ({"world_factory": lambda: make_small_world(("no_verify",)),
                       "depth": 2, "stop_at_first": True}, None),
    "budget_exceeded": ({"depth": 6, "state_budget": 100}, BudgetExceeded),
    "op_raises": ({"op_alphabet": [("fails", _fails)], "depth": 1}, RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit", EXPLORE_EXITS)
def test_explore_restores_the_collector(exit, enabled):
    kwargs, raises = EXPLORE_EXITS[exit]
    during = []

    def probe(node):
        during.append(gc.isenabled())
        raise BadState("probe only")

    ops = [("probe", probe)] + kwargs.get("op_alphabet", default_alphabet())
    (gc.enable if enabled else gc.disable)()
    try:
        if raises is None:
            result = explore(**dict(kwargs, op_alphabet=ops))
            assert bool(result.violations) == (exit == "stop_at_first")
        else:
            with pytest.raises(raises):
                explore(**dict(kwargs, op_alphabet=ops))
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert during and not any(during)


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
    calls = {"clone": 0, "check": 0, "op": 0, "quiet": 0}
    clone, check = World.clone, adversary.check_invariants

    def counted_clone(self):
        calls["clone"] += 1
        return clone(self)

    def counted_check(world):
        calls["check"] += 1
        assert world.engine.records is None  # explored worlds keep no trace
        return check(world)

    monkeypatch.setattr(World, "clone", counted_clone)
    monkeypatch.setattr(adversary, "check_invariants", counted_check)
    leaves = adversary.keyed_leaves
    recomputed = 0

    def counted(key):
        def counted_key(value):
            nonlocal recomputed
            recomputed += 1
            return key(value)
        return counted_key

    monkeypatch.setattr(adversary, "keyed_leaves", lambda obj: [
        (path, f._replace(key=counted(f.key))) for path, f in leaves(obj)])
    def counted_op(fn):
        def op(node):
            calls["op"] += 1
            leaked = fn(node)
            calls["quiet"] += node._world is None  # it never touched a world
            return leaked
        return op

    ops = [(name, counted_op(fn)) for name, fn in default_alphabet()]
    res = explore(op_alphabet=ops, depth=6)
    assert (res.states_visited, res.transitions) == (1147, 3357)
    assert (res.self_loops, calls["quiet"]) == (740, 582)
    # An op gets a copy of its parent's world only when it touches it: a
    # refused op's copy goes to the next op on the same parent, and the last
    # op takes the parent's own world. So each expanded state makes at most
    # one clone more, or one fewer, than its transitions that touch a world.
    expanded = calls["op"] // len(ops)
    touched = res.transitions - calls["quiet"]
    assert touched - expanded <= calls["clone"] <= touched + expanded
    assert calls["clone"] == 2837
    assert calls["check"] <= 1147
    # The root and every transition that touched a world are keyed, a child
    # against its parent: a field key is computed only where the raw value
    # changed.
    keyed = len(leaves(make_small_world())) * (1 + touched)
    assert (recomputed, keyed - recomputed) == (13112, 22976)


def _fields(value, path: str, out: dict) -> dict:
    """Every field under value, deep, by path into out, except those a
    `STATE` schema declares SHARED or REWIRED: a stateful object by its
    schema, the engine and the metrics by their attributes, a dict or a list
    by its keys in order and then by item, a set as a frozenset. Any other
    value must be hashable, as an immutable one is, and is kept as it is."""
    schema = getattr(type(value), "STATE", None)
    if schema is not None:
        for name, f in schema.fields.items():
            if f not in (SHARED, REWIRED):
                _fields(getattr(value, name), f"{path}.{name}", out)
    elif isinstance(value, (Engine, Metrics)):
        _fields(vars(value), path, out)
    elif isinstance(value, (list, deque)):
        _fields(dict(enumerate(value)), path, out)
    elif isinstance(value, dict):
        out[f"{path} keys"] = list(value)
        for k, v in value.items():
            _fields(v, f"{path}[{k!r}]", out)
    elif isinstance(value, set):
        out[path] = frozenset(value)
    else:
        hash(value)
        out[path] = value
    return out


@pytest.mark.parametrize("mutations,depth",
                         [((), 7)] + [((flag,), 5) for flag in MUTATION_FLAGS])
def test_failed_op_changes_nothing(mutations, depth):
    """Every op from every explored state: one that is refused leaves the
    world it ran on and the handles as they were, in every field but
    SHARED and REWIRED ones, reset ones and the engine's clock included."""
    exceptions = []

    def checked(name, fn):
        def op(node):
            # The world the op gets: a copy of the parent's, the world a
            # refused op left, or for the last op the parent's own.
            world = node.world
            before = _fields(world, "world", {}), dict(node.handles)
            try:
                return fn(node)
            except SimError:
                after = _fields(world, "world", {}), node.handles
                changed = {p for p, v in before[0].items() if after[0][p] != v}
                # The one exception: a refused add_core (no free core) holds
                # off the runtime's next core request, as a granted one does.
                # Only the timed CPU monitor reads it; instant mode never runs
                # that monitor.
                if name == "grow_core_a" and changed:
                    sb = node.handles["a"]
                    assert changed == {f"world.runtimes[{sb}].hysteresis_until_ns"}
                    exceptions.append(node.trace)
                    changed = set()
                assert (changed, after[1]) == (set(), before[1]), (name, node.trace)
                raise
        return op

    ops = [(name, checked(name, fn)) for name, fn in default_alphabet()]
    res = explore(world_factory=lambda: make_small_world(mutations),
                  op_alphabet=ops, depth=depth)
    assert res.transitions and bool(res.violations) == bool(mutations)
    assert exceptions or mutations  # the honest world meets the exception


@pytest.mark.parametrize("mutations,depth",
                         [((), 8)] + [((flag,), 5) for flag in MUTATION_FLAGS])
def test_blocked_answers_agree_with_the_real_op(monkeypatch, mutations, depth):
    """Every op that answers "nothing changes" without touching a world is
    run for real on a copy of its parent's world anyway: it succeeds, leaks
    nothing, and leaves the handles and every field as they were."""
    ops = default_alphabet()
    monkeypatch.setattr(adversary, "_REACHES", {})
    real = dict(default_alphabet())  # ops that always run their step
    answers = []

    def checked(name, fn):
        def op(node):
            leaked = fn(node)
            if node._world is None:
                world, handles = node.peek.clone(), dict(node.handles)
                before = _fields(world, "world", {})
                try:
                    real_leaked = real[name](_Node(world, handles, node.trace))
                except SimError as exc:
                    raise AssertionError((name, node.trace)) from exc
                assert (leaked, real_leaked) == (0, 0), (name, node.trace)
                assert (_fields(world, "world", {}), handles) == \
                    (before, node.handles), (name, node.trace)
                answers.append(name)
            return leaked
        return op

    res = explore(world_factory=lambda: make_small_world(mutations),
                  op_alphabet=[(name, checked(name, fn)) for name, fn in ops],
                  depth=depth)
    assert bool(res.violations) == bool(mutations)
    assert set(answers) <= {"adv_probe_a", "adv_dma_a"}
    # Under no_verify every created sandbox breaks BOOT-GATE, so no state
    # with a sandbox to probe is expanded.
    assert answers or mutations == ("no_verify",)
    if not mutations:
        assert len(answers) == 4086


@pytest.mark.parametrize("mutations,depth",
                         [((), 6)] + [((flag,), 5) for flag in MUTATION_FLAGS])
def test_last_op_on_its_parents_world_changes_no_answer(monkeypatch, mutations,
                                                       depth):
    """Reversed, the alphabet ends on create_a, which often succeeds and
    then runs on its parent's own world. After a trailing op that is always
    refused, create_a runs on a copy instead. Both explore the same, and
    the first makes fewer clones."""
    def refused(node):
        raise BadState("always refused")

    clones = []
    clone = World.clone
    monkeypatch.setattr(World, "clone", lambda w: clones.append(1) or clone(w))
    ops = default_alphabet()[::-1]
    found, made = [], []
    for alphabet in (ops, ops + [("refused", refused)]):
        clones.clear()
        res = explore(world_factory=lambda: make_small_world(mutations),
                      op_alphabet=alphabet, depth=depth)
        found.append((res.states_visited, res.transitions, res.self_loops,
                      [(f.kind, f.detail, f.trace) for f in res.violations]))
        made.append(len(clones))
    assert found[0] == found[1]
    assert bool(found[0][3]) == bool(mutations)
    assert made[0] < made[1]


def _assert_only_live_state(world, where):
    """No dead sandbox's runtime or completion, and no drained device queue."""
    assert all(rt.state != "dead" for rt in world.runtimes.values()), where
    assert set(world._completions) <= set(world.runtimes), where
    assert all(world.dev_queues.values()), where


@pytest.mark.parametrize("mutations,depth",
                         [((), 6)] + [((flag,), 5) for flag in MUTATION_FLAGS])
def test_explored_worlds_hold_only_live_state(mutations, depth):
    def checked(name, fn):
        def op(node):
            leaked = fn(node)
            _assert_only_live_state(node.world, node.trace + (name,))
            return leaked
        return op

    ops = [(name, checked(name, fn)) for name, fn in default_alphabet()]
    res = explore(world_factory=lambda: make_small_world(mutations),
                  op_alphabet=ops, depth=depth)
    assert res.transitions


def test_timed_worlds_hold_only_live_state(monkeypatch):
    """Random honest scenarios, after every directive and at the horizon."""
    checks = []
    check = sc.check_invariants

    def checked(world):
        _assert_only_live_state(world, (seed, len(checks)))
        checks.append(world.engine.now_ns)
        return check(world)

    monkeypatch.setattr(sc, "check_invariants", checked)
    for seed in range(50):
        scenario = sc.make_random_scenario(seed)
        checks.clear()
        sc.run_scenario(scenario, with_trace=False)
        assert len(checks) == len(scenario.timeline) + 1
