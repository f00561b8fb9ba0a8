"""Attack catalogue, global invariant checker, and bounded exploration.

Every attack goes through the same public operations an honest actor would
use, plus raw access probes; with all defenses on each one must come back
blocked with zero leaked bytes. Mutation flags disable one defense at a
time so the suite can prove each check actually carries weight.
"""

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from . import stage2
from .errors import (
    BadState,
    BudgetExceeded,
    IntegrityError,
    NotOwner,
    ResourceBusy,
    SimError,
)
from .hw_model import ROS_CTX, small_config
from .monitor import Defenses
from .units import BLOCK_2M, PAGE_4K
from .world import World, WorldOptions, build_world, digest


class AttackKind(str, Enum):
    MALICIOUS_IMAGE_SWAP = "malicious_image_swap"
    OVERLAPPING_MEMORY_CONFIG = "overlapping_memory_config"
    DOUBLE_CORE_ALLOC = "double_core_alloc"
    IO_EAVESDROP = "io_eavesdrop"
    CACHE_DIRECT_ATTACK = "cache_direct_attack"
    DMA_BYPASS = "dma_bypass"
    STALE_TLB_READ = "stale_tlb_read"


@dataclass(frozen=True)
class AttackScenario:
    kind: AttackKind
    params: Tuple[Tuple[str, object], ...] = ()

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass
class AttackOutcome:
    kind: AttackKind
    blocked: bool
    mechanism: str
    leaked_bytes: int
    detail: str = ""


@dataclass(frozen=True)
class ViolationReport:
    invariant_id: str
    detail: str
    state_digest: str
    trigger: str


# ---------------------------------------------------------------------------
# Invariant checker
# ---------------------------------------------------------------------------

def check_invariants(world: World) -> List[ViolationReport]:
    found: List[Tuple[str, str]] = []
    mach = world.machine
    led = world.monitor.ledger
    mon = world.monitor
    ram_limit = mach.config.ram_bytes

    # EXCL-MEM: normal-attr blocks pairwise disjoint across contexts;
    # shared-attr blocks appear in exactly ROS and the owning sandbox.
    normal = []
    shared: Dict[int, List[Tuple[int, int]]] = {}
    for ctx, ts in mach.table_sets.items():
        for s, e, attr in ts.runs():
            if attr is stage2.Attr.NORMAL:
                normal.append((s, e, ctx))
            elif attr is stage2.Attr.SHARED:
                shared.setdefault(ctx, []).append((s, e))
    normal.sort()
    for (s1, e1, c1), (s2, e2, c2) in zip(normal, normal[1:]):
        if s2 < e1:
            found.append(("EXCL-MEM",
                          f"ctx {c1} and ctx {c2} both map [{s2:#x}, {min(e1, e2):#x})"))
    channels = dict(led.shared_channels)
    for ctx, runs in shared.items():
        covered = sorted(runs)
        if ctx == ROS_CTX:
            want = sorted(channels.values())
        else:
            want = [channels[ctx]] if ctx in channels else []
        if _merge(covered) != _merge(want):
            found.append(("EXCL-MEM",
                          f"ctx {ctx} shared mappings do not match ledger channels"))

    # EXCL-DEV: only the ledger owner's set may cover a peripheral's MMIO.
    for p in mach.config.peripherals:
        owner = led.dev_owner[p.dev_id]
        for ctx, ts in mach.table_sets.items():
            if ts.overlaps(p.mmio_range) and ctx != owner:
                found.append(("EXCL-DEV",
                              f"{p.dev_id} owned by ctx {owner} but mapped in ctx {ctx}"))

    # EXCL-CORE
    for cid, core in mach.cores.items():
        owner = led.core_owner.get(cid)
        if owner is None:
            found.append(("EXCL-CORE", f"core {cid} has no owner"))
            continue
        if owner == ROS_CTX:
            if core.active_ctx != ROS_CTX:
                found.append(("EXCL-CORE", f"core {cid} active ctx {core.active_ctx}"
                              " but ROS owns it"))
        else:
            if core.active_ctx != owner:
                found.append(("EXCL-CORE",
                              f"core {cid} tables do not match owner {owner}"))
            if owner not in mon.sandboxes:
                found.append(("EXCL-CORE", f"core {cid} owned by dead ctx {owner}"))
    if led.core_owner.get(0) != ROS_CTX:
        found.append(("EXCL-CORE", "core 0 not owned by ROS"))
    for sb, rt in world.runtimes.items():
        if rt.state in ("booting", "running", "terminating"):
            owned = set(led.cores_of(sb))
            extra = set(rt.cores) - owned
            if extra:
                found.append(("EXCL-CORE",
                              f"sandbox {sb} believes it holds cores {sorted(extra)}"))

    # CONTIG: one interval per sandbox, tables agreeing with the ledger.
    for sb in mon.sandboxes:
        ivs = led.sandbox_intervals(sb)
        if len(ivs) != 1:
            found.append(("CONTIG", f"sandbox {sb} ledger intervals {ivs}"))
        ts = mach.table_sets.get(sb)
        if ts is None:
            found.append(("CONTIG", f"sandbox {sb} has no table set"))
            continue
        nruns = [(s, e) for s, e, a in ts.runs() if a is stage2.Attr.NORMAL]
        if _merge(nruns) != _merge(ivs):
            found.append(("CONTIG",
                          f"sandbox {sb} normal mappings {nruns} != ledger {ivs}"))

    # BOOT-GATE
    for sb, meta in mon.sandboxes.items():
        if not meta.attested:
            found.append(("BOOT-GATE", f"sandbox {sb} booted unverified"))
        elif not world.store.known(meta.app_id) or \
                meta.booted_digest != world.store.digest_of(meta.app_id):
            found.append(("BOOT-GATE",
                          f"sandbox {sb} booted digest differs from registration"))

    # SANITY: no stale TLB entries or foreign cache lines anywhere.
    for cid, tlb in mach.tlbs.items():
        for (ctx, base, gran) in tlb:
            rng = (base, base + gran)
            if base < ram_limit:
                if not led.owns_range(ctx, rng):
                    found.append(("SANITY",
                                  f"core {cid} holds stale TLB entry ctx {ctx} "
                                  f"[{base:#x}, {base + gran:#x})"))
            else:
                dev = _dev_at(mach.config, base)
                if dev is not None and led.dev_owner[dev] != ctx:
                    found.append(("SANITY",
                                  f"core {cid} stale device TLB entry ctx {ctx} {dev}"))
    for line, owner in mach.cache.items():
        if line < ram_limit:
            if not led.owns_range(owner, (line, line + 1)):
                found.append(("SANITY",
                              f"cache line {line:#x} owned by ctx {owner} "
                              "references foreign memory"))

    # CAP
    if len(mon.sandboxes) > len(mach.cores) - 1:
        found.append(("CAP", f"{len(mon.sandboxes)} sandboxes on "
                      f"{len(mach.cores)} cores"))

    if not found:
        return []
    digest = world.state_digest()
    trigger = world.engine.records[-1]["op"] if world.engine.records else "init"
    return [ViolationReport(inv, detail, digest, trigger) for inv, detail in found]


def _merge(intervals):
    out = []
    for s, e in sorted(intervals):
        if out and out[-1][1] >= s:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _dev_at(config, pa):
    for p in config.peripherals:
        if p.mmio_range[0] <= pa < p.mmio_range[1]:
            return p.dev_id
    return None


# ---------------------------------------------------------------------------
# Attack catalogue
# ---------------------------------------------------------------------------

MECHANISM = {
    AttackKind.MALICIOUS_IMAGE_SWAP: "integrity",
    AttackKind.OVERLAPPING_MEMORY_CONFIG: "legality check",
    AttackKind.DOUBLE_CORE_ALLOC: "legality check",
    AttackKind.IO_EAVESDROP: "stage-2",
    AttackKind.CACHE_DIRECT_ATTACK: "sanitize",
    AttackKind.DMA_BYPASS: "SMMU",
    AttackKind.STALE_TLB_READ: "stage-2",
}


def run_attack(world: World, scenario: AttackScenario) -> AttackOutcome:
    fn = _ATTACKS[scenario.kind]
    outcome = fn(world, scenario)
    viol = check_invariants(world)
    if viol:
        outcome.blocked = False
        if not outcome.detail:
            outcome.detail = viol[0].invariant_id
    if outcome.blocked:
        world.metrics.attacks_blocked += 1
    else:
        world.metrics.attacks_unblocked += 1
    world.attack_outcomes.append(outcome)
    world.engine.trace("adversary", f"attack_{scenario.kind.value}",
                       {"leaked": outcome.leaked_bytes},
                       "blocked" if outcome.blocked else "unblocked",
                       outcome.mechanism)
    return outcome


def _ensure_sandbox(world: World, app_id: str = None, **kwargs) -> int:
    app = app_id or next(iter(world.payloads))
    return world.create_sandbox(app, **kwargs)


def _blocked(kind: AttackKind, detail: str) -> AttackOutcome:
    return AttackOutcome(kind, True, MECHANISM[kind], 0, detail)


# Attack steps shared by the catalogue and the exploration alphabet.

def _create_tampered(world: World, app: str, **kwargs) -> int:
    """Launch app from a tampered staged image; the image is restored
    whether or not the launch goes through."""
    world.ros.tamper_image(app)
    try:
        return world.create_sandbox(app, **kwargs)
    finally:
        world.ros.stage_image(app, world.payloads[app])


def _overlap_attach(world: World, requester: int, victim: int):
    """Ask the monitor to attach the victim's first frame to requester, then
    read it from requester. Returns (verdict, leaked bytes)."""
    target = world.monitor.ledger.sandbox_intervals(victim)[0]
    region = (target[0], target[0] + BLOCK_2M)
    verdict = world.monitor.verify_region_legality(requester, region, "attach")
    if not verdict.approved:
        return verdict, 0
    world.monitor.attach_memory(requester, region)
    return verdict, world.probe_read(requester, region[0])[1]


def _ros_dma(world: World, dev: str, sb: int) -> int:
    """ROS programs dev to read sb's first page; returns the bytes leaked."""
    base = world.monitor.ledger.sandbox_span(sb)[0]
    return world.dma_access(dev, ROS_CTX, (base, base + PAGE_4K))


def _attack_image_swap(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.MALICIOUS_IMAGE_SWAP
    app = scenario.param("app") or next(iter(world.payloads))
    try:
        sb = _create_tampered(world, app)
    except IntegrityError:
        return _blocked(kind, "verification rejected swapped image")
    # Tampered code is now running over the protected payload.
    leaked = len(world.payloads[app])
    return AttackOutcome(kind, False, "none", leaked,
                         f"sandbox {sb} booted a tampered image")


def _attack_overlap(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.OVERLAPPING_MEMORY_CONFIG
    victim = scenario.param("victim") or _ensure_sandbox(world)
    requester = scenario.param("requester") or _ensure_sandbox(world)
    verdict, leaked = _overlap_attach(world, requester, victim)
    if not verdict.approved:
        return _blocked(kind, f"rejected: {verdict.reason.value}")
    return AttackOutcome(kind, False, "none", max(leaked, BLOCK_2M),
                         "requester mapped the victim's frames")


def _attack_double_core(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.DOUBLE_CORE_ALLOC
    victim = scenario.param("victim") or _ensure_sandbox(world)
    stolen = world.monitor.sandboxes[victim].boot_core
    try:
        sb, _ = world.ros.launch(next(iter(world.payloads)), stolen,
                                 world.ros.layout.sandbox_base_bytes)
    except (ResourceBusy, NotOwner):
        return _blocked(kind, "occupied core refused at launch")
    return AttackOutcome(kind, False, "none", 0,
                         f"sandbox {sb} was handed core {stolen} owned by {victim}")


def _attack_io_eavesdrop(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.IO_EAVESDROP
    dev = scenario.param("dev", "wifi")
    holder = scenario.param("holder")
    if holder is None:
        holder = _ensure_sandbox(world)
        world.request_peripheral(holder, dev)
    mmio = world.machine.config.peripheral(dev).mmio_range
    reached, leaked = world.probe_read(ROS_CTX, mmio[0])
    if not reached:
        return _blocked(kind, "IO translation faulted for ROS")
    return AttackOutcome(kind, False, "none", max(leaked, PAGE_4K),
                         "ROS reached a sandbox-owned device")


def _attach_next_granule(world: World, scenario: AttackScenario,
                         ros_primes: bool = False):
    """Pick a target sandbox with room to grow and ask to attach the granule
    just past its span. With ros_primes, ROS first touches the granule it is
    about to hand over, caching both the translation and the data. Returns
    (sandbox, region, attached)."""
    sb = scenario.param("target") or _ensure_sandbox(
        world, max_memory=world.ros.layout.sandbox_base_bytes + 16 * BLOCK_2M
    )
    span = world.monitor.ledger.sandbox_span(sb)
    region = (span[1], span[1] + world.options.mem_granule)
    if ros_primes:
        world.probe_translate(ROS_CTX, region[0])
        world.machine.cache_fill(ROS_CTX, region[0])
    return sb, region, world._request_attach(sb, region[1] - region[0])


def _attack_cache_direct(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.CACHE_DIRECT_ATTACK
    sb, region, attached = _attach_next_granule(world, scenario, ros_primes=True)
    if not attached:
        return _blocked(kind, "attach of primed region rejected")
    # Victim uses its new memory.
    victim_core = world.monitor.ledger.cores_of(sb)[0]
    world.machine.translate(victim_core, region[0])
    world.machine.cache_fill(sb, region[0])
    reached, leaked = world.probe_cache(ROS_CTX, region[0])
    if leaked:
        return AttackOutcome(kind, False, "none", leaked,
                             "stale translation exposed the victim's line")
    return _blocked(kind, "sanitization cleared the stale path")


def _attack_dma(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.DMA_BYPASS
    sb = scenario.param("target") or _ensure_sandbox(world)
    dev = scenario.param("dev", "wifi")
    if world.monitor.ledger.dev_owner[dev] != ROS_CTX:
        return _blocked(kind, "device not programmable by ROS")
    leaked = _ros_dma(world, dev, sb)
    if leaked:
        return AttackOutcome(kind, False, "none", leaked,
                             "DMA read crossed into sandbox memory")
    return _blocked(kind, "DMA blocked against the ledger")


def _attack_stale_tlb(world: World, scenario: AttackScenario) -> AttackOutcome:
    kind = AttackKind.STALE_TLB_READ
    sb, region, attached = _attach_next_granule(world, scenario)
    if not attached:
        return _blocked(kind, "setup attach rejected")
    # Sandbox touches the region, caching the translation on its core.
    core = world.monitor.ledger.cores_of(sb)[0]
    world.machine.translate(core, region[0])
    world._request_detach(sb, region[1] - region[0])
    res = world.machine.translate(core, region[0])
    if not res.hit:
        return _blocked(kind, "translation faulted after detach")
    return AttackOutcome(kind, False, "none", PAGE_4K,
                         "stale TLB entry survived the detach")


_ATTACKS: Dict[AttackKind, Callable] = {
    AttackKind.MALICIOUS_IMAGE_SWAP: _attack_image_swap,
    AttackKind.OVERLAPPING_MEMORY_CONFIG: _attack_overlap,
    AttackKind.DOUBLE_CORE_ALLOC: _attack_double_core,
    AttackKind.IO_EAVESDROP: _attack_io_eavesdrop,
    AttackKind.CACHE_DIRECT_ATTACK: _attack_cache_direct,
    AttackKind.DMA_BYPASS: _attack_dma,
    AttackKind.STALE_TLB_READ: _attack_stale_tlb,
}


# ---------------------------------------------------------------------------
# Bounded exploration
# ---------------------------------------------------------------------------

@dataclass
class ExploreFinding:
    kind: str          # invariant id or "attack"
    detail: str
    trace: Tuple[str, ...]


@dataclass
class ExploreResult:
    states_visited: int
    transitions: int
    max_depth: int
    violations: List[ExploreFinding] = field(default_factory=list)
    budget_exceeded: bool = False

    def ok(self) -> bool:
        return not self.violations and not self.budget_exceeded


def make_small_world(mutations=()) -> World:
    world = build_world(
        small_config(),
        defenses=Defenses.with_mutations(mutations),
        options=WorldOptions(instant=True, mem_granule=BLOCK_2M),
        apps=[("w", b"tiny-protected-payload")],
    )
    return world


class _Node:
    """One explored state: a world plus the sandbox ids the ops name.

    A child made by `child()` shares its parent's world and clones it the
    first time an op reads `world`, so an op that fails on `handles` alone
    costs no clone. An op may test a precondition on `peek()` first, which
    reads the shared world without cloning it; it must not change anything
    it reaches that way. The parent's world is never changed after its node
    enters the frontier, so the deferred clone sees the parent's state.
    """

    __slots__ = ("_world", "_parent_world", "handles", "trace")

    def __init__(self, world: Optional[World], handles: Dict[str, int],
                 trace: Tuple[str, ...]):
        self._world = world
        self._parent_world = None
        self.handles = handles
        self.trace = trace

    @property
    def world(self) -> World:
        if self._world is None:
            self._world = self._parent_world.clone()
            self._parent_world = None
        return self._world

    def peek(self) -> World:
        return self._parent_world if self._world is None else self._world

    def digest(self) -> str:
        return digest((self.world.canonical(), tuple(sorted(self.handles.items()))))

    def child(self) -> "_Node":
        node = _Node(None, dict(self.handles), self.trace)
        node._parent_world = self.world
        return node


def _alive(node: _Node, name: str) -> int:
    sb = node.handles.get(name)
    if sb is None:
        raise BadState(f"{name} not alive")
    return sb


def _op_create(name, tampered=False):
    def op(node: _Node) -> int:
        if name in node.handles:
            raise BadState("already alive")
        w = node.world
        create = _create_tampered if tampered else World.create_sandbox
        node.handles[name] = create(w, "w", max_cores=2,
                                    max_memory=w.ros.layout.sandbox_base_bytes
                                    + 2 * BLOCK_2M)
        return 0

    return op


def _op_terminate(name):
    def op(node: _Node) -> int:
        sb = _alive(node, name)
        node.world.terminate(sb)
        del node.handles[name]
        return 0

    return op


def _op_world(name, method, *args):
    """Op applying World.<method>(sandbox, *args) to the live sandbox name;
    a False result is a disabled edge. The method is looked up when the op
    runs, so a tracer that wraps World methods later still sees the call."""
    def op(node: _Node) -> int:
        sb = _alive(node, name)
        if getattr(node.world, method)(sb, *args) is False:
            raise BadState(f"{method} refused")
        return 0

    return op


def _op_shrink_core(name):
    def op(node: _Node) -> int:
        sb = _alive(node, name)
        rt = node.peek().runtimes[sb]
        surplus = sorted(c for c in rt.cores if c != rt.boot_core)
        if not surplus:
            raise BadState("no surplus core")
        node.world._request_core_release(sb, surplus[0])
        return 0

    return op


def _op_adv_overlap(node: _Node) -> int:
    a = _alive(node, "a")
    w = node.world
    verdict, leaked = _overlap_attach(w, a, _alive(node, "b"))
    if not verdict.approved:
        raise BadState("legality check held")
    return leaked


def _op_adv_prime(node: _Node) -> int:
    a = _alive(node, "a")
    ledger = node.peek().monitor.ledger
    target = ledger.sandbox_span(a)[1]
    if not ledger.owns_range(ROS_CTX, (target, target + BLOCK_2M)):
        raise BadState("frame not ROS-owned")
    w = node.world
    w.probe_translate(ROS_CTX, target)
    w.machine.cache_fill(ROS_CTX, target)
    return 0


def _op_adv_probe(node: _Node) -> int:
    a = _alive(node, "a")
    w = node.world
    base = w.monitor.ledger.sandbox_span(a)[0]
    span_end = w.monitor.ledger.sandbox_span(a)[1]
    leaked = 0
    for pa in (base, span_end - BLOCK_2M):
        _, l1 = w.probe_read(ROS_CTX, pa)
        _, l2 = w.probe_cache(ROS_CTX, pa)
        leaked += l1 + l2
    return leaked


def _op_adv_victim_touch(node: _Node) -> int:
    """Victim writes into its highest frame (cache + TLB), giving the cache
    attack something to steal."""
    a = _alive(node, "a")
    w = node.world
    span = w.monitor.ledger.sandbox_span(a)
    core = w.monitor.ledger.cores_of(a)
    if not core:
        raise BadState("victim has no core")
    w.machine.translate(core[0], span[1] - BLOCK_2M)
    w.machine.cache_fill(a, span[1] - BLOCK_2M)
    return 0


def _op_adv_dma(node: _Node) -> int:
    a = _alive(node, "a")
    w = node.peek()
    dev = w.machine.config.peripherals[0].dev_id
    if w.monitor.ledger.dev_owner[dev] != ROS_CTX:
        raise BadState("device not under ROS")
    return _ros_dma(node.world, dev, a)


def _op_adv_steal_core(node: _Node) -> int:
    a = _alive(node, "a")
    w = node.world
    w.ros.launch("w", w.monitor.sandboxes[a].boot_core,
                 w.ros.layout.sandbox_base_bytes)
    return 0


def default_alphabet(dev: str = "wifi") -> List[Tuple[str, Callable]]:
    ops: List[Tuple[str, Callable]] = []
    for name in ("a", "b"):
        ops.append((f"create_{name}", _op_create(name)))
        ops.append((f"grow_mem_{name}",
                    _op_world(name, "_request_attach", BLOCK_2M)))
        ops.append((f"shrink_mem_{name}",
                    _op_world(name, "_request_detach", BLOCK_2M)))
        ops.append((f"terminate_{name}", _op_terminate(name)))
        ops.append((f"dev_request_{name}",
                    _op_world(name, "request_peripheral", dev)))
        ops.append((f"dev_release_{name}",
                    _op_world(name, "release_peripheral", dev)))
    ops.append(("grow_core_a", _op_world("a", "_request_core_increase", None)))
    ops.append(("shrink_core_a", _op_shrink_core("a")))
    ops.append(("create_a_tampered", _op_create("a", tampered=True)))
    ops.append(("adv_overlap_attach", _op_adv_overlap))
    ops.append(("adv_prime_next_frame", _op_adv_prime))
    ops.append(("adv_victim_touch", _op_adv_victim_touch))
    ops.append(("adv_probe_a", _op_adv_probe))
    ops.append(("adv_dma_a", _op_adv_dma))
    ops.append(("adv_steal_core", _op_adv_steal_core))
    return ops


def explore(world_factory: Callable[[], World] = make_small_world,
            op_alphabet: Optional[List[Tuple[str, Callable]]] = None,
            depth: int = 12,
            state_budget: int = 500_000,
            stop_at_first: bool = False) -> ExploreResult:
    """Breadth-first enumeration over the op alphabet with state dedup by
    canonical digest; ops that raise are disabled edges."""
    ops = default_alphabet() if op_alphabet is None else op_alphabet
    root = _Node(world_factory(), {}, ())
    result = ExploreResult(states_visited=1, transitions=0, max_depth=0)
    # `seen` holds only states that passed check_invariants, so a transition
    # into a seen state needs no check. This relies on check_invariants
    # reading nothing that World.canonical() leaves out. The root's own
    # violations are not reported, but a state that fails never enters
    # `seen`, so every transition into it is reported.
    seen = set()
    if not check_invariants(root.world):
        seen.add(root.digest())
    frontier = deque([(root, 0)])
    while frontier:
        node, d = frontier.popleft()
        if d >= depth:
            continue
        for op_name, op_fn in ops:
            child = node.child()
            try:
                leaked = op_fn(child)
            except SimError:
                continue
            result.transitions += 1
            child.trace = node.trace + (op_name,)
            if not leaked:
                digest = child.digest()
                if digest in seen:
                    continue
            violations = check_invariants(child.world)
            if leaked:
                result.violations.append(
                    ExploreFinding("attack", f"{op_name} leaked {leaked} bytes",
                                   child.trace))
            for v in violations:
                result.violations.append(
                    ExploreFinding(v.invariant_id, v.detail, child.trace))
            if stop_at_first and result.violations:
                result.max_depth = max(result.max_depth, d + 1)
                return result
            if violations or leaked:
                continue  # record once, do not expand corrupted states
            seen.add(digest)
            result.states_visited += 1
            result.max_depth = max(result.max_depth, d + 1)
            if result.states_visited > state_budget:
                result.budget_exceeded = True
                raise BudgetExceeded(
                    f"state budget {state_budget} exceeded", partial=result
                )
            frontier.append((child, d + 1))
    return result


def replay_trace(ops_trace: Tuple[str, ...], mutations=(),
                 world_factory: Optional[Callable[[], World]] = None,
                 op_alphabet: Optional[List[Tuple[str, Callable]]] = None):
    """Re-run a counterexample op sequence; returns (violations, leaked)."""
    factory = world_factory or (lambda: make_small_world(mutations))
    ops = dict(default_alphabet() if op_alphabet is None else op_alphabet)
    node = _Node(factory(), {}, ())
    leaked_total = 0
    for op_name in ops_trace:
        leaked_total += ops[op_name](node) or 0
    return check_invariants(node.world), leaked_total
