"""Attack catalogue, global invariant checker, and bounded exploration.

Every attack goes through the same public operations an honest actor would
use, plus raw access probes; with all defenses on each one must come back
blocked with zero leaked bytes. Mutation flags disable one defense at a
time so the suite can prove each check actually carries weight.
"""

import gc
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
    TooManySandboxes,
)
from .hw_model import ROS_CTX, small_config
from .monitor import Defenses
from .state import FieldIds, keyed_leaves
from .units import BLOCK_2M, PAGE_4K, merge
from .world import World


class AttackKind(str, Enum):
    MALICIOUS_IMAGE_SWAP = "malicious_image_swap"
    OVERLAPPING_MEMORY_CONFIG = "overlapping_memory_config"
    DOUBLE_CORE_ALLOC = "double_core_alloc"
    IO_EAVESDROP = "io_eavesdrop"
    CACHE_DIRECT_ATTACK = "cache_direct_attack"
    DMA_BYPASS = "dma_bypass"
    STALE_TLB_READ = "stale_tlb_read"


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
        if ctx == ROS_CTX:
            want = channels.values()
        else:
            want = [channels[ctx]] if ctx in channels else []
        if merge(runs) != merge(want):
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
    for cid, ctx in mach.active_ctx.items():
        owner = led.core_owner.get(cid)
        if owner is None:
            found.append(("EXCL-CORE", f"core {cid} has no owner"))
            continue
        if owner == ROS_CTX:
            if ctx != ROS_CTX:
                found.append(("EXCL-CORE", f"core {cid} active ctx {ctx} but ROS owns it"))
        else:
            if ctx != owner:
                found.append(("EXCL-CORE",
                              f"core {cid} tables do not match owner {owner}"))
            if owner not in mon.sandboxes:
                found.append(("EXCL-CORE", f"core {cid} owned by dead ctx {owner}"))
    if led.core_owner.get(0) != ROS_CTX:
        found.append(("EXCL-CORE", "core 0 not owned by ROS"))
    for sb, rt in world.runtimes.items():
        extra = set(rt.cores) - set(led.cores_of(sb))
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
        if merge(nruns) != merge(ivs):
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
                dev = mach.config.device_at(base)
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

    return [ViolationReport(inv, detail) for inv, detail in found]


# ---------------------------------------------------------------------------
# Attack catalogue
# ---------------------------------------------------------------------------

def run_attack(world: World, kind: AttackKind, **params) -> AttackOutcome:
    """Run one catalogue attack on the sandboxes, device or app its params
    name (an attack ignores the ones it does not use, creates the others).
    An attack that finds no room to create a sandbox is blocked at setup."""
    step, mechanism = _ATTACKS[kind]
    try:
        blocked, leaked, detail = step(world, **params)
    except TooManySandboxes as exc:
        blocked, leaked, mechanism = True, 0, "setup"
        detail = f"setup refused: TooManySandboxes ({exc})"
    outcome = AttackOutcome(kind, blocked,
                            mechanism if blocked else "none", leaked, detail)
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
    world.engine.trace("adversary", f"attack_{kind.value}",
                       {"leaked": outcome.leaked_bytes},
                       "blocked" if outcome.blocked else "unblocked",
                       outcome.mechanism)
    return outcome


def _ensure_sandbox(world: World, **kwargs) -> int:
    return world.create_sandbox(next(iter(world.payloads)), **kwargs)


# Adversary steps: each is a scenario directive, and the catalogue runs them.

def create_tampered(world: World, app: str, **kwargs) -> int:
    """Launch app from a tampered copy of its staged image, which stays as
    it was."""
    return world.create_sandbox(app, image=world.ros.tampered_image(app), **kwargs)


def _first_frame(world: World, sb: int) -> Tuple[int, int]:
    start = world.monitor.ledger.sandbox_span(sb)[0]
    return (start, start + BLOCK_2M)


def _next_frame(world: World, sb: int) -> Tuple[int, int]:
    end = world.monitor.ledger.sandbox_span(sb)[1]
    return (end, end + BLOCK_2M)


def overlap_attach(world: World, requester: int, victim: int):
    """Ask the monitor to attach the victim's first frame to requester, then
    read it from requester if approved. Returns (verdict, leaked bytes)."""
    region = _first_frame(world, victim)
    verdict, _ = world.monitor.attach_memory(requester, region)
    leaked = world.probe_read(requester, region[0])[1] if verdict.approved else 0
    return verdict, leaked


def _prime(world: World, frame: Tuple[int, int]) -> bool:
    """ROS touches frame, caching its translation and data, if ROS owns it.
    Returns whether."""
    if not world.monitor.ledger.owns_range(ROS_CTX, frame):
        return False
    world.probe_translate(ROS_CTX, frame[0])
    world.machine.cache_fill(ROS_CTX, frame[0])
    return True


def ros_prime(world: World, sb: int) -> bool:
    """ROS primes the frame past sb's memory, if ROS owns it; sb's next
    attach may take it. Returns whether."""
    return _prime(world, _next_frame(world, sb))


def victim_touch(world: World, sb: int) -> None:
    """sb writes to its highest frame (TLB and cache): bait for a cache attack."""
    top = _probed(world, sb)[1]
    if world.probe_translate(sb, top) is None:
        raise BadState(f"sandbox {sb} has no core")
    world.machine.cache_fill(sb, top)


def _probed(world: World, sb: int) -> Tuple[int, int]:
    base, end = world.monitor.ledger.sandbox_span(sb)
    return base, end - BLOCK_2M


def ros_probe(world: World, sb: int) -> int:
    """ROS reads sb's lowest and highest frame, directly and by cache."""
    return sum(world.probe_read(ROS_CTX, pa)[1] + world.probe_cache(ROS_CTX, pa)[1]
               for pa in _probed(world, sb))


def _dma_target(world: World, sb: int, dev: str) -> Tuple[int, int]:
    if not world.machine.config.peripheral(dev).dma_capable or \
            world.monitor.ledger.dev_owner[dev] != ROS_CTX:
        raise BadState(f"{dev} is not a DMA device under ROS")
    base = world.monitor.ledger.sandbox_span(sb)[0]
    return base, base + PAGE_4K


def ros_dma(world: World, sb: int, dev: str) -> int:
    """ROS programs dev, a DMA-capable device it holds, to read sb's first
    page; returns the bytes leaked."""
    return world.dma_access(dev, ROS_CTX, _dma_target(world, sb, dev))


# Step -> whether it could reach anything, asked of a world it only reads.
# A step that cannot changes nothing, so an explored op asks first.
_REACHES: Dict[Callable, Callable[..., bool]] = {
    ros_probe: lambda w, sb: any(w.probe_reaches(ROS_CTX, pa) for pa in _probed(w, sb)),
    ros_dma: lambda w, sb, dev: w.dma_reaches(dev, ROS_CTX, _dma_target(w, sb, dev)),
}


def steal_core(world: World, victim: int, app: str):
    """ROS launches app on the victim's boot core; (sandbox, boot ns)."""
    return world.ros.launch(app, world.monitor.sandboxes[victim].boot_core,
                            world.ros.layout.sandbox_base_bytes)


def _attack_image_swap(world: World, app=None, **_) -> tuple:
    app = app or next(iter(world.payloads))
    try:
        sb = create_tampered(world, app)
    except IntegrityError:
        return True, 0, "verification rejected swapped image"
    # Tampered code is now running over the protected payload.
    return False, len(world.payloads[app]), f"sandbox {sb} booted a tampered image"


def _attack_overlap(world: World, victim=None, requester=None, **_) -> tuple:
    victim = victim or _ensure_sandbox(world)
    requester = requester or _ensure_sandbox(world)
    verdict, leaked = overlap_attach(world, requester, victim)
    if not verdict.approved:
        return True, 0, f"rejected: {verdict.reason.value}"
    return False, max(leaked, BLOCK_2M), "requester mapped the victim's frames"


def _attack_double_core(world: World, victim=None, **_) -> tuple:
    victim = victim or _ensure_sandbox(world)
    stolen = world.monitor.sandboxes[victim].boot_core
    try:
        sb, _ = steal_core(world, victim, next(iter(world.payloads)))
    except (ResourceBusy, NotOwner):
        return True, 0, "occupied core refused at launch"
    return False, 0, f"sandbox {sb} was handed core {stolen} owned by {victim}"


def _attack_io_eavesdrop(world: World, dev="wifi", holder=None, **_) -> tuple:
    if holder is None:
        holder = _ensure_sandbox(world)
        world.request_peripheral(holder, dev)
    mmio = world.machine.config.peripheral(dev).mmio_range
    reached, leaked = world.probe_read(ROS_CTX, mmio[0])
    if not reached:
        return True, 0, "IO translation faulted for ROS"
    return False, max(leaked, PAGE_4K), "ROS reached a sandbox-owned device"


def _attach_next_granule(world: World, target: Optional[int],
                         ros_primes: bool = False):
    """Pick a target sandbox with room to grow and ask to attach a granule
    where `World.attach_region` offers one (region None if it offers none,
    and the attach is refused). With ros_primes, ROS first primes that
    region's first frame, if ROS owns it. Returns (sandbox, region, attached)."""
    sb = target or _ensure_sandbox(
        world, max_memory=world.ros.layout.sandbox_base_bytes + 16 * BLOCK_2M
    )
    nbytes = world.ros.layout.mem_granule
    region = world.attach_region(sb, nbytes)
    if ros_primes and region is not None:
        _prime(world, (region[0], region[0] + BLOCK_2M))
    return sb, region, world._request_attach(sb, nbytes)


def _attack_cache_direct(world: World, target=None, **_) -> tuple:
    sb, region, attached = _attach_next_granule(world, target, ros_primes=True)
    if not attached:
        return True, 0, "attach of primed region rejected"
    # Victim uses its new memory.
    world.probe_translate(sb, region[0])
    world.machine.cache_fill(sb, region[0])
    reached, leaked = world.probe_cache(ROS_CTX, region[0])
    if leaked:
        return False, leaked, "stale translation exposed the victim's line"
    return True, 0, "sanitization cleared the stale path"


def _attack_dma(world: World, target=None, dev="wifi", **_) -> tuple:
    sb = target or _ensure_sandbox(world)
    try:
        leaked = ros_dma(world, sb, dev)
    except BadState as exc:
        return True, 0, str(exc)
    if leaked:
        return False, leaked, "DMA read crossed into sandbox memory"
    return True, 0, "DMA blocked against the ledger"


def _attack_stale_tlb(world: World, target=None, **_) -> tuple:
    sb, region, attached = _attach_next_granule(world, target)
    if not attached:
        return True, 0, "setup attach rejected"
    # Sandbox touches the granule the detach gives back, caching the
    # translation on its core. That is the granule just attached, unless
    # the attach took the region below the sandbox's memory.
    region = world.detach_region(sb, region[1] - region[0])
    world.probe_translate(sb, region[0])
    if not world._request_detach(sb, region[1] - region[0]):
        return True, 0, "setup detach rejected"
    res = world.probe_translate(sb, region[0])
    if not res.hit:
        return True, 0, "translation faulted after detach"
    return False, PAGE_4K, "stale TLB entry survived the detach"


# Attack kind -> (its catalogue step, which returns (blocked, leaked bytes,
# detail), and the defense that must block it).
_ATTACKS: Dict[AttackKind, Tuple[Callable, str]] = {
    AttackKind.MALICIOUS_IMAGE_SWAP: (_attack_image_swap, "integrity"),
    AttackKind.OVERLAPPING_MEMORY_CONFIG: (_attack_overlap, "legality check"),
    AttackKind.DOUBLE_CORE_ALLOC: (_attack_double_core, "legality check"),
    AttackKind.IO_EAVESDROP: (_attack_io_eavesdrop, "stage-2"),
    AttackKind.CACHE_DIRECT_ATTACK: (_attack_cache_direct, "sanitize"),
    AttackKind.DMA_BYPASS: (_attack_dma, "SMMU"),
    AttackKind.STALE_TLB_READ: (_attack_stale_tlb, "stage-2"),
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
    self_loops: int = 0  # transitions back to their parent's state
    violations: List[ExploreFinding] = field(default_factory=list)


def make_small_world(mutations=()) -> World:
    return World(
        small_config(),
        defenses=Defenses.with_mutations(mutations),
        instant=True,
        apps=[("w", b"tiny-protected-payload")],
        traced=False,  # nothing reads an explored world's trace
    )


@dataclass(slots=True)
class _Node:
    """One explored state: the sandbox ids the ops name, and a world made on
    first access from `peek`: a copy, or `peek` itself if the node may take
    it (`own`). A frontier node's world changes only under its last op."""

    peek: World
    handles: Dict[str, int]
    trace: Tuple[str, ...]
    key: Optional[tuple] = None  # set by the explorer's key function
    own: bool = True
    _world: Optional[World] = None

    @property
    def world(self) -> World:
        if self._world is None:
            self._world = self.peek = self.peek if self.own else self.peek.clone()
        return self._world


# The exploration alphabet: op name -> its directive over the handles a
# and b, on the small machine's app w (base memory 4M, two 2M granules of
# room). A counterexample's ops are these directives, one per line.
ALPHABET: Tuple[Tuple[str, str], ...] = tuple(
    (f"{op}_{h}", line.format(h)) for h in "ab" for op, line in (
        ("create", "create {} app=w cores=2 memory=8M"), ("grow_mem", "attach {} 2M"),
        ("shrink_mem", "detach {} 2M"), ("terminate", "terminate {}"),
        ("dev_request", "request_dev {} wifi"), ("dev_release", "release_dev {} wifi"))
) + (
    ("grow_core_a", "add_core a"), ("shrink_core_a", "release_core a"),
    ("create_a_tampered", "create_tampered a app=w cores=2 memory=8M"),
    ("adv_overlap_attach", "overlap_attach a b"), ("adv_prime_next_frame", "ros_prime a"),
    ("adv_victim_touch", "victim_touch a"), ("adv_probe_a", "ros_probe a"),
    ("adv_dma_a", "ros_dma a wifi"), ("adv_steal_core", "steal_core a app=w"),
)


def _op(kind: str, run: Callable, values: dict,
        handles: Tuple[str, ...]) -> Callable[[_Node], int]:
    """The op for one directive: it resolves its handles, then runs the
    directive on the node's world; returns bytes leaked. A step that could
    reach nothing on `peek` (`_REACHES`) returns 0 and touches no world."""
    new = values.get("new")
    gone = values["sb"] if kind == "terminate" else None  # keys hold live handles
    reaches = _REACHES.get(run)

    def op(node: _Node) -> int:
        args = values.copy()
        for arg in handles:
            sb = args[arg] = node.handles.get(values[arg])
            if sb is None:
                raise BadState(f"{values[arg]} not alive")
        if new in node.handles:
            raise BadState(f"{new} already alive")
        if reaches is not None and not reaches(node.peek, **args):
            return 0
        world = node.world
        out = run(world, **args)
        if out is False:
            raise BadState(f"{kind} refused")
        if new is not None:
            node.handles[new] = out
        node.handles.pop(gone, None)
        return world.metrics.leaked_bytes

    return op


def default_alphabet() -> List[Tuple[str, Callable[[_Node], int]]]:
    from .scenario import read_directive  # scenario imports this module
    return [(name, _op(*read_directive(line))) for name, line in ALPHABET]


def _state_keys(ids: Optional[dict] = None) -> Callable[..., tuple]:
    """Key function for one exploration, by hash-consing (Filliatre & Conchon,
    2006): each key value gets an int id in first-seen order in `ids`, and a
    state's key is the ids of its world's keyed fields (`keyed_leaves`, in
    `World.canonical()` order) and of its sorted handles. Ids compare values
    by ==.

    A child is keyed against its parent node's world and key: a field whose
    raw value == the parent's keeps the parent's id, and only the others are
    keyed. The key is stored on the node."""
    ids = {} if ids is None else ids
    walk: Optional[FieldIds] = None

    def key(node: _Node, parent: Optional[_Node] = None) -> tuple:
        nonlocal walk
        world, handles = node.world, node.handles
        if walk is None:
            walk = FieldIds(keyed_leaves(world), ids)
        if parent is None or parent.key is None:
            fields, handles_id = walk.fresh(world), None
        else:
            fields = walk.against(world, parent.world, parent.key)
            handles_id = parent.key[-1] if handles == parent.handles else None
        if handles_id is None:
            items = tuple(sorted(handles.items()))
            handles_id = ids.setdefault(items, len(ids))
        node.key = (*fields, handles_id)
        return node.key

    return key


def explore(world_factory: Callable[[], World] = make_small_world,
            op_alphabet: Optional[List[Tuple[str, Callable]]] = None,
            depth: int = 12,
            state_budget: int = 500_000,
            stop_at_first: bool = False) -> ExploreResult:
    """Breadth-first enumeration over the op alphabet with state dedup by
    canonical key; ops that raise are disabled edges."""
    # Explored worlds hold no cycle: reference counting frees them, and the
    # cyclic collector, off until the call ends, would only walk the frontier.
    enabled = gc.isenabled()
    gc.disable()
    try:
        ops = default_alphabet() if op_alphabet is None else op_alphabet
        key = _state_keys()
        root = _Node(world_factory(), {}, ())
        result = ExploreResult(states_visited=1, transitions=0, max_depth=0)
        # `seen` holds only states that passed check_invariants, so a
        # transition into a seen state needs no check. This relies on
        # check_invariants reading nothing that World.canonical() leaves out.
        # The root's own violations are not reported, but a state that fails
        # never enters `seen`, so every transition into it is reported.
        seen = set()
        if not check_invariants(root.world):
            seen.add(key(root))
        # The frontier holds only nodes above the depth bound.
        frontier = deque([(root, 0)] if depth > 0 else ())
        del root  # the frontier holds it alone: its world dies once expanded
        while frontier:
            node, d = frontier.popleft()
            # A refused op leaves its world as it found it, a copy of the
            # parent's, so the next op on the same parent runs on that world.
            # The last op runs on the parent's own, which nothing reads after.
            world, spare, last = node.world, None, len(ops) - 1
            for i, (op_name, op_fn) in enumerate(ops):
                child = _Node(world if spare is None else spare,
                              dict(node.handles), node.trace,
                              own=spare is not None or i == last)
                try:
                    leaked = op_fn(child)
                except SimError:
                    if child._world is not None:
                        spare = child._world
                    continue
                result.transitions += 1
                if not leaked and child._world is None and \
                        child.handles == node.handles and node.key in seen:
                    result.self_loops += 1  # changed nothing: no copy, no key
                    continue
                spare = None  # the child takes it, if it was the spare
                child.trace = node.trace + (op_name,)
                if not leaked:
                    state = key(child, None if child.world is world else node)
                    if state in seen:
                        result.self_loops += state == node.key
                        continue
                violations = check_invariants(child.world)
                if leaked:
                    result.violations.append(
                        ExploreFinding("attack",
                                       f"{op_name} leaked {leaked} bytes",
                                       child.trace))
                for v in violations:
                    result.violations.append(
                        ExploreFinding(v.invariant_id, v.detail, child.trace))
                if stop_at_first and result.violations:
                    result.max_depth = max(result.max_depth, d + 1)
                    return result
                if violations or leaked:
                    continue  # record once, do not expand corrupted states
                seen.add(state)
                result.states_visited += 1
                result.max_depth = max(result.max_depth, d + 1)
                if result.states_visited > state_budget:
                    raise BudgetExceeded(
                        f"state budget {state_budget} exceeded", partial=result
                    )
                if d + 1 < depth:
                    frontier.append((child, d + 1))
        return result
    finally:
        if enabled:
            gc.enable()
