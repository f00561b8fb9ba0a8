"""Trusted enforcement actor (the firmware-monitor analogue).

Owns the resource ledger and is the only component allowed to edit stage-2
table sets: it verifies resource legality, boots and tears down sandboxes,
transfers cores, switches peripherals, and sanitizes TLB/cache state on
every ownership change. Defense mutation flags exist solely so tests can
prove each check is load-bearing.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from . import stage2
from .errors import (
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
from .hw_model import ROS_CTX, Machine
from .secure_world import EncryptedImage, KeyStore, digest64
from .state import DICT, NESTED, REWIRED, SHARED, Schema, copied, keyed
from .units import BLOCK_2M, MB, covers, is_aligned, merge, overlaps, subtract

# A driver's state in a context, by (ctx, dev) in `RosActor.driver_states`.
DRIVER_LOADED = "loaded"
DRIVER_UNLOADED = "unloaded"
DRIVER_SUSPENDED_GPU = "suspended_gpu"

TZASC_REGIONS = 8
TZASC_REGIONS_PER_SANDBOX = 2
TZASC_REGIONS_SECURE_WORLD = 1


class Reason(str, Enum):
    OVERLAP = "Overlap"
    NOT_CONTIGUOUS = "NotContiguous"
    QUOTA_EXCEEDED = "QuotaExceeded"
    NOT_FREE = "NotFree"
    BAD_ALIGNMENT = "BadAlignment"


@dataclass(frozen=True)
class AdjustVerdict:
    approved: bool
    reason: Optional[Reason] = None


# Each mutation flag and the defense it turns off.
MUTATION_FLAGS = {"no_verify": "verify", "no_sanitize": "sanitize",
                  "no_legality_check": "legality_check", "no_smmu": "smmu"}


@dataclass
class Defenses:
    verify: bool = True
    sanitize: bool = True
    legality_check: bool = True
    smmu: bool = True

    @staticmethod
    def with_mutations(flags) -> "Defenses":
        d = Defenses()
        for flag in flags:
            if flag not in MUTATION_FLAGS:
                raise ValueError(f"unknown mutation flag {flag!r}")
            setattr(d, MUTATION_FLAGS[flag], False)
        return d


@dataclass(frozen=True)
class LaunchSpec:
    app_id: str
    image: EncryptedImage
    core_id: int
    region: Tuple[int, int]
    channel: Tuple[int, int]
    max_cores: int = 1
    max_memory: int = 512 * MB


@dataclass(frozen=True)
class SandboxMeta:
    app_id: str
    base_bytes: int
    boot_core: int
    max_cores: int
    max_memory: int
    booted_digest: int
    attested: bool


class ResourceLedger:
    """Who owns what: cores, RAM intervals, devices, shared channels."""

    def __init__(self, machine: Machine):
        self.core_owner: Dict[int, int] = {cid: ROS_CTX for cid in machine.cores}
        # ctx -> sorted interval list; ROS owns everything not listed.
        self.ram: Dict[int, List[Tuple[int, int]]] = {}
        self.dev_owner: Dict[str, int] = {
            p.dev_id: ROS_CTX for p in machine.config.peripherals
        }
        self.shared_channels: Dict[int, Tuple[int, int]] = {}

    def cores_of(self, ctx: int) -> List[int]:
        return sorted(c for c, o in self.core_owner.items() if o == ctx)

    def sandbox_intervals(self, sb: int) -> List[Tuple[int, int]]:
        return list(self.ram.get(sb, []))

    def sandbox_span(self, sb: int) -> Tuple[int, int]:
        ivs = self.ram.get(sb)
        if not ivs:  # a terminating sandbox has none left
            raise BadState(f"sandbox {sb} holds no memory")
        return (ivs[0][0], ivs[-1][1])

    def sandbox_size(self, sb: int) -> int:
        return sum(e - s for s, e in self.ram.get(sb, []))

    def add_ram(self, sb: int, region: Tuple[int, int]) -> None:
        self.ram[sb] = merge(self.ram.get(sb, []) + [region])

    def remove_ram(self, sb: int, region: Tuple[int, int]) -> None:
        out = subtract(self.ram[sb], region)
        if out:
            self.ram[sb] = out
        else:
            self.ram.pop(sb, None)

    def ram_overlap_owner(self, region: Tuple[int, int]):
        for sb, ivs in self.ram.items():
            for iv in ivs:
                if overlaps(iv, region):
                    return sb
        for sb, ch in self.shared_channels.items():
            if overlaps(ch, region):
                return sb
        return None

    def owns_range(self, ctx: int, region: Tuple[int, int]) -> bool:
        """True iff ctx may touch every byte of region under the ledger
        (its own intervals and its shared channel; for ROS, anything not
        owned by a sandbox)."""
        if ctx == ROS_CTX:
            return self.ram_overlap_owner(region) is None
        allowed = self.ram.get(ctx, [])
        if ctx in self.shared_channels:
            allowed = allowed + [self.shared_channels[ctx]]
        return covers(allowed, region)

    STATE = Schema(
        core_owner=DICT, dev_owner=DICT, shared_channels=DICT,
        ram=keyed(
            lambda ram: tuple((sb, tuple(ivs)) for sb, ivs in sorted(ram.items())),
            copy=lambda ram: {sb: list(ivs) for sb, ivs in ram.items()},
        ),
    )
    clone = STATE.clone
    canonical = STATE.canonical


class Monitor:
    def __init__(self, machine: Machine, store: KeyStore, eng,
                 defenses: Optional[Defenses] = None, mode: str = "leap"):
        self.machine = machine
        self.store = store
        self.engine = eng
        self.defenses = defenses or Defenses()
        self.mode = mode
        self.shared_pool_range = None  # set by the ROS actor
        self.ledger = ResourceLedger(machine)
        self.sandboxes: Dict[int, SandboxMeta] = {}
        self.driver_states = None  # wired by the world; (ctx, dev) -> state
        self._next_sandbox = 1

    # -- helpers ----------------------------------------------------------

    def _trace(self, op: str, args=None, verdict="ok", reason=None):
        self.engine.trace("monitor", op, args, verdict, reason)

    def _require_sandbox(self, sb: int) -> SandboxMeta:
        try:
            return self.sandboxes[sb]
        except KeyError:
            raise BadState(f"no sandbox {sb}") from None

    # -- launch -----------------------------------------------------------

    def lock_and_launch(self, spec: LaunchSpec) -> Tuple[int, int]:
        """Check the request, then lock resources, build tables and boot.

        Returns (sandbox_id, boot_cost_ns); a refused request changes
        nothing but the trace.
        """
        machine, region = self.machine, spec.region
        if len(self.sandboxes) >= len(machine.cores) - 1:
            self._trace("lock_and_launch", {"app": spec.app_id}, "rejected",
                        "TooManySandboxes")
            raise TooManySandboxes("core budget exhausted")
        if self.mode == "tzasc":
            need = TZASC_REGIONS_PER_SANDBOX * (len(self.sandboxes) + 1) \
                + TZASC_REGIONS_SECURE_WORLD
            if need > TZASC_REGIONS:
                self._trace("lock_and_launch", {"app": spec.app_id}, "rejected",
                            "TzascRegions")
                raise TooManySandboxes("protected-region budget exhausted")
        if spec.core_id not in machine.cores or spec.core_id == 0:
            raise ResourceBusy(f"core {spec.core_id} not assignable")
        if self.defenses.legality_check:
            if self.ledger.core_owner[spec.core_id] != ROS_CTX:
                self._trace("lock_and_launch", {"core": spec.core_id}, "rejected",
                            "CoreOccupied")
                raise ResourceBusy(f"core {spec.core_id} occupied")
            if self.ledger.ram_overlap_owner(region) is not None:
                self._trace("lock_and_launch", {"region": list(region)},
                            "rejected", "RegionOccupied")
                raise ResourceBusy("region overlaps a live sandbox")
        if not (is_aligned(region[0], BLOCK_2M) and is_aligned(region[1], BLOCK_2M)):
            raise AlignmentError("sandbox region must be 2MB-aligned")
        if region[1] - region[0] > spec.max_memory:
            raise QuotaExceeded("base region exceeds memory limit")
        attested = self.defenses.verify
        try:
            plaintext = (self.store.verify_and_decrypt if attested
                         else self.store.decrypt_unchecked)(spec.image)
        except IntegrityError:
            self._trace("verify_image", {"app": spec.app_id}, "rejected",
                        "IntegrityError")
            raise
        ros_set = machine.table_sets[ROS_CTX]
        ros_set.unmap_range(region)
        self._trace("verify_image", {"app": spec.app_id},
                    "ok" if attested else "skipped")

        sb = self._next_sandbox
        self._next_sandbox += 1
        tables = machine.create_table_set(sb)
        tables.map_range(region, stage2.Attr.NORMAL)
        channel = spec.channel
        ros_set.unmap_range(channel)
        ros_set.map_range(channel, stage2.Attr.SHARED)
        tables.map_range(channel, stage2.Attr.SHARED)
        self.sanitize(region, new_owner=sb)

        machine.tlb_flush_core(spec.core_id)
        machine.active_ctx[spec.core_id] = sb
        self.ledger.core_owner[spec.core_id] = sb
        self.ledger.add_ram(sb, region)
        self.ledger.shared_channels[sb] = channel
        self.sandboxes[sb] = SandboxMeta(
            app_id=spec.app_id,
            base_bytes=region[1] - region[0],
            boot_core=spec.core_id,
            max_cores=spec.max_cores,
            max_memory=spec.max_memory,
            # A verified image boots as registered; only an unchecked one
            # needs its digest taken.
            booted_digest=self.store.digest_of(spec.app_id) if attested
            else digest64(plaintext),
            attested=attested,
        )
        boot_ns = self.engine.charge(f"sb{sb}", "boot")
        self._trace("lock_and_launch",
                    {"sandbox": sb, "core": spec.core_id,
                     "region": list(region)})
        return sb, boot_ns

    # -- memory adjustment --------------------------------------------------

    def _verify_region(self, sb: int, region: Tuple[int, int],
                       op: str) -> AdjustVerdict:
        reason = self._refusal(sb, region, op)
        self._trace("verify_region", {"sandbox": sb, "region": list(region), "op": op},
                    "approved" if reason is None else "rejected",
                    None if reason is None else reason.value)
        return AdjustVerdict(reason is None, reason)

    def _refusal(self, sb: int, region: Tuple[int, int], op: str) -> Optional[Reason]:
        """The first rule the attach or detach breaks, if any."""
        meta = self._require_sandbox(sb)
        if not self.defenses.legality_check:
            return None
        start, end = region
        if not (is_aligned(start, BLOCK_2M) and is_aligned(end, BLOCK_2M)) \
                or start >= end:
            return Reason.BAD_ALIGNMENT
        if op == "attach":
            if self.ledger.ram_overlap_owner(region) is not None:
                return Reason.OVERLAP
            if end > self.machine.config.ram_bytes or (
                self.shared_pool_range and overlaps(region, self.shared_pool_range)
            ):
                return Reason.NOT_FREE
            span = self.ledger.sandbox_span(sb)
            if start != span[1] and end != span[0]:
                return Reason.NOT_CONTIGUOUS
            if self.ledger.sandbox_size(sb) + (end - start) > meta.max_memory:
                return Reason.QUOTA_EXCEEDED
        else:
            ivs = self.ledger.sandbox_intervals(sb)
            if not covers(ivs, region):
                return Reason.NOT_FREE
            span = (ivs[0][0], ivs[-1][1])
            if start != span[0] and end != span[1]:
                return Reason.NOT_CONTIGUOUS
            if self.ledger.sandbox_size(sb) - (end - start) < meta.base_bytes:
                return Reason.QUOTA_EXCEEDED
        return None

    def attach_memory(self, sb: int, region: Tuple[int, int]
                      ) -> Tuple[AdjustVerdict, int]:
        """Check, then act: (verdict, cost_ns). A refusal changes only the trace."""
        verdict = self._verify_region(sb, region, "attach")
        if not verdict.approved:
            return verdict, 0
        ros_set = self.machine.table_sets[ROS_CTX]
        if self.defenses.legality_check:
            ros_set.unmap_range(region)
        else:
            ros_set.cut(region)
        self.sanitize(region, new_owner=sb)
        self.machine.table_sets[sb].map_range(region, stage2.Attr.NORMAL)
        self.ledger.add_ram(sb, region)
        self._trace("attach_memory", {"sandbox": sb, "region": list(region)})
        return verdict, self.engine.charge(f"sb{sb}", "mem_inc")

    def detach_memory(self, sb: int, region: Tuple[int, int]
                      ) -> Tuple[AdjustVerdict, int]:
        """Check, then give region back to ROS, as `attach_memory`."""
        verdict = self._verify_region(sb, region, "detach")
        if not verdict.approved:
            return verdict, 0
        self.machine.table_sets[sb].unmap_range(region)
        self.sanitize(region, new_owner=ROS_CTX)
        self.machine.table_sets[ROS_CTX].map_range(region, stage2.Attr.NORMAL)
        self.ledger.remove_ram(sb, region)
        self._trace("detach_memory", {"sandbox": sb, "region": list(region)})
        return verdict, self.engine.charge(f"sb{sb}", "mem_dec")

    # -- sanitization -------------------------------------------------------

    def sanitize(self, region: Tuple[int, int], new_owner: int) -> Tuple[int, int]:
        """Flush stale translations and foreign cache lines over a region
        before it changes hands."""
        if not self.defenses.sanitize:
            self._trace("sanitize", {"region": list(region)}, "skipped",
                        "no_sanitize")
            return (0, 0)
        if not (is_aligned(region[0], BLOCK_2M) and is_aligned(region[1], BLOCK_2M)):
            raise AlignmentError("sanitize region must be 2MB-aligned")
        flushed = self.machine.tlb_flush_range(region)
        invalidated = self.machine.cache_invalidate_range(region, keep_owner=new_owner)
        self._trace("sanitize", {"region": list(region), "tlb": flushed,
                                 "cache": invalidated})
        return flushed, invalidated

    # -- core transfer ------------------------------------------------------

    def transfer_core(self, core_id: int, from_ctx: int, to_ctx: int,
                      optimized: bool = True) -> int:
        if core_id not in self.machine.cores:
            raise NotOwner(f"no core {core_id}")
        if from_ctx == to_ctx or (from_ctx != ROS_CTX and to_ctx != ROS_CTX):
            raise ResourceBusy("cores move only between ROS and one sandbox")
        if to_ctx != ROS_CTX and core_id == 0:
            raise ResourceBusy("core 0 is pinned to ROS")
        if self.defenses.legality_check and self.ledger.core_owner[core_id] != from_ctx:
            self._trace("transfer_core", {"core": core_id}, "rejected", "NotOwner")
            raise NotOwner(f"core {core_id} not owned by ctx {from_ctx}")
        if to_ctx != ROS_CTX:
            meta = self._require_sandbox(to_ctx)
            if len(self.ledger.cores_of(to_ctx)) + 1 > meta.max_cores:
                self._trace("transfer_core", {"core": core_id}, "rejected",
                            "QuotaExceeded")
                raise QuotaExceeded(f"sandbox {to_ctx} core quota reached")
        if len(self.ledger.cores_of(from_ctx)) <= 1:
            raise LastCoreError(f"ctx {from_ctx} would lose its last core")
        if from_ctx != ROS_CTX and core_id == self.sandboxes[from_ctx].boot_core:
            raise LastCoreError("booting core is never adjusted")
        self._move_core(core_id, from_ctx, to_ctx, optimized)
        direction = "inc" if from_ctx == ROS_CTX else "dec"
        cls = self.machine.cores[core_id].value
        actor = f"sb{to_ctx if to_ctx != ROS_CTX else from_ctx}"
        return self.engine.charge(
            actor, f"core_{direction}_{cls}_{'opt' if optimized else 'noopt'}")

    def _move_core(self, core_id: int, from_ctx: int, to_ctx: int,
                   optimized: bool) -> None:
        """The effect of a core transfer, unchecked and uncharged."""
        machine = self.machine
        # Departing context's lines are cleaned. The core passes through a
        # busy-wait (optimized) or off (full hotplug) state inside this op;
        # only the cost model charges that path, so no state records it.
        machine.cache_invalidate_owner(from_ctx)
        machine.tlb_flush_core(core_id)
        machine.active_ctx[core_id] = to_ctx
        self.ledger.core_owner[core_id] = to_ctx
        self._trace("transfer_core",
                    {"core": core_id, "from": from_ctx, "to": to_ctx,
                     "optimized": optimized})

    # -- peripherals ----------------------------------------------------------

    def switch_peripheral(self, dev_id: str, from_ctx: int, to_ctx: int,
                          charge: bool = True) -> int:
        kind = self.machine.config.peripheral(dev_id).kind.value
        if self.ledger.dev_owner[dev_id] != from_ctx:
            self._trace("switch_peripheral", {"dev": dev_id}, "rejected",
                        "NotOwner")
            raise NotOwner(f"{dev_id} not owned by ctx {from_ctx}")
        if self.driver_states.get((from_ctx, dev_id), DRIVER_LOADED) == DRIVER_LOADED:
            self._trace("switch_peripheral", {"dev": dev_id}, "rejected",
                        "DeviceBusy")
            raise DeviceBusy(f"{dev_id} driver still active in ctx {from_ctx}")
        self._move_device(dev_id, from_ctx, to_ctx)
        if not charge:
            return 0
        from_side = "ros" if from_ctx == ROS_CTX else "sandbox"
        to_side = "ros" if to_ctx == ROS_CTX else "sandbox"
        actor = f"sb{to_ctx if to_ctx != ROS_CTX else from_ctx}"
        return (self.engine.charge(actor, f"periph_unmap_{kind}_{from_side}")
                + self.engine.charge(actor, f"periph_map_{kind}_{to_side}"))

    def _move_device(self, dev_id: str, from_ctx: int, to_ctx: int) -> None:
        """The effect of a peripheral switch, unchecked and uncharged."""
        machine = self.machine
        rng = machine.config.peripheral(dev_id).mmio_range
        machine.table_sets[from_ctx].unmap_range(rng)
        machine.tlb_flush_range(rng)
        machine.table_sets[to_ctx].map_range(rng, stage2.Attr.DEVICE)
        self.ledger.dev_owner[dev_id] = to_ctx
        self._trace("switch_peripheral",
                    {"dev": dev_id, "from": from_ctx, "to": to_ctx})

    # -- SMMU (DMA access control) ---------------------------------------------

    def smmu_check(self, dev_id: str, initiator_ctx: int,
                   target: Tuple[int, int]) -> bool:
        desc = self.machine.config.peripheral(dev_id)
        assert desc.dma_capable, "only DMA-capable devices reach the SMMU"
        if not self.defenses.smmu:
            self._trace("smmu_check", {"dev": dev_id, "target": list(target)},
                        "skipped", "no_smmu")
            return True
        allowed = self.ledger.owns_range(initiator_ctx, target)
        self._trace("smmu_check",
                    {"dev": dev_id, "ctx": initiator_ctx, "target": list(target)},
                    "ok" if allowed else "blocked",
                    None if allowed else "foreign target range")
        return allowed

    # -- teardown ---------------------------------------------------------------

    def teardown(self, sb: int, state_of) -> Tuple[int, List[str]]:
        """Release everything a sandbox holds; returns (cost_ns, devices that
        went back to ROS)."""
        self._require_sandbox(sb)
        if state_of(sb) != "terminating":
            raise BadState(f"sandbox {sb} not in terminating state")
        machine = self.machine
        returned_devs = [d for d, o in self.ledger.dev_owner.items() if o == sb]
        for dev in returned_devs:
            self._move_device(dev, sb, ROS_CTX)
        for core_id in self.ledger.cores_of(sb):
            self._move_core(core_id, sb, ROS_CTX, optimized=True)
        ros_set = machine.table_sets[ROS_CTX]
        for region in self.ledger.sandbox_intervals(sb):
            self.sanitize(region, new_owner=ROS_CTX)
            ros_set.map_range(region, stage2.Attr.NORMAL)
            self.ledger.remove_ram(sb, region)
        channel = self.ledger.shared_channels.pop(sb)
        ros_set.unmap_range(channel)
        self.sanitize(channel, new_owner=ROS_CTX)
        ros_set.map_range(channel, stage2.Attr.NORMAL)
        machine.destroy_table_set(sb)
        self.machine.cache_invalidate_owner(sb)
        self.sandboxes.pop(sb)
        cost = self.engine.charge(f"sb{sb}", "shutdown")
        self._trace("teardown", {"sandbox": sb, "devices": returned_devs})
        return cost, returned_devs

    # -- exploration support -----------------------------------------------------

    STATE = Schema(
        machine=REWIRED, engine=REWIRED, driver_states=REWIRED,
        store=SHARED, defenses=SHARED, mode=SHARED, shared_pool_range=SHARED,
        ledger=NESTED,
        sandboxes=keyed(
            lambda sbs: tuple(
                (sb, m.app_id, m.base_bytes, m.boot_core, m.max_cores,
                 m.max_memory, m.booted_digest, m.attested)
                for sb, m in sorted(sbs.items())),
            copy=dict,
        ),
        _next_sandbox=copied(
            "known gap (ROADMAP Open item 2): the next id counts past launches; "
            "shuffled op orders reach 7,178 depth-8 states, not 7,172"
        ),
    )
    clone = STATE.clone
    canonical = STATE.canonical
