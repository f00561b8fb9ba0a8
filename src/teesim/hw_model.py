"""Physical machine model: cores, address map, per-core TLBs, shared L2.

The cache is owner-tagged rather than timed: each line remembers which
context filled it, which is all the direct-cache-attack oracle needs. It has
no capacity, so a line leaves it only when it is invalidated. The TLB caches
successful stage-2 translations per core; it has no capacity either, so an
entry leaves it only when it is flushed.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from . import stage2
from .errors import ConfigError
from .state import DICT, SHARED, Schema, clone_values, keyed
from .units import BLOCK_2M, GB, KB, MB, PAGE_4K, align_down, is_aligned, overlaps

ROS_CTX = 0
CACHE_LINE_BYTES = 64


class CoreClass(str, Enum):
    BIG = "big"
    LITTLE = "little"


class DevKind(str, Enum):
    GPU = "gpu"
    WIFI = "wifi"
    BLUETOOTH = "bluetooth"
    OTHER = "other"


@dataclass(frozen=True)
class PeripheralDesc:
    dev_id: str
    kind: DevKind
    mmio_range: Tuple[int, int]
    dma_capable: bool = False
    independent: bool = True
    always_busy_in_ros: bool = False


@dataclass(frozen=True)
class MachineConfig:
    ram_bytes: int
    io_window: Tuple[int, int]
    cores: Tuple[Tuple[int, CoreClass], ...]
    peripherals: Tuple[PeripheralDesc, ...] = ()

    def validate(self) -> None:
        if len(self.cores) < 2:
            raise ConfigError("at least 2 cores required (ROS keeps one)")
        ids = [cid for cid, _ in self.cores]
        if sorted(ids) != list(range(len(ids))):
            raise ConfigError("core ids must be unique and dense from 0")
        io_start, io_end = self.io_window
        if io_start >= io_end:
            raise ConfigError("empty io_window")
        if io_start < self.ram_bytes:
            raise ConfigError("io_window overlaps RAM frames")
        for p in self.peripherals:
            lo, hi = p.mmio_range
            if not (is_aligned(lo, PAGE_4K) and is_aligned(hi, PAGE_4K) and lo < hi):
                raise ConfigError(f"{p.dev_id}: MMIO range must be 4KB-aligned")
            if lo < io_start or hi > io_end:
                raise ConfigError(f"{p.dev_id}: MMIO range outside io_window")
        for i, a in enumerate(self.peripherals):
            for b in self.peripherals[i + 1 :]:
                if a.dev_id == b.dev_id:
                    raise ConfigError(f"peripheral {a.dev_id!r} named twice")
                if overlaps(a.mmio_range, b.mmio_range):
                    raise ConfigError(f"{a.dev_id}/{b.dev_id}: MMIO ranges overlap")

    def peripheral(self, dev_id: str) -> PeripheralDesc:
        for p in self.peripherals:
            if p.dev_id == dev_id:
                return p
        raise ConfigError(f"unknown peripheral {dev_id!r}")

    def device_at(self, pa: int) -> Optional[str]:
        """The peripheral whose MMIO range holds pa, if any."""
        for p in self.peripherals:
            if p.mmio_range[0] <= pa < p.mmio_range[1]:
                return p.dev_id
        return None


_IO_BASE = 3584 * MB
_DEFAULT_CONFIG = MachineConfig(
    ram_bytes=3584 * MB,
    io_window=(_IO_BASE, 4 * GB),
    cores=tuple((i, CoreClass.LITTLE if i < 4 else CoreClass.BIG) for i in range(8)),
    peripherals=(
        PeripheralDesc("gpu", DevKind.GPU, (_IO_BASE, _IO_BASE + 64 * KB),
                       dma_capable=True, independent=True, always_busy_in_ros=True),
        PeripheralDesc("wifi", DevKind.WIFI, (_IO_BASE + 64 * KB, _IO_BASE + 128 * KB),
                       dma_capable=True),
        PeripheralDesc("bluetooth", DevKind.BLUETOOTH,
                       (_IO_BASE + 128 * KB, _IO_BASE + 192 * KB)),
        # Shares a bus driver, so it can never be switched out of ROS.
        PeripheralDesc("usb", DevKind.OTHER, (_IO_BASE + 192 * KB, _IO_BASE + 256 * KB),
                       independent=False),
    ),
)


def default_config() -> MachineConfig:
    """The 8-core big.LITTLE platform: 4GB address space, RAM below 3.5GB,
    peripheral IO window above it; one frozen instance serves every caller."""
    return _DEFAULT_CONFIG


def small_config() -> MachineConfig:
    """Desk-scale config for exhaustive exploration: 3 cores, 16 RAM frames
    of 2MB, one switchable peripheral."""
    ram = 16 * BLOCK_2M
    return MachineConfig(
        ram_bytes=ram,
        io_window=(ram, ram + MB),
        cores=((0, CoreClass.LITTLE), (1, CoreClass.BIG), (2, CoreClass.BIG)),
        peripherals=(
            PeripheralDesc("wifi", DevKind.WIFI, (ram, ram + 16 * KB),
                           dma_capable=True),
        ),
    )


class Machine:
    """Single-owner mutable machine state; operations never interleave."""

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.cores: Dict[int, CoreClass] = dict(config.cores)
        self.active_ctx: Dict[int, int] = dict.fromkeys(self.cores, ROS_CTX)
        self.table_sets: Dict[int, stage2.Stage2TableSet] = {}
        # Per-core TLB: (ctx, block_base, gran) -> attr.
        self.tlbs: Dict[int, dict] = {cid: {} for cid in self.cores}
        # Shared physically indexed L2: line base -> filling context.
        self.cache: Dict[int, int] = {}
        ros = stage2.Stage2TableSet(ROS_CTX)
        ros.map_range((0, config.ram_bytes), stage2.Attr.NORMAL)
        ros.map_range(config.io_window, stage2.Attr.DEVICE)
        self.table_sets[ROS_CTX] = ros

    # -- cache model ------------------------------------------------------

    def cache_fill(self, context_id: int, pa: int) -> None:
        self.cache[align_down(pa, CACHE_LINE_BYTES)] = context_id

    def cache_lookup(self, pa: int) -> Optional[int]:
        return self.cache.get(align_down(pa, CACHE_LINE_BYTES))

    def cache_invalidate_range(self, rng: Tuple[int, int], keep_owner: int) -> int:
        start, end = rng
        victims = [
            line
            for line, owner in self.cache.items()
            if start <= line < end and owner != keep_owner
        ]
        for line in victims:
            del self.cache[line]
        return len(victims)

    def cache_invalidate_owner(self, context_id: int) -> int:
        victims = [l for l, owner in self.cache.items() if owner == context_id]
        for line in victims:
            del self.cache[line]
        return len(victims)

    # -- TLB model --------------------------------------------------------

    def tlb_insert(self, core_id: int, ctx: int, ipa: int, attr) -> None:
        gran = stage2.granularity_of(attr)
        self.tlbs[core_id][(ctx, align_down(ipa, gran), gran)] = attr

    def tlb_flush_range(self, pa_range: Tuple[int, int]) -> int:
        """Flush, on every core, the entries whose mapped block or page
        intersects pa_range; returns how many."""
        start, end = pa_range
        removed = 0
        for tlb in self.tlbs.values():
            victims = [
                key for key in tlb if key[1] < end and key[1] + key[2] > start
            ]
            for key in victims:
                del tlb[key]
            removed += len(victims)
        return removed

    def tlb_flush_core(self, core_id: int) -> int:
        n = len(self.tlbs[core_id])
        self.tlbs[core_id].clear()
        return n

    # -- context plumbing -------------------------------------------------

    def create_table_set(self, ctx: int) -> stage2.Stage2TableSet:
        assert ctx not in self.table_sets
        ts = stage2.Stage2TableSet(ctx)
        self.table_sets[ctx] = ts
        return ts

    def destroy_table_set(self, ctx: int) -> None:
        del self.table_sets[ctx]
        for tlb in self.tlbs.values():
            for key in [k for k in tlb if k[0] == ctx]:
                del tlb[key]

    def lookup(self, core_id: int, ipa: int) -> Tuple[stage2.TranslationResult, bool]:
        """A core's translation of ipa through its TLB, then its active table
        set, changing nothing. Returns (result, whether the tables hit)."""
        ctx = self.active_ctx[core_id]
        tlb = self.tlbs[core_id]
        for gran in (BLOCK_2M, PAGE_4K):
            attr = tlb.get((ctx, align_down(ipa, gran), gran))
            if attr is not None:
                return stage2.TranslationResult(True, ipa, attr), False
        tables = self.table_sets.get(ctx)
        if tables is None:
            return stage2.TranslationResult(False), False
        result = tables.translate(ipa)
        return result, result.hit

    def translate(self, core_id: int, ipa: int) -> stage2.TranslationResult:
        """Translate through a core's active table set, TLB included.

        A table hit installs a TLB entry for (core, context); a TLB hit succeeds
        even if the backing table entry has since been invalidated, which is
        exactly the stale-translation window sanitization closes.
        """
        result, table_hit = self.lookup(core_id, ipa)
        if table_hit:
            self.tlb_insert(core_id, self.active_ctx[core_id], ipa, result.attr)
        return result

    # -- exploration support ----------------------------------------------

    STATE = Schema(
        config=SHARED, cores=SHARED,
        active_ctx=DICT,
        table_sets=keyed(
            lambda sets: tuple(ts.canonical() for _, ts in sorted(sets.items())),
            copy=clone_values,
        ),
        # TLB entries are keyed sorted: nothing evicts, so no future reads
        # their insertion order.
        tlbs=keyed(
            lambda tlbs: tuple((cid, tuple(sorted(tlb)))
                               for cid, tlb in sorted(tlbs.items())),
            copy=lambda tlbs: {cid: dict(tlb) for cid, tlb in tlbs.items()},
        ),
        cache=DICT,
    )
    clone = STATE.clone
    canonical = STATE.canonical
