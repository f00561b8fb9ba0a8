"""Untrusted rich-OS side: contiguous allocation, shared-memory pool,
sandbox creation orchestration, and driver load/unload handshakes.

Everything here is advisory from the isolation standpoint: the monitor
re-checks whatever this actor proposes. Adversarial scenarios replace the
proposals, never the enforcement.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (
    BadState,
    DeviceBusy,
    NoAdjacentSpace,
    OutOfMemory,
    ResourceBusy,
    TooManySandboxes,
    UnknownApp,
    UnsupportedDevice,
)
from .engine import copy_cost_ns
from .hw_model import ROS_CTX, DevKind, MachineConfig
from .monitor import (DRIVER_LOADED, DRIVER_SUSPENDED_GPU, DRIVER_UNLOADED,
                      LaunchSpec, Monitor)
from .secure_world import EncryptedImage, KeyStore, digest64
from .sos import MEM_GRANULE
from .state import DICT, NESTED, REWIRED, SHARED, Schema, copied, keyed
from .units import BLOCK_2M, GB, MB, is_aligned


@dataclass(frozen=True)
class PoolLayout:
    """Where ROS carves sandbox memory from: weakly reserved contiguous
    extents plus one fixed shared-channel pool; and the granule in which
    sandbox runtimes grow and shrink their memory."""

    cma_extents: Tuple[Tuple[int, int], ...]
    shared_pool: Tuple[int, int]
    channel_bytes: int
    sandbox_base_bytes: int
    mem_granule: int


def default_layout(config: MachineConfig) -> PoolLayout:
    if config.ram_bytes >= 3 * GB:
        return PoolLayout(
            cma_extents=((1 * GB, 1 * GB + 512 * MB), (2 * GB, 2 * GB + 512 * MB)),
            shared_pool=(3 * GB, 3 * GB + 64 * MB),
            channel_bytes=4 * MB,
            sandbox_base_bytes=128 * MB,
            mem_granule=MEM_GRANULE,
        )
    # Desk-scale machines: leave the first frame to the OS, reserve the last
    # frames for channels.
    frames = config.ram_bytes // BLOCK_2M
    pool_frames = min(4, max(2, frames // 8))
    return PoolLayout(
        cma_extents=((BLOCK_2M, (frames - pool_frames) * BLOCK_2M),),
        shared_pool=((frames - pool_frames) * BLOCK_2M, frames * BLOCK_2M),
        channel_bytes=BLOCK_2M,
        sandbox_base_bytes=2 * BLOCK_2M,
        mem_granule=BLOCK_2M,
    )


class CmaPool:
    """First-fit, lowest-address allocator over the reserved extents."""

    def __init__(self, extents: Tuple[Tuple[int, int], ...]):
        for a, b in extents:
            if not (is_aligned(a, BLOCK_2M) and is_aligned(b, BLOCK_2M) and a < b):
                raise OutOfMemory("extent must be a non-empty 2MB-aligned range")
        self.extents = tuple(sorted(extents))
        self.allocations: List[Tuple[int, int, Optional[int]]] = []

    def _free_gaps(self):
        for ext_start, ext_end in self.extents:
            pos = ext_start
            for s, e, _ in self.allocations:
                if e <= ext_start or s >= ext_end:
                    continue
                if s > pos:
                    yield (pos, s)
                pos = max(pos, e)
            if pos < ext_end:
                yield (pos, ext_end)

    def find(self, nbytes: int,
             adjacent_to: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
        """The free range of nbytes for `take`, read-only."""
        if nbytes <= 0 or nbytes % BLOCK_2M:
            raise OutOfMemory(f"allocation must be a positive 2MB multiple, got {nbytes}")
        if adjacent_to is not None:
            lo = (adjacent_to[0] - nbytes, adjacent_to[0])
            hi = (adjacent_to[1], adjacent_to[1] + nbytes)
            for cand in (lo, hi):
                if self._gap_covers(cand):
                    return cand
            raise NoAdjacentSpace(
                f"no free {nbytes:#x} bytes adjoining [{adjacent_to[0]:#x}, "
                f"{adjacent_to[1]:#x})"
            )
        for gap_start, gap_end in self._free_gaps():
            if gap_end - gap_start >= nbytes:
                return (gap_start, gap_start + nbytes)
        raise OutOfMemory(f"no contiguous {nbytes:#x} bytes free")

    def _gap_covers(self, rng: Tuple[int, int]) -> bool:
        return any(g[0] <= rng[0] and rng[1] <= g[1] for g in self._free_gaps())

    def take(self, rng: Tuple[int, int], owner: Optional[int]) -> Tuple[int, int]:
        self.allocations.append((rng[0], rng[1], owner))
        self.allocations.sort()
        return rng

    def set_owner(self, rng: Tuple[int, int], owner: int) -> None:
        for i, (s, e, _) in enumerate(self.allocations):
            if (s, e) == rng:
                self.allocations[i] = (s, e, owner)
                return
        raise BadState(f"range [{rng[0]:#x}, {rng[1]:#x}) not allocated")

    def free(self, rng: Tuple[int, int]) -> None:
        for i, (s, e, _) in enumerate(self.allocations):
            if (s, e) == rng:
                del self.allocations[i]
                return
        raise BadState(f"range [{rng[0]:#x}, {rng[1]:#x}) not allocated")

    def free_range(self, rng: Tuple[int, int], owner: int) -> None:
        """Free a sub-range that may span several allocation records."""
        out = []
        for s, e, o in self.allocations:
            if o != owner or e <= rng[0] or s >= rng[1]:
                out.append((s, e, o))
                continue
            if s < rng[0]:
                out.append((s, rng[0], o))
            if rng[1] < e:
                out.append((rng[1], e, o))
        self.allocations = sorted(out)

    def owned_by(self, owner: int) -> List[Tuple[int, int]]:
        return [(s, e) for s, e, o in self.allocations if o == owner]

    STATE = Schema(extents=SHARED, allocations=keyed(tuple, copy=list))
    clone = STATE.clone
    canonical = STATE.canonical


class RosActor:
    def __init__(self, machine, monitor: Monitor, store: KeyStore, eng):
        self.machine = machine
        self.monitor = monitor
        self.store = store
        self.engine = eng
        self.layout = default_layout(machine.config)
        self.cma = CmaPool(self.layout.cma_extents)
        # Encrypted images as staged on disk, at set-up.
        self.images: Dict[str, EncryptedImage] = {}
        self.driver_blobs: Dict[str, bytes] = {}
        self.driver_states: Dict[Tuple[int, str], str] = {
            (ROS_CTX, p.dev_id): DRIVER_LOADED
            for p in machine.config.peripherals
        }
        self.gpu_suspended_at: Dict[str, int] = {}
        monitor.shared_pool_range = self.layout.shared_pool
        monitor.driver_states = self.driver_states

    def _trace(self, op, args=None, verdict="ok", reason=None):
        self.engine.trace("ros", op, args, verdict, reason)

    # -- images and drivers -------------------------------------------------

    def stage_image(self, app_id: str, payload: bytes) -> None:
        self.images[app_id] = self.store.export_image(app_id, payload)

    def tampered_image(self, app_id: str) -> EncryptedImage:
        """app_id's staged image with its first byte flipped."""
        raw = bytearray(self.images[app_id].payload)
        raw[0] ^= 0xFF
        return EncryptedImage(app_id, bytes(raw))

    def register_driver(self, dev_id: str, blob: bytes) -> None:
        self.driver_blobs[dev_id] = blob
        self.store.register_image(f"driver:{dev_id}", blob)

    def driver_ok(self, dev_id: str) -> bool:
        blob = self.driver_blobs.get(dev_id, b"")
        return self.store.known(f"driver:{dev_id}") and \
            digest64(blob) == self.store.digest_of(f"driver:{dev_id}")

    # -- allocation -----------------------------------------------------------

    def alloc_contiguous(self, rng: Tuple[int, int],
                         owner: Optional[int] = None) -> None:
        """Take rng, a range `cma.find` offered, for owner."""
        self.cma.take(rng, owner)
        self._trace("alloc", {"range": list(rng), "owner": owner})

    def alloc_channel(self) -> Tuple[int, int]:
        """The lowest free channel slot of the shared pool; the ledger's
        channels are the taken ones."""
        taken = set(self.monitor.ledger.shared_channels.values())
        (start, end), size = self.layout.shared_pool, self.layout.channel_bytes
        for pos in range(start, end - size + 1, size):
            if (pos, pos + size) not in taken:
                return (pos, pos + size)
        raise OutOfMemory("shared pool exhausted")

    # -- sandbox creation -------------------------------------------------------

    def pick_core(self, prefer: Optional[str] = None) -> int:
        free = [
            cid
            for cid, owner in self.monitor.ledger.core_owner.items()
            if owner == ROS_CTX and cid != 0
        ]
        if not free:
            raise ResourceBusy("no assignable core free")
        if prefer:
            preferred = [
                c for c in free
                if self.machine.cores[c].value == prefer
            ]
            if preferred:
                return min(preferred)
        return min(free)

    def create_sandbox(self, app_id: str, max_cores: int = 1,
                       max_memory: int = 512 * MB,
                       core_pref: Optional[str] = None,
                       base_bytes: Optional[int] = None,
                       image: Optional[EncryptedImage] = None):
        """Allocate resources and ask the monitor to lock and launch the
        staged image (or image). Returns (sandbox_id, boot_ns)."""
        if app_id not in self.images:
            raise UnknownApp(f"{app_id} has no staged image")
        if len(self.monitor.sandboxes) >= len(self.machine.cores) - 1:
            self._trace("create_sandbox", {"app": app_id}, "rejected",
                        "TooManySandboxes")
            raise TooManySandboxes("all non-ROS cores committed")
        base = base_bytes if base_bytes is not None else self.layout.sandbox_base_bytes
        sb, boot_ns = self.launch(app_id, self.pick_core(core_pref), base,
                                  max_cores, max_memory, image)
        self._trace("create_sandbox", {"app": app_id, "sandbox": sb})
        return sb, boot_ns

    def launch(self, app_id: str, core_id: int, base_bytes: int,
               max_cores: int = 1, max_memory: int = 512 * MB,
               image: Optional[EncryptedImage] = None):
        """Take a channel and a region and ask the monitor to launch app_id
        (image, if given) on core_id; nothing stays taken if it refuses.
        Adversarial callers name a core they do not hold or a tampered image.
        Returns (sandbox_id, boot_ns)."""
        channel = self.alloc_channel()
        spec = LaunchSpec(app_id=app_id, image=image or self.images[app_id],
                          core_id=core_id, region=self.cma.find(base_bytes),
                          channel=channel, max_cores=max_cores,
                          max_memory=max_memory)
        self.alloc_contiguous(spec.region)
        try:
            sb, boot_ns = self.monitor.lock_and_launch(spec)
        except Exception:
            self.cma.free(spec.region)
            raise
        self.cma.set_owner(spec.region, sb)
        return sb, boot_ns

    def release_sandbox_memory(self, sb: int) -> None:
        for rng in self.cma.owned_by(sb):
            self.cma.free(rng)

    # -- data transfer -----------------------------------------------------------

    def send_data(self, sb: int, byte_count: int, direction: str) -> int:
        """Charge one IPI plus the interpolated copy cost; returns total ns."""
        assert direction in ("to_sandbox", "to_ros")
        if byte_count < 0:
            raise BadState("negative byte count")
        if direction == "to_sandbox":
            ipi_name, actor = "ipi_ros_to_sb", "ros"
        else:
            ipi_name, actor = "ipi_sb_to_ros", f"sb{sb}"
        total = self.engine.charge(actor, ipi_name)
        if byte_count:
            total += self.engine.charge(actor, "copy", copy_cost_ns(byte_count),
                                        {"bytes": byte_count})
        self._trace("send_data", {"sandbox": sb, "bytes": byte_count,
                                  "direction": direction})
        return total

    # -- peripheral handshakes ------------------------------------------------------

    def prepare_peripheral(self, dev_id: str) -> None:
        desc = self.machine.config.peripheral(dev_id)
        if self.monitor.ledger.dev_owner[dev_id] != ROS_CTX:
            raise DeviceBusy(f"{dev_id} not held by ROS")
        state = self.driver_states[(ROS_CTX, dev_id)]
        if state != DRIVER_LOADED:
            raise DeviceBusy(f"{dev_id} already being switched")
        if desc.kind is DevKind.GPU:
            self.driver_states[(ROS_CTX, dev_id)] = DRIVER_SUSPENDED_GPU
            self.gpu_suspended_at[dev_id] = self.engine.now_ns
            self._trace("gpu_suspend", {"dev": dev_id})
        elif desc.independent:
            self.driver_states[(ROS_CTX, dev_id)] = DRIVER_UNLOADED
            self._trace("driver_unload", {"dev": dev_id})
        else:
            self._trace("prepare_peripheral", {"dev": dev_id}, "rejected",
                        "UnsupportedDevice")
            raise UnsupportedDevice(f"{dev_id} driver is shared, cannot unload")

    def reclaim_peripheral(self, dev_id: str) -> Optional[int]:
        """Reload the driver (resume for GPU) once the monitor returned the
        device. Returns the frozen-GUI interval ns for a GPU."""
        desc = self.machine.config.peripheral(dev_id)
        if self.monitor.ledger.dev_owner[dev_id] != ROS_CTX:
            raise BadState(f"{dev_id} still owned elsewhere")
        state = self.driver_states[(ROS_CTX, dev_id)]
        if state == DRIVER_LOADED:
            raise BadState(f"{dev_id} driver already loaded")
        self.driver_states[(ROS_CTX, dev_id)] = DRIVER_LOADED
        if desc.kind is DevKind.GPU:
            frozen = self.engine.now_ns - self.gpu_suspended_at.pop(dev_id)
            self._trace("gpu_resume", {"dev": dev_id, "frozen_ns": frozen})
            return frozen
        self._trace("driver_load", {"dev": dev_id})
        return None

    # -- exploration support -----------------------------------------------------------

    STATE = Schema(
        machine=REWIRED, monitor=REWIRED, engine=REWIRED,
        store=SHARED, layout=SHARED,
        cma=NESTED, driver_states=DICT,
        images=SHARED, driver_blobs=SHARED,
        gpu_suspended_at=copied("always empty in the single-wifi small world, "
                                "as in all 7,172 depth-8 states", copy=dict),
    )
    clone = STATE.clone
    canonical = STATE.canonical
