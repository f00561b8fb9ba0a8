"""Composition root: one Machine, one Monitor, one ROS actor, the sandbox
runtimes, and the event plumbing between them.

Requests take effect in the ledger and stage-2 tables atomically when the
monitor handles them; their charged cost delays only when the requester can
*use* the result (boot completion, an arriving core, attached memory). In
instant mode (used by exploration) everything applies synchronously and the
clock is ignored.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import sos
from .engine import CostTable, Engine
from .errors import (
    BadState,
    IntegrityError,
    NoAdjacentSpace,
    OutOfMemory,
    ResourceBusy,
)
from .hw_model import ROS_CTX, DevKind, MachineConfig, build_machine
from .monitor import Defenses, Monitor
from .ros import DRIVER_LOADED, DRIVER_UNLOADED, PoolLayout, RosActor
from .secure_world import KeyStore
from .sos import SandboxRuntime
from .state import NESTED, SHARED, Schema, clone_values, copied, keyed, reset
from .units import MB, MS_NS, PAGE_4K, S_NS


@dataclass
class WorldOptions:
    optimized_core_transfers: bool = True
    tick_ns: int = 100 * MS_NS
    device_wait_timeout_ns: int = 5 * S_NS
    mem_granule: int = 16 * MB
    instant: bool = False


@dataclass
class Metrics:
    completion_ns: Dict[int, int] = field(default_factory=dict)
    adjust_count: int = 0
    adjust_latency_ns: int = 0
    frozen_gui_ns: List[int] = field(default_factory=list)
    mem_used_integral: int = 0
    mem_alloc_integral: int = 0
    core_busy_integral: int = 0
    core_alloc_integral: int = 0
    max_concurrent: int = 0
    attacks_blocked: int = 0
    attacks_unblocked: int = 0

    def mem_utilization(self) -> float:
        if not self.mem_alloc_integral:
            return 0.0
        return self.mem_used_integral / self.mem_alloc_integral

    def core_utilization(self) -> float:
        if not self.core_alloc_integral:
            return 0.0
        return self.core_busy_integral / self.core_alloc_integral

    def as_dict(self, trace_digest: str) -> dict:
        return {
            "completion_ms": {
                f"sb{sb}": ns / MS_NS for sb, ns in sorted(self.completion_ns.items())
            },
            "adjustments": {
                "count": self.adjust_count,
                "total_latency_ms": self.adjust_latency_ns / MS_NS,
            },
            "memory_utilization": round(self.mem_utilization(), 6),
            "core_utilization": round(self.core_utilization(), 6),
            "frozen_gui_ms": [ns / MS_NS for ns in self.frozen_gui_ns],
            "max_concurrent_sandboxes": self.max_concurrent,
            "attacks": {
                "blocked": self.attacks_blocked,
                "unblocked": self.attacks_unblocked,
            },
            "trace_digest": trace_digest,
        }


def digest(value) -> str:
    """Digest of a canonical state key."""
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def _rewire(world: "World") -> None:
    """Point a cloned world's monitor and ROS actor at its own machine,
    engine and each other."""
    mon, ros = world.monitor, world.ros
    mon.machine = ros.machine = world.machine
    mon.engine = ros.engine = world.engine
    ros.monitor = mon
    mon.driver_states = ros.driver_states


class World:
    def __init__(self, config: MachineConfig,
                 costs: Optional[CostTable] = None,
                 defenses: Optional[Defenses] = None,
                 mode: str = "leap",
                 layout: Optional[PoolLayout] = None,
                 options: Optional[WorldOptions] = None):
        self.options = options or WorldOptions()
        self.engine = Engine(costs)
        self.machine = build_machine(config)
        self.store = KeyStore()
        self.monitor = Monitor(self.machine, self.store, self.engine,
                               defenses, mode)
        self.ros = RosActor(self.machine, self.monitor, self.store,
                            self.engine, layout)
        self.runtimes: Dict[int, SandboxRuntime] = {}
        self.payloads: Dict[str, bytes] = {}
        self.metrics = Metrics()
        self.dev_queues: Dict[str, List[int]] = {}
        self.attack_outcomes: List = []
        self._gen: Dict[int, int] = {}

    # -- setup -------------------------------------------------------------

    def register_app(self, app_id: str, payload: bytes) -> None:
        self.store.register_image(app_id, payload)
        self.payloads[app_id] = payload
        self.ros.stage_image(app_id, payload)

    def register_default_drivers(self) -> None:
        for p in self.machine.config.peripherals:
            self.ros.register_driver(p.dev_id, f"driver-{p.dev_id}".encode())

    # -- small helpers -------------------------------------------------------

    def state_of(self, sb: int) -> str:
        rt = self.runtimes.get(sb)
        return rt.state if rt else "dead"

    def _later(self, delay_ns: int, fn) -> None:
        if self.options.instant:
            fn()
        else:
            self.engine.schedule(delay_ns, fn)

    def _bump_gen(self, sb: int) -> int:
        self._gen[sb] = self._gen.get(sb, 0) + 1
        return self._gen[sb]

    # -- sandbox lifecycle -----------------------------------------------------

    def create_sandbox(self, app_id: str, max_cores: int = 1,
                       max_memory: int = 512 * MB,
                       core_pref: Optional[str] = None,
                       base_bytes: Optional[int] = None,
                       workload=None) -> int:
        sb, boot_ns = self.ros.create_sandbox(
            app_id, max_cores=max_cores, max_memory=max_memory,
            core_pref=core_pref, base_bytes=base_bytes,
        )
        meta = self.monitor.sandboxes[sb]
        rt = SandboxRuntime(
            sb, app_id, max_cores=max_cores, max_memory=max_memory,
            boot_core=meta.boot_core,
            boot_core_class=self.machine.cores[meta.boot_core].core_class.value,
            base_bytes=meta.base_bytes,
            workload=workload,
            mem_granule=self.options.mem_granule,
        )
        rt.advance("verifying")
        rt.advance("booting")
        self.runtimes[sb] = rt
        self.metrics.max_concurrent = max(
            self.metrics.max_concurrent, len(self.monitor.sandboxes)
        )
        self._later(boot_ns, lambda: self._boot_done(sb))
        return sb

    def _boot_done(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "booting":
            return
        rt.advance("running")
        rt.start_work(self.engine.now_ns)
        self.engine.trace(f"sb{sb}", "running")
        if not self.options.instant:
            self.engine.schedule(self.options.tick_ns, lambda: self._tick(sb))
            self._repredict(sb)

    def terminate(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None:
            raise BadState(f"no sandbox {sb}")
        rt.require_running()
        for dev in sorted(rt.devices):
            self.release_peripheral(sb, dev)
        rt.account_to(self.engine.now_ns)
        rt.advance("terminating")
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        cost, returned = self.monitor.teardown(sb, state_of=self.state_of)
        for dev in returned:
            # Forced returns during teardown leave the ROS driver unloaded.
            if self.ros.driver_states.get((ROS_CTX, dev)) != DRIVER_LOADED:
                frozen = self.ros.reclaim_peripheral(dev)
                if frozen is not None:
                    self.metrics.frozen_gui_ns.append(frozen)
        self.ros.release_sandbox_memory(sb)
        rt.cores.clear()
        rt.devices.clear()
        rt.gpu_owned = False
        self._bump_gen(sb)
        self._later(cost, lambda: self._dead(sb))

    def _dead(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is not None and rt.state == "terminating":
            rt.advance("dead")
            self.engine.trace(f"sb{sb}", "dead")

    # -- periodic runtime work ---------------------------------------------------

    def _tick(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running":
            return
        now = self.engine.now_ns
        tick = self.options.tick_ns
        rt.account_to(now)
        busy_ns = self._busy_ns(rt, now)
        rt.sample_usage(now, busy_ns)
        self._sample_utilization(rt, busy_ns)
        mem_req = rt.monitor_memory(rt.working_set_bytes())
        if mem_req is not None:
            if mem_req.kind == "attach":
                self._request_attach(sb, mem_req.nbytes)
            else:
                self._request_detach(sb, mem_req.nbytes)
        cpu_req = rt.monitor_cpu(now)
        if cpu_req is not None:
            if cpu_req.kind == "increase_core":
                self._request_core_increase(sb, cpu_req.core_class)
            else:
                self._request_core_release(sb, cpu_req.core_id)
        folded = 0
        if mem_req is None and cpu_req is None:
            folded = self._quiescent_ticks(rt, now, busy_ns)
            if folded:
                self._sample_utilization(rt, busy_ns, folded)
                rt._last_account_ns = now + folded * tick
        self.engine.schedule((folded + 1) * tick, lambda: self._tick(sb))

    def _busy_ns(self, rt: SandboxRuntime, now: int) -> int:
        """Busy time of rt in the tick window that ends at now."""
        busy_start = max(now - self.options.tick_ns, rt.work_started_ns or now)
        busy_end = min(now, rt.work_finished_ns if rt.work_finished_ns is not None
                       else now)
        if rt.busy():
            busy_end = now
        return max(0, busy_end - busy_start)

    def _quiescent_ticks(self, rt: SandboxRuntime, now: int, busy_ns: int) -> int:
        """How many of the ticks after the one at now would repeat it exactly.

        A tick that raised no request, with no work left, past hysteresis and
        with a full window of samples equal to its own, changes nothing the
        next tick reads, so the next one repeats it, as long as no other
        event runs in between. Those ticks are bounded by the engine's next
        queued event (an event at the same time runs first, so that tick
        stays real) and by the end of the current run_until. Their only
        effect is the utilization integrals and the accounting point.
        """
        if rt.busy() or now < rt.hysteresis_until_ns:
            return 0
        tick = self.options.tick_ns
        count = (self.engine.end_ns - now) // tick
        next_ns = self.engine.next_event_ns
        if next_ns is not None:
            count = min(count, (next_ns - now - 1) // tick)
        if count <= 0:
            return 0
        usage = rt.usage
        if len(usage) != usage.maxlen or usage.count(usage[-1]) != len(usage):
            return 0
        # Busy time per window is monotone once work is over, so equal at the
        # next tick means equal at every later one.
        if self._busy_ns(rt, now + tick) != busy_ns:
            return 0
        return count

    def _sample_utilization(self, rt: SandboxRuntime, busy_ns: int,
                            ticks: int = 1) -> None:
        span = self.options.tick_ns * ticks
        alloc = self.monitor.ledger.sandbox_size(rt.id)
        used = min(alloc, rt.used_bytes())
        self.metrics.mem_used_integral += used * span
        self.metrics.mem_alloc_integral += alloc * span
        ncores = len(rt.cores)
        self.metrics.core_busy_integral += busy_ns * ticks * ncores
        self.metrics.core_alloc_integral += span * ncores

    def _repredict(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running" or self.options.instant:
            return
        eta = rt.finish_eta_ns()
        if eta is None:
            return
        gen = self._bump_gen(sb)
        self.engine.schedule(eta, lambda: self._completion(sb, gen))

    def _completion(self, sb: int, gen: int) -> None:
        if self._gen.get(sb) != gen:
            return
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running":
            return
        rt.account_to(self.engine.now_ns)
        if rt.busy():
            self._repredict(sb)
            return
        if rt.work_finished_ns is not None and sb not in self.metrics.completion_ns:
            dur = rt.work_finished_ns - rt.work_started_ns
            self.metrics.completion_ns[sb] = dur
            self.engine.trace(f"sb{sb}", "workload_complete",
                              {"duration_ns": dur})

    # -- memory adjustment ----------------------------------------------------------

    def _request_attach(self, sb: int, nbytes: int) -> bool:
        rt = self.runtimes[sb]
        if rt.mem_pending:
            return False
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        span = self.monitor.ledger.sandbox_span(sb)
        try:
            region = self.ros.alloc_contiguous(nbytes, adjacent_to=span, owner=sb)
        except (NoAdjacentSpace, OutOfMemory) as exc:
            self.engine.trace("ros", "attach_request", {"sandbox": sb},
                              "rejected", type(exc).__name__)
            return False
        verdict = self.monitor.verify_region_legality(sb, region, "attach")
        if not verdict.approved:
            self.ros.cma.free(region)
            return False
        cost = self.monitor.attach_memory(sb, region)
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost
        rt.mem_pending = True

        def apply():
            r = self.runtimes.get(sb)
            if r is None:
                return
            r.mem_pending = False
            if r.state not in ("booting", "running"):
                return
            r.account_to(self.engine.now_ns)
            r._attached_bytes += nbytes
            self._repredict(sb)

        self._later(cost, apply)
        return True

    def _request_detach(self, sb: int, nbytes: int) -> bool:
        rt = self.runtimes[sb]
        if rt.mem_pending:
            return False
        span = self.monitor.ledger.sandbox_span(sb)
        region = (span[1] - nbytes, span[1])
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        verdict = self.monitor.verify_region_legality(sb, region, "detach")
        if not verdict.approved:
            return False
        rt.account_to(self.engine.now_ns)
        cost = self.monitor.detach_memory(sb, region)
        self.ros.cma.free_range(region, sb)
        rt._attached_bytes = max(0, rt._attached_bytes - nbytes)
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost
        self._repredict(sb)
        return True

    # -- core adjustment ---------------------------------------------------------------

    def _request_core_increase(self, sb: int, core_class: Optional[str]) -> bool:
        rt = self.runtimes[sb]
        now = self.engine.now_ns
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        try:
            core_id = self.ros.pick_core(prefer=core_class)
        except ResourceBusy:
            self.engine.trace("ros", "core_request", {"sandbox": sb},
                              "rejected", "NoFreeCore")
            rt.hysteresis_until_ns = now + sos.HYSTERESIS_NS
            return False
        cost = self.monitor.transfer_core(
            core_id, ROS_CTX, sb,
            optimized=self.options.optimized_core_transfers,
        )
        cls = self.machine.cores[core_id].core_class.value
        rt.hysteresis_until_ns = now + cost + sos.HYSTERESIS_NS
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost

        def apply():
            r = self.runtimes.get(sb)
            if r is None or r.state != "running":
                return
            r.account_to(self.engine.now_ns)
            r.cores[core_id] = cls
            self._repredict(sb)

        self._later(cost, apply)
        return True

    def _request_core_release(self, sb: int, core_id: int) -> bool:
        rt = self.runtimes[sb]
        now = self.engine.now_ns
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        rt.account_to(now)
        cost = self.monitor.transfer_core(
            core_id, sb, ROS_CTX,
            optimized=self.options.optimized_core_transfers,
        )
        rt.cores.pop(core_id, None)
        rt.hysteresis_until_ns = now + cost + sos.HYSTERESIS_NS
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost
        self._repredict(sb)
        return True

    # -- peripherals ----------------------------------------------------------------------

    def request_peripheral(self, sb: int, dev_id: str) -> str:
        """Returns 'granted' or 'queued'."""
        rt = self.runtimes[sb]
        rt.require_running()
        if dev_id in rt.devices:
            raise BadState(f"sandbox {sb} already holds {dev_id}")
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        queue = self.dev_queues.setdefault(dev_id, [])
        if self.monitor.ledger.dev_owner[dev_id] == ROS_CTX and not queue:
            self._grant_device(sb, dev_id)
            return "granted"
        queue.append(sb)
        self.engine.trace("ros", "device_request",
                          {"sandbox": sb, "dev": dev_id}, "queued", "DeviceBusy")
        if not self.options.instant:
            self.engine.schedule(
                self.options.device_wait_timeout_ns,
                lambda: self._queue_timeout(sb, dev_id),
            )
        return "queued"

    def _queue_timeout(self, sb: int, dev_id: str) -> None:
        queue = self.dev_queues.get(dev_id, [])
        if sb in queue:
            queue.remove(sb)
            self.engine.trace("ros", "device_request",
                              {"sandbox": sb, "dev": dev_id}, "rejected",
                              "WaitTimeout")

    def _grant_device(self, sb: int, dev_id: str) -> None:
        rt = self.runtimes[sb]
        self.ros.prepare_peripheral(dev_id)
        cost = self.monitor.switch_peripheral(dev_id, ROS_CTX, sb)
        if not self.ros.driver_ok(dev_id):
            # Tampered driver blob: install fails, device goes straight back.
            self.ros.driver_states[(sb, dev_id)] = DRIVER_UNLOADED
            self.monitor.switch_peripheral(dev_id, sb, ROS_CTX, charge=False)
            frozen = self.ros.reclaim_peripheral(dev_id)
            if frozen is not None:
                self.metrics.frozen_gui_ns.append(frozen)
            self.engine.trace(f"sb{sb}", "driver_install", {"dev": dev_id},
                              "rejected", "IntegrityError")
            raise IntegrityError(f"driver for {dev_id} failed verification")
        self.ros.driver_states[(sb, dev_id)] = DRIVER_LOADED
        self.engine.trace(f"sb{sb}", "driver_install", {"dev": dev_id})
        self.engine.charge("ros", "ipi_ros_to_sb",
                           self.engine.costs.ipi_ros_to_sb_ns)
        desc = self.machine.config.peripheral(dev_id)

        def apply():
            r = self.runtimes.get(sb)
            if r is None or r.state != "running":
                return
            r.account_to(self.engine.now_ns)
            r.devices.add(dev_id)
            if desc.kind is DevKind.GPU:
                r.gpu_owned = True
            self._repredict(sb)

        self._later(cost, apply)

    def release_peripheral(self, sb: int, dev_id: str) -> None:
        rt = self.runtimes[sb]
        if dev_id not in rt.devices and \
                self.monitor.ledger.dev_owner[dev_id] != sb:
            raise BadState(f"sandbox {sb} does not hold {dev_id}")
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros",
                           self.engine.costs.ipi_sb_to_ros_ns)
        rt.account_to(self.engine.now_ns)
        rt.devices.discard(dev_id)
        desc = self.machine.config.peripheral(dev_id)
        if desc.kind is DevKind.GPU:
            rt.gpu_owned = False
        self.ros.driver_states[(sb, dev_id)] = DRIVER_UNLOADED
        self.monitor.switch_peripheral(dev_id, sb, ROS_CTX)
        frozen = self.ros.reclaim_peripheral(dev_id)
        if frozen is not None:
            self.metrics.frozen_gui_ns.append(frozen)
        self._repredict(sb)
        queue = self.dev_queues.get(dev_id, [])
        while queue:
            waiter = queue.pop(0)
            if self.state_of(waiter) == "running":
                try:
                    self._grant_device(waiter, dev_id)
                except IntegrityError:
                    # The device went straight back to ROS: try the next one.
                    continue
                break

    # -- data transfer ------------------------------------------------------------------------

    def send_data(self, sb: int, byte_count: int, direction: str) -> int:
        self.runtimes[sb].require_running()
        return self.ros.send_data(sb, byte_count, direction)

    # -- raw access probes (adversary support) ---------------------------------------------------

    def probe_translate(self, ctx: int, pa: int):
        cores = self.monitor.ledger.cores_of(ctx)
        if not cores:
            return None
        return self.machine.translate(cores[0], pa)

    def probe_read(self, ctx: int, pa: int) -> Tuple[bool, int]:
        """Direct load attempt: (reached_memory, leaked_bytes)."""
        res = self.probe_translate(ctx, pa)
        if res is None or not res.hit:
            self.engine.trace(f"ctx{ctx}", "raw_probe", {"pa": pa},
                              "blocked", "Stage2Fault")
            return False, 0
        # A successful foreign translation exposes at least the page around pa.
        leaked = PAGE_4K if self.classify_leak(ctx, pa) else 0
        self.engine.trace(f"ctx{ctx}", "raw_probe", {"pa": pa},
                          "ok" if not leaked else "leak")
        return True, leaked

    def probe_cache(self, ctx: int, pa: int) -> Tuple[bool, int]:
        """Cache-assisted read: needs a successful translation, then leaks
        line contents filled by someone else."""
        res = self.probe_translate(ctx, pa)
        if res is None or not res.hit:
            self.engine.trace(f"ctx{ctx}", "cache_probe", {"pa": pa},
                              "blocked", "Stage2Fault")
            return False, 0
        owner = self.machine.cache_lookup(pa)
        if owner is None:
            self.engine.trace(f"ctx{ctx}", "cache_probe", {"pa": pa}, "miss")
            return False, 0
        leaked = self.machine.config.cache_line_bytes if owner != ctx else 0
        self.engine.trace(f"ctx{ctx}", "cache_probe", {"pa": pa},
                          "hit" if not leaked else "leak")
        return True, leaked

    def dma_access(self, dev_id: str, ctx: int, target: Tuple[int, int]) -> int:
        """DMA read into/out of target range; returns leaked bytes."""
        allowed = self.monitor.smmu_check(dev_id, ctx, target)
        if not allowed:
            return 0
        if self.monitor.ledger.owns_range(ctx, target):
            return 0
        return target[1] - target[0]

    def classify_leak(self, ctx: int, pa: int) -> bool:
        kind = self.machine.classify(pa)
        if kind == "ram":
            return not self.monitor.ledger.owns_range(ctx, (pa, pa + 1))
        if kind == "mmio":
            for p in self.machine.config.peripherals:
                if p.mmio_range[0] <= pa < p.mmio_range[1]:
                    return self.monitor.ledger.dev_owner[p.dev_id] != ctx
        return False

    # -- digests and cloning -------------------------------------------------------------------

    def state_digest(self) -> str:
        return digest(self.canonical())

    STATE = Schema(
        options=SHARED, store=SHARED, payloads=SHARED,
        engine=reset(lambda eng: Engine(eng.costs)),
        metrics=reset(lambda _: Metrics()),
        attack_outcomes=reset(lambda _: []),
        machine=NESTED, monitor=NESTED, ros=NESTED,
        runtimes=keyed(
            lambda runtimes: tuple(rt.canonical()
                                   for _, rt in sorted(runtimes.items())
                                   if rt.state != "dead"),
            copy=clone_values,
        ),
        dev_queues=keyed(
            lambda queues: tuple(sorted((d, tuple(q))
                                        for d, q in queues.items() if q)),
            copy=lambda queues: {d: list(q) for d, q in queues.items()},
        ),
        _gen=copied("read only by completion events, which instant mode never "
                    "queues", copy=dict),
        after_clone=_rewire,
    )
    clone = STATE.clone
    canonical = STATE.canonical


def build_world(config: MachineConfig, costs: Optional[CostTable] = None,
                defenses: Optional[Defenses] = None, mode: str = "leap",
                layout: Optional[PoolLayout] = None,
                options: Optional[WorldOptions] = None,
                apps: Optional[List[Tuple[str, bytes]]] = None) -> World:
    world = World(config, costs, defenses, mode, layout, options)
    world.register_default_drivers()
    for app_id, payload in apps or []:
        world.register_app(app_id, payload)
    return world
