"""Composition root: one Machine, one Monitor, one ROS actor, the sandbox
runtimes, and the event plumbing between them.

Requests take effect in the ledger and stage-2 tables atomically when the
monitor handles them; their charged cost delays only when the requester can
*use* the result (boot completion, an arriving core, attached memory). In
instant mode (used by exploration) everything applies synchronously and the
clock is ignored.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import sos
from .engine import Engine
from .errors import (
    BadState,
    IntegrityError,
    NoAdjacentSpace,
    OutOfMemory,
    ResourceBusy,
)
from .hw_model import CACHE_LINE_BYTES, ROS_CTX, Machine, MachineConfig
from .monitor import DRIVER_LOADED, DRIVER_UNLOADED, Defenses, Monitor
from .ros import RosActor
from .secure_world import KeyStore
from .sos import SandboxRuntime
from .state import NESTED, SHARED, Schema, clone_values, copied, keyed, reset
from .units import MB, MS_NS, PAGE_4K, S_NS

# A queued device request is dropped if the device stays busy this long.
DEVICE_WAIT_TIMEOUT_NS = 5 * S_NS


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
    leaked_bytes: int = 0  # read by a probe or DMA from what its reader does not own

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
                 defenses: Optional[Defenses] = None,
                 mode: str = "leap", instant: bool = False, traced: bool = True,
                 apps: Iterable[Tuple[str, bytes]] = ()):
        self.instant = instant
        self.engine = Engine(traced)
        self.machine = Machine(config)
        self.store = KeyStore()
        self.monitor = Monitor(self.machine, self.store, self.engine,
                               defenses, mode)
        self.ros = RosActor(self.machine, self.monitor, self.store,
                            self.engine)
        self.runtimes: Dict[int, SandboxRuntime] = {}
        self.payloads: Dict[str, bytes] = {}
        self.metrics = Metrics()
        self.dev_queues: Dict[str, List[int]] = {}
        self.attack_outcomes: List = []
        self._completions: Dict[int, int] = {}
        for p in config.peripherals:
            self.ros.register_driver(p.dev_id, f"driver-{p.dev_id}".encode())
        for app_id, payload in apps:
            self.store.register_image(app_id, payload)
            self.payloads[app_id] = payload
            self.ros.stage_image(app_id, payload)

    # -- small helpers -------------------------------------------------------

    def state_of(self, sb: int) -> str:
        rt = self.runtimes.get(sb)
        return rt.state if rt else "dead"

    def _later(self, delay_ns: int, fn, *args) -> None:
        if self.instant:
            fn(*args)
        else:
            self.engine.schedule(delay_ns, fn, *args)

    # -- sandbox lifecycle -----------------------------------------------------

    def create_sandbox(self, app_id: str, max_cores: int = 1,
                       max_memory: int = 512 * MB,
                       core_pref: Optional[str] = None,
                       base_bytes: Optional[int] = None,
                       workload=None, image=None) -> int:
        sb, boot_ns = self.ros.create_sandbox(
            app_id, max_cores=max_cores, max_memory=max_memory,
            core_pref=core_pref, base_bytes=base_bytes, image=image,
        )
        meta = self.monitor.sandboxes[sb]
        rt = SandboxRuntime(
            sb, max_cores=max_cores, max_memory=max_memory,
            boot_core=meta.boot_core,
            boot_core_class=self.machine.cores[meta.boot_core].value,
            base_bytes=meta.base_bytes,
            workload=workload,
            mem_granule=self.ros.layout.mem_granule,
        )
        self.runtimes[sb] = rt
        self.metrics.max_concurrent = max(
            self.metrics.max_concurrent, len(self.monitor.sandboxes)
        )
        self._later(boot_ns, self._boot_done, sb)
        return sb

    def _boot_done(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "booting":
            return
        rt.advance("running")
        rt.start_work(self.engine.now_ns)
        self.engine.trace(f"sb{sb}", "running")
        if not self.instant:
            self.engine.schedule(sos.USAGE_SAMPLE_NS, self._tick, sb)
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
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        cost, returned = self.monitor.teardown(sb, state_of=self.state_of)
        for dev in returned:
            # Forced returns during teardown leave the ROS driver unloaded.
            if self.ros.driver_states.get((ROS_CTX, dev)) != DRIVER_LOADED:
                frozen = self.ros.reclaim_peripheral(dev)
                if frozen is not None:
                    self.metrics.frozen_gui_ns.append(frozen)
        self.ros.release_sandbox_memory(sb)
        rt.cores.clear()
        self.engine.cancel(self._completions.pop(sb, None))
        self._later(cost, self._dead, sb)

    def set_workload(self, sb: int, workload) -> None:
        """Replace the sandbox's workload; a running sandbox starts it now."""
        rt = self.runtimes[sb]
        rt.workload = workload
        if rt.state == "running":
            rt.start_work(self.engine.now_ns)
            self._repredict(sb)

    def _dead(self, sb: int) -> None:
        # A dead sandbox leaves no runtime: `state_of` reads it as dead.
        self.engine.trace(f"sb{sb}", "dead")
        del self.runtimes[sb]

    # -- periodic runtime work ---------------------------------------------------

    def _tick(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running":
            return
        now = self.engine.now_ns
        tick = sos.USAGE_SAMPLE_NS
        rt.account_to(now)
        busy = rt.busy()
        busy_ns = self._busy_ns(rt, now, busy)
        rt.sample_usage(now, busy_ns)
        working_set = rt.working_set_bytes()
        # What this tick's utilization sample reads, before any request
        # changes it; the sample is added once, for this tick and the folded.
        alloc, ncores = self.monitor.ledger.sandbox_size(sb), len(rt.cores)
        used = min(alloc, rt.used_bytes(working_set))
        mem_req = rt.monitor_memory(working_set)
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
            folded = self._quiescent_ticks(rt, now, busy, busy_ns)
            if folded:
                rt.account_to(now + folded * tick)
                rt.usage.repeat_last(folded)
        self._add_utilization(used, alloc, busy_ns, ncores, 1 + folded)
        self.engine.schedule((1 + folded) * tick, self._tick, sb)

    def _busy_ns(self, rt: SandboxRuntime, now: int, busy: bool) -> int:
        """Busy time of rt in the tick window that ends at now; busy: whether
        rt has work left."""
        busy_start = max(now - sos.USAGE_SAMPLE_NS, rt.work_started_ns or now)
        busy_end = now if busy or rt.work_finished_ns is None \
            else min(now, rt.work_finished_ns)
        return max(0, busy_end - busy_start)

    def _quiescent_ticks(self, rt: SandboxRuntime, now: int, busy: bool,
                         busy_ns: int) -> int:
        """How many of the ticks after the one at now would repeat it exactly.

        A tick that raised no request leaves everything the next tick reads
        unchanged but the clock and the usage window, to which each later
        tick appends this tick's sample. So the next ticks repeat it as long
        as no other event runs in between, the CPU monitor raises nothing on
        the growing window once hysteresis is over (`ticks_before_request`),
        and a busy sandbox keeps its working set. The fold stops before the
        engine's next queued event (an event at the same time runs first, so
        that tick stays real), at the end of the current run_until, one tick
        before the CPU monitor's first request and, for a busy sandbox,
        strictly before the tick at which the run of chunks over its working
        set runs out at the current rate. The caller adds the folded ticks'
        samples and utilization integrals and accounts their work with
        `account_to`: at a fixed rate and cache that work is linear in time,
        across chunk ends too, so that is exact.
        """
        tick = sos.USAGE_SAMPLE_NS
        count = (self.engine.end_ns - now) // tick
        next_ns = self.engine.next_event_ns
        if next_ns is not None:
            count = min(count, (next_ns - now - 1) // tick)
        if count <= 0:
            return 0
        # Busy time per window is monotone once work is over, and a full
        # window while the work runs, so equal at the next tick means equal
        # at every later one.
        if self._busy_ns(rt, now + tick, busy) != busy_ns:
            return 0
        if busy:
            # A rate of 0 or less does no work, so any bound holds there.
            step = max(1, rt.rate_mu_ms()) * tick
            count = min(count, (rt.working_set_left_scaled() - 1) // step)
        return rt.ticks_before_request(now, count)

    def _add_utilization(self, used: int, alloc: int, busy_ns: int, ncores: int,
                         ticks: int) -> None:
        span, m = sos.USAGE_SAMPLE_NS * ticks, self.metrics
        m.mem_used_integral += used * span
        m.mem_alloc_integral += alloc * span
        m.core_busy_integral += busy_ns * ticks * ncores
        m.core_alloc_integral += span * ncores

    def _repredict(self, sb: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running" or self.instant:
            return
        eta = rt.finish_eta_ns()
        if eta is None:
            return
        self.engine.cancel(self._completions.pop(sb, None))
        self._completions[sb] = self.engine.schedule(eta, self._completion, sb)

    def _completion(self, sb: int) -> None:
        del self._completions[sb]
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running":
            return
        rt.account_to(self.engine.now_ns)
        if rt.busy():
            self._repredict(sb)
            return
        if rt.work_finished_ns is not None:
            dur = rt.work_finished_ns - rt.work_started_ns
            self.metrics.completion_ns[sb] = dur
            self.engine.trace(f"sb{sb}", "workload_complete",
                              {"duration_ns": dur})

    # -- memory adjustment ----------------------------------------------------------

    def attach_region(self, sb: int, nbytes: int) -> Optional[Tuple[int, int]]:
        """The free region next to sb's that `_request_attach` asks for, or
        None if no region of nbytes adjoins it."""
        try:
            return self.ros.cma.find(nbytes, self.monitor.ledger.sandbox_span(sb))
        except (NoAdjacentSpace, OutOfMemory):
            return None

    def detach_region(self, sb: int, nbytes: int) -> Tuple[int, int]:
        """The top nbytes of sb's memory, which `_request_detach` asks for."""
        end = self.monitor.ledger.sandbox_span(sb)[1]
        return (end - nbytes, end)

    def _request_attach(self, sb: int, nbytes: int) -> bool:
        rt = self.runtimes[sb]
        if rt.mem_pending:
            return False
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        region = self.attach_region(sb, nbytes)
        if region is None:
            self.engine.trace("ros", "attach_request", {"sandbox": sb},
                              "rejected", "NoAdjacentSpace")
            return False
        self.ros.alloc_contiguous(region, owner=sb)
        verdict, cost = self.monitor.attach_memory(sb, region)
        if not verdict.approved:
            self.ros.cma.free(region)
            return False
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost
        rt.mem_pending = True
        self._later(cost, self._memory_arrived, sb, nbytes)
        return True

    def _memory_arrived(self, sb: int, nbytes: int) -> None:
        rt = self.runtimes.get(sb)
        if rt is None:
            return
        rt.mem_pending = False
        if rt.state not in ("booting", "running"):
            return
        rt.account_to(self.engine.now_ns)
        rt._attached_bytes += nbytes
        self._repredict(sb)

    def _request_detach(self, sb: int, nbytes: int) -> bool:
        rt = self.runtimes[sb]
        if rt.mem_pending:
            return False
        region = self.detach_region(sb, nbytes)
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        verdict, cost = self.monitor.detach_memory(sb, region)
        if not verdict.approved:
            return False
        rt.account_to(self.engine.now_ns)
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
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        try:
            core_id = self.ros.pick_core(prefer=core_class)
        except ResourceBusy:
            self.engine.trace("ros", "core_request", {"sandbox": sb},
                              "rejected", "NoFreeCore")
            rt.hysteresis_until_ns = now + sos.HYSTERESIS_NS
            return False
        cost = self.monitor.transfer_core(core_id, ROS_CTX, sb)
        cls = self.machine.cores[core_id].value
        rt.hysteresis_until_ns = now + cost + sos.HYSTERESIS_NS
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost
        self._later(cost, self._core_arrived, sb, core_id, cls)
        return True

    def _core_arrived(self, sb: int, core_id: int, cls: str) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running":
            return
        rt.account_to(self.engine.now_ns)
        rt.cores[core_id] = cls
        self._repredict(sb)

    def _request_core_release(self, sb: int, core_id: int) -> bool:
        rt = self.runtimes[sb]
        now = self.engine.now_ns
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        rt.account_to(now)
        cost = self.monitor.transfer_core(core_id, sb, ROS_CTX)
        rt.cores.pop(core_id, None)
        rt.hysteresis_until_ns = now + cost + sos.HYSTERESIS_NS
        self.metrics.adjust_count += 1
        self.metrics.adjust_latency_ns += cost
        self._repredict(sb)
        return True

    def release_surplus_core(self, sb: int) -> bool:
        """Give back the sandbox's first core beyond its boot core, if any."""
        surplus = self.runtimes[sb].surplus_cores()
        return bool(surplus) and self._request_core_release(sb, surplus[0])

    # -- peripherals ----------------------------------------------------------------------

    def request_peripheral(self, sb: int, dev_id: str) -> str:
        """Returns 'granted' or 'queued'."""
        rt = self.runtimes[sb]
        rt.require_running()
        if dev_id in rt.devices:
            raise BadState(f"sandbox {sb} already holds {dev_id}")
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        if self.monitor.ledger.dev_owner[dev_id] == ROS_CTX and \
                dev_id not in self.dev_queues:
            self._grant_device(sb, dev_id)
            return "granted"
        self.dev_queues.setdefault(dev_id, []).append(sb)
        self.engine.trace("ros", "device_request",
                          {"sandbox": sb, "dev": dev_id}, "queued", "DeviceBusy")
        if not self.instant:
            self.engine.schedule(DEVICE_WAIT_TIMEOUT_NS, self._queue_timeout,
                                 sb, dev_id)
        return "queued"

    def _queue_timeout(self, sb: int, dev_id: str) -> None:
        queue = self.dev_queues.get(dev_id, [])
        if sb in queue:
            queue.remove(sb)
            if not queue:
                del self.dev_queues[dev_id]
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
        self.engine.charge("ros", "ipi_ros_to_sb")
        self._later(cost, self._device_arrived, sb, dev_id)

    def _device_arrived(self, sb: int, dev_id: str) -> None:
        rt = self.runtimes.get(sb)
        if rt is None or rt.state != "running":
            return
        rt.account_to(self.engine.now_ns)
        rt.devices[dev_id] = self.machine.config.peripheral(dev_id).kind.value
        self._repredict(sb)

    def release_peripheral(self, sb: int, dev_id: str) -> None:
        rt = self.runtimes[sb]
        if dev_id not in rt.devices and self.monitor.ledger.dev_owner[dev_id] != sb:
            raise BadState(f"sandbox {sb} does not hold {dev_id}")
        self.engine.charge(f"sb{sb}", "ipi_sb_to_ros")
        rt.account_to(self.engine.now_ns)
        rt.devices.pop(dev_id, None)
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
        if not queue:
            self.dev_queues.pop(dev_id, None)

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

    def probe_reaches(self, ctx: int, pa: int) -> bool:
        """Whether probe_translate(ctx, pa) would hit; changes nothing."""
        cores = self.monitor.ledger.cores_of(ctx)
        return bool(cores) and self.machine.lookup(cores[0], pa)[0].hit

    def probe_read(self, ctx: int, pa: int) -> Tuple[bool, int]:
        """Direct load attempt: (reached_memory, leaked_bytes)."""
        res = self.probe_translate(ctx, pa)
        if res is None or not res.hit:
            self.engine.trace(f"ctx{ctx}", "raw_probe", {"pa": pa},
                              "blocked", "Stage2Fault")
            return False, 0
        # A successful foreign translation exposes at least the page around pa.
        leaked = PAGE_4K if self.classify_leak(ctx, pa) else 0
        self.metrics.leaked_bytes += leaked
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
        leaked = CACHE_LINE_BYTES if owner != ctx else 0
        self.metrics.leaked_bytes += leaked
        self.engine.trace(f"ctx{ctx}", "cache_probe", {"pa": pa},
                          "hit" if not leaked else "leak")
        return True, leaked

    def dma_reaches(self, dev_id: str, ctx: int, target: Tuple[int, int]) -> bool:
        """Whether the SMMU lets dev, for ctx, reach memory in target that
        ctx does not own; changes nothing on an untraced world."""
        return self.monitor.smmu_check(dev_id, ctx, target) and \
            not self.monitor.ledger.owns_range(ctx, target)

    def dma_access(self, dev_id: str, ctx: int, target: Tuple[int, int]) -> int:
        """DMA read into/out of target range; returns leaked bytes."""
        leaked = target[1] - target[0] if self.dma_reaches(dev_id, ctx, target) else 0
        self.metrics.leaked_bytes += leaked
        return leaked

    def classify_leak(self, ctx: int, pa: int) -> bool:
        if pa < self.machine.config.ram_bytes:
            return not self.monitor.ledger.owns_range(ctx, (pa, pa + 1))
        dev = self.machine.config.device_at(pa)
        return dev is not None and self.monitor.ledger.dev_owner[dev] != ctx

    # -- cloning -------------------------------------------------------------------------------

    STATE = Schema(
        instant=SHARED, store=SHARED, payloads=SHARED,
        engine=reset(lambda eng: Engine(eng.records is not None)),
        metrics=reset(lambda _: Metrics()),
        attack_outcomes=reset(lambda _: []),
        machine=NESTED, monitor=NESTED, ros=NESTED,
        runtimes=keyed(
            lambda runtimes: tuple(rt.canonical()
                                   for _, rt in sorted(runtimes.items())),
            copy=clone_values,
        ),
        dev_queues=keyed(
            lambda queues: tuple(sorted((d, tuple(q))
                                        for d, q in queues.items())),
            copy=lambda queues: {d: list(q) for d, q in queues.items()},
        ),
        _completions=copied("each sandbox's queued completion event, by its "
                            "engine number; instant mode queues none", copy=dict),
        after_clone=_rewire,
    )
    clone = STATE.clone
    canonical = STATE.canonical
