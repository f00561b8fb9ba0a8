"""Scenario files: a line-oriented text format with a versioned header,
key-value sections, and a timed directive list.

The same dataclasses serve the parser, the serializer (round-trip safe),
the honest-scenario generator, and the runner that executes a scenario on a
fresh world and produces trace plus metrics.
"""

import hashlib
import random
import shlex
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import adversary
from .adversary import AttackKind, AttackScenario, check_invariants
from .engine import CostTable
from .errors import ParseError, SimError, ValidationError
from .hw_model import (
    CoreClass,
    DevKind,
    MachineConfig,
    PeripheralDesc,
    default_config,
)
from .monitor import MUTATION_FLAGS, Defenses
from .sos import CipherQuery, Idle, InferenceBatch
from .units import (
    S_NS,
    format_duration_ns,
    format_size,
    parse_duration_ns,
    parse_size,
)
from .world import World, build_world

HEADER = "teesim-scenario"
VERSION = 1

HEADER_KEYS = ("seed", "mode", "horizon", "mutate")
MACHINE_KEYS = ("ram", "io_window")
PERIPHERAL_KEYS = frozenset(("kind", "mmio"))
PERIPHERAL_FLAGS = ("dma", "shared_driver", "always_busy")
# The key=value arguments each directive reads, and those each workload kind
# reads where `create` or `workload` names it; positionals are not listed.
DIRECTIVE_KEYS = {
    "create": ("app", "cores", "memory", "core", "base"),
    "add_core": ("core",),
    "attack": ("victim", "requester", "target", "holder", "dev", "app"),
}
WORKLOAD_KEYS = {
    "inference": ("images", "units", "serial", "gpu_speedup"),
    "cipher": ("files", "queries", "cache", "scan", "miss"),
}


@dataclass(frozen=True)
class Directive:
    at_ns: int
    kind: str
    args: Tuple[Tuple[str, str], ...]

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return dict(self.args).get(key, default)


@dataclass(frozen=True)
class Scenario:
    machine: MachineConfig
    seed: int = 0
    mode: str = "leap"
    horizon_ns: int = 10 * S_NS
    mutations: Tuple[str, ...] = ()
    cost_overrides: Tuple[Tuple[str, float], ...] = ()
    apps: Tuple[Tuple[str, str], ...] = ()
    timeline: Tuple[Directive, ...] = ()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(s: Scenario) -> str:
    lines = [f"{HEADER} v{VERSION}"]
    lines.append(f"seed = {s.seed}")
    lines.append(f"mode = {s.mode}")
    lines.append(f"horizon = {format_duration_ns(s.horizon_ns)}")
    if s.mutations:
        lines.append("mutate = " + ",".join(s.mutations))
    lines.append("")
    lines.append("[machine]")
    m = s.machine
    lines.append(f"ram = {format_size(m.ram_bytes)}")
    lines.append(f"io_window = {format_size(m.io_window[0])}:"
                 f"{format_size(m.io_window[1])}")
    for cid, cls in m.cores:
        lines.append(f"core {cid} {cls.value}")
    for p in m.peripherals:
        flags = [f for f, on in zip(PERIPHERAL_FLAGS, (
            p.dma_capable, not p.independent, p.always_busy_in_ros)) if on]
        lines.append(
            f"peripheral {p.dev_id} kind={p.kind.value} "
            f"mmio={format_size(p.mmio_range[0])}:{format_size(p.mmio_range[1])}"
            + ("".join(" " + f for f in flags))
        )
    if s.cost_overrides:
        lines.append("")
        lines.append("[costs]")
        for name, value in s.cost_overrides:
            lines.append(f"{name} = {value:g}")
    lines.append("")
    lines.append("[apps]")
    for app_id, payload in s.apps:
        lines.append(f"app {app_id} {shlex.quote(payload)}")
    lines.append("")
    lines.append("[timeline]")
    for d in s.timeline:
        parts = [f"at {format_duration_ns(d.at_ns)} {d.kind}"]
        for k, v in d.args:
            parts.append(f"{k}={v}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse(text: str) -> Scenario:
    header: Dict[str, str] = {}
    mutations: Tuple[str, ...] = ()
    machine_lines: List[Tuple[int, str]] = []
    costs: List[Tuple[str, float]] = []
    apps: List[Tuple[str, str]] = []
    timeline: List[Directive] = []

    section = None
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith(HEADER):
        raise ParseError(f"missing '{HEADER} v{VERSION}' header", line=1, col=1)
    version = lines[0].strip()[len(HEADER):].strip()
    if version != f"v{VERSION}":
        raise ParseError(f"unsupported version {version!r}", line=1)

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("machine", "costs", "apps", "timeline"):
                raise ParseError(f"unknown section [{section}]", line=lineno, col=1)
            continue
        if section is None:
            key, value = _split_kv(line, lineno)
            if key not in HEADER_KEYS:
                raise ParseError(f"unknown header key {key!r}", line=lineno, col=1)
            header[key] = value
            if key == "mutate":
                mutations = tuple(f for f in value.split(",") if f)
                for f in mutations:
                    if f not in MUTATION_FLAGS:
                        raise ParseError(f"unknown mutation flag {f!r}", line=lineno)
        elif section == "machine":
            machine_lines.append((lineno, line))
        elif section == "costs":
            key, value = _split_kv(line, lineno)
            try:
                costs.append((key, float(value)))
            except ValueError:
                raise ParseError(f"bad cost value {value!r}", line=lineno) from None
        elif section == "apps":
            try:
                tokens = shlex.split(line)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if len(tokens) != 3 or tokens[0] != "app":
                raise ParseError("expected: app <id> <payload>", line=lineno)
            apps.append((tokens[1], tokens[2]))
        elif section == "timeline":
            timeline.append(_parse_directive(line, lineno))

    machine = _parse_machine(machine_lines)
    scenario = Scenario(
        machine=machine,
        seed=int(header.get("seed", "0"), 0),
        mode=header.get("mode", "leap"),
        horizon_ns=parse_duration_ns(header.get("horizon", "10s")),
        mutations=mutations,
        cost_overrides=tuple(costs),
        apps=tuple(apps),
        timeline=tuple(timeline),
    )
    validate(scenario)
    return scenario


def _split_kv(line: str, lineno: int) -> Tuple[str, str]:
    if "=" not in line:
        raise ParseError("expected 'key = value'", line=lineno,
                         col=len(line) + 1)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _parse_machine(machine_lines) -> MachineConfig:
    if not machine_lines:
        return default_config()
    fields = {}
    cores: List[Tuple[int, CoreClass]] = []
    peripherals: List[PeripheralDesc] = []
    for lineno, line in machine_lines:
        if line.startswith("core "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected: core <id> <big|little>", line=lineno)
            try:
                cores.append((int(parts[1]), CoreClass(parts[2])))
            except ValueError:
                raise ParseError(f"bad core spec {line!r}", line=lineno) from None
        elif line.startswith("peripheral "):
            parts = line.split()
            dev_id = parts[1]
            kv = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
            flags = {p for p in parts[2:] if "=" not in p}
            if not (PERIPHERAL_KEYS.issuperset(kv) and flags.issubset(PERIPHERAL_FLAGS)):
                raise ParseError(f"unknown peripheral key or flag in {line!r}",
                                 line=lineno)
            try:
                kind = DevKind(kv.get("kind", "other"))
                lo, hi = kv["mmio"].split(":")
                rng = (parse_size(lo), parse_size(hi))
            except (KeyError, ValueError):
                raise ParseError(f"bad peripheral spec {line!r}",
                                 line=lineno) from None
            peripherals.append(PeripheralDesc(
                dev_id, kind, rng,
                dma_capable="dma" in flags,
                independent="shared_driver" not in flags,
                always_busy_in_ros="always_busy" in flags,
            ))
        elif "=" in line:
            key, value = _split_kv(line, lineno)
            if key not in MACHINE_KEYS:
                raise ParseError(f"unknown machine key {key!r}", line=lineno, col=1)
            fields[key] = value
        else:
            raise ParseError(f"unrecognized machine line {line!r}", line=lineno)
    base = default_config()
    return MachineConfig(
        ram_bytes=parse_size(fields["ram"]) if "ram" in fields else base.ram_bytes,
        io_window=tuple(parse_size(x) for x in fields["io_window"].split(":"))
        if "io_window" in fields else base.io_window,
        cores=tuple(cores) if cores else base.cores,
        peripherals=tuple(peripherals) if peripherals else base.peripherals,
    )


def _parse_directive(line: str, lineno: int) -> Directive:
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != "at":
        raise ParseError("expected: at <time> <directive> ...", line=lineno, col=1)
    try:
        at_ns = parse_duration_ns(tokens[1])
    except ValueError:
        raise ParseError(f"bad time {tokens[1]!r}", line=lineno,
                         col=len("at ") + 1) from None
    kind = tokens[2]
    # Positional tokens (bare, or `tok=` as `serialize` writes them) are
    # stored as empty-valued args; directives read them in order.
    args = tuple([tok.partition("=")[::2] for tok in tokens[3:]])
    allowed = DIRECTIVE_KEYS.get(kind, ())
    if kind in ("create", "workload"):
        pos = [k for k, v in args if not v]
        if len(pos) > 1:
            allowed += WORKLOAD_KEYS.get(pos[1], ())
    for k, v in args:
        if v and k not in allowed:
            raise ParseError(f"unknown {kind} argument {k!r}", line=lineno)
    return Directive(at_ns, kind, args)


def validate(s: Scenario) -> None:
    s.machine.validate()
    if s.mode not in ("leap", "tzasc"):
        raise ValidationError(f"unknown mode {s.mode!r}")
    app_ids = {a for a, _ in s.apps}
    devs = {p.dev_id for p in s.machine.peripherals}
    handles = set()
    last = -1
    for d in s.timeline:
        if d.at_ns < last:
            raise ValidationError("timeline directives must be time-sorted")
        last = d.at_ns
        pos = _positional(d)
        if d.kind == "create":
            if not pos:
                raise ValidationError("create needs a handle")
            app = d.get("app")
            if app not in app_ids:
                raise ValidationError(f"create references unknown app {app!r}")
            handles.add(pos[0])
        elif d.kind in ("workload", "send", "request_dev", "release_dev",
                        "attach", "detach", "add_core", "release_core",
                        "terminate"):
            if not pos or pos[0] not in handles:
                raise ValidationError(
                    f"directive {d.kind} references unknown handle "
                    f"{pos[0] if pos else '?'}"
                )
            if d.kind in ("request_dev", "release_dev"):
                if len(pos) < 2 or pos[1] not in devs:
                    raise ValidationError(
                        f"{d.kind} references unknown device "
                        f"{pos[1] if len(pos) > 1 else '?'}"
                    )
        elif d.kind == "attack":
            if not pos:
                raise ValidationError("attack needs a kind")
            try:
                AttackKind(pos[0])
            except ValueError:
                raise ValidationError(f"unknown attack kind {pos[0]!r}") from None
        else:
            raise ValidationError(f"unknown directive {d.kind!r}")
        try:
            _values(d)
        except ValueError as exc:
            raise ValidationError(f"bad {d.kind} argument: {exc}") from None
        except IndexError:
            raise ValidationError(f"{d.kind} is missing an argument") from None


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    scenario: Scenario
    world: World
    handles: Dict[str, int]
    violations: List[adversary.ViolationReport]
    trace_text: Optional[str] = None
    trace_digest: Optional[str] = None

    @property
    def exit_code(self) -> int:
        unblocked = any(not o.blocked for o in self.world.attack_outcomes)
        return 1 if (self.violations or unblocked) else 0

    def metrics(self) -> dict:
        return self.world.metrics.as_dict(self.trace_digest or "")


def run_scenario(scenario: Scenario, with_trace: bool = True,
                 check_each_directive: bool = True) -> RunResult:
    costs = CostTable().with_overrides(dict(scenario.cost_overrides))
    world = build_world(
        scenario.machine,
        costs=costs,
        defenses=Defenses.with_mutations(scenario.mutations),
        mode=scenario.mode,
        apps=[(a, p.encode()) for a, p in scenario.apps],
    )
    handles: Dict[str, int] = {}
    violations: List[adversary.ViolationReport] = []

    def execute(d: Directive):
        try:
            _apply_directive(world, handles, d)
        except SimError as exc:
            world.engine.trace("system", d.kind, dict(d.args), "rejected",
                               type(exc).__name__)
        if check_each_directive:
            violations.extend(check_invariants(world))

    for d in scenario.timeline:
        world.engine.schedule(d.at_ns, lambda d=d: execute(d))
    world.engine.run_until(scenario.horizon_ns)
    violations.extend(check_invariants(world))

    result = RunResult(scenario, world, handles, violations)
    if with_trace:
        header = {"scenario": serialize(scenario), "seed": scenario.seed}
        result.trace_text = world.engine.serialize_trace(header)
        result.trace_digest = hashlib.sha256(result.trace_text.encode()).hexdigest()
    return result


def _positional(d: Directive) -> List[str]:
    return [k for k, v in d.args if v == ""]


def _values(d: Directive) -> tuple:
    """The typed arguments, after the handle, that a create, workload, send,
    attach or detach directive passes on; a malformed value raises
    ValueError or IndexError."""
    pos = _positional(d)
    if d.kind == "create":
        base = d.get("base")
        return (d.get("app"), int(d.get("cores", "1")),
                parse_size(d.get("memory", "512M")), d.get("core"),
                parse_size(base) if base else None, _parse_workload(d, 1))
    if d.kind == "workload":
        return (_parse_workload(d, 1) or Idle(),)
    if d.kind == "send":
        if pos[1] not in ("to_sandbox", "to_ros"):
            raise ValueError(f"unknown direction {pos[1]!r}")
        return (int(pos[2], 0) if len(pos) > 2 else 0, pos[1])
    if d.kind in ("attach", "detach"):
        return (parse_size(pos[1]),)
    return ()


def _apply_directive(world: World, handles: Dict[str, int], d: Directive) -> None:
    pos = _positional(d)
    if d.kind == "create":
        handles[pos[0]] = world.create_sandbox(*_values(d))
        return
    if d.kind == "attack":
        params = []
        for key in ("victim", "requester", "target", "holder"):
            if d.get(key) in handles:
                params.append((key, handles[d.get(key)]))
        if d.get("dev"):
            params.append(("dev", d.get("dev")))
        if d.get("app"):
            params.append(("app", d.get("app")))
        adversary.run_attack(
            world, AttackScenario(AttackKind(pos[0]), tuple(params))
        )
        return
    sb = handles.get(pos[0])
    if sb is None or world.state_of(sb) == "dead":
        world.engine.trace("system", d.kind, dict(d.args), "skipped",
                           "NoSuchSandbox")
        return
    if d.kind == "workload":
        rt = world.runtimes[sb]
        rt.workload = _values(d)[0]
        rt.remaining_scaled = (
            rt.workload.total_scaled()
            if isinstance(rt.workload, InferenceBatch) else 0
        )
        rt.work_finished_ns = None
        if rt.state == "running":
            rt.start_work(world.engine.now_ns)
            world._repredict(sb)
    elif d.kind == "send":
        world.send_data(sb, *_values(d))
    elif d.kind == "request_dev":
        world.request_peripheral(sb, pos[1])
    elif d.kind == "release_dev":
        world.release_peripheral(sb, pos[1])
    elif d.kind == "attach":
        world._request_attach(sb, *_values(d))
    elif d.kind == "detach":
        world._request_detach(sb, *_values(d))
    elif d.kind == "add_core":
        world._request_core_increase(sb, d.get("core"))
    elif d.kind == "release_core":
        surplus = world.runtimes[sb].surplus_cores()
        if surplus:
            world._request_core_release(sb, surplus[0])
    elif d.kind == "terminate":
        world.terminate(sb)


def _parse_workload(d: Directive, pos_index: int):
    pos = _positional(d)
    if len(pos) <= pos_index:
        return None
    wkind = pos[pos_index]
    if wkind == "inference":
        return InferenceBatch(
            images=int(d.get("images", "1")),
            units_per_image=int(d.get("units", "500")),
            parallelizable=d.get("serial") is None and "serial" not in pos,
            gpu_speedup_pct=int(round(float(d.get("gpu_speedup", "3.57")) * 100)),
        )
    if wkind == "cipher":
        sizes = tuple(parse_size(x) for x in d.get("files", "16M").split(","))
        return CipherQuery(
            file_sizes=sizes,
            queries_per_file=int(d.get("queries", "10")),
            cache_base_bytes=parse_size(d.get("cache", "10M")),
            scan_units_per_mb=int(d.get("scan", "10")),
            miss_units_per_mb=int(d.get("miss", "50")),
        )
    if wkind == "idle":
        return Idle()
    raise ValidationError(f"unknown workload {wkind!r}")


# ---------------------------------------------------------------------------
# Honest scenario generator
# ---------------------------------------------------------------------------

WORKLOAD_POOL = (
    "inference images=3 units=200",
    "inference images=8 units=150",
    "inference images=5 units=100 serial",
    "cipher files=20M,40M queries=3 cache=10M",
    "idle",
)


def make_random_scenario(seed: int) -> Scenario:
    """Deterministic random honest scenario on the default machine: a few
    sandboxes, mixed workloads, transfers, peripheral traffic, terminations."""
    rng = random.Random(seed)
    n_sandboxes = rng.randint(1, 3)
    horizon_ms = rng.randint(1800, 2600)
    lines: List[str] = []
    apps = (("app0", f"payload-{seed}"),)
    t = 0
    handles = []
    for i in range(n_sandboxes):
        t += rng.randint(0, 80)
        h = f"sb{i + 1}"
        handles.append(h)
        cores = rng.randint(1, 2)
        wl = rng.choice(WORKLOAD_POOL)
        lines.append((t, f"create {h} app=app0 cores={cores} memory=256M"))
        lines.append((t, f"workload {h} {wl}"))
    devices = ["wifi", "bluetooth"]
    t = max(t, 650)  # past boot, so runtime-level directives mostly land
    for _ in range(rng.randint(0, 6)):
        t += rng.randint(50, 300)
        h = rng.choice(handles)
        action = rng.randrange(5)
        if action == 0:
            lines.append((t, f"send {h} to_sandbox {rng.choice([0, 65536, 1048576])}"))
        elif action == 1:
            lines.append((t, f"send {h} to_ros {rng.choice([4096, 262144])}"))
        elif action == 2:
            dev = rng.choice(devices)
            lines.append((t, f"request_dev {h} {dev}"))
            t_rel = t + rng.randint(100, 400)
            lines.append((t_rel, f"release_dev {h} {dev}"))
            t = t_rel
        elif action == 3:
            lines.append((t, f"attach {h} 16M"))
        else:
            lines.append((t, f"add_core {h}"))
    if rng.random() < 0.5 and handles:
        t += rng.randint(100, 300)
        lines.append((t, f"terminate {rng.choice(handles)}"))
    body = [f"{HEADER} v{VERSION}", f"seed = {seed}", "mode = leap",
            f"horizon = {max(horizon_ms, t + 200)}ms", "", "[apps]"]
    for app_id, payload in apps:
        body.append(f"app {app_id} {shlex.quote(payload)}")
    body.append("")
    body.append("[timeline]")
    for at_ms, directive in sorted(lines, key=lambda x: x[0]):
        body.append(f"at {at_ms}ms {directive}")
    return parse("\n".join(body) + "\n")
