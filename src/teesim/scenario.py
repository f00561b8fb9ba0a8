"""Scenario files: a line-oriented text format with a versioned header,
key-value sections, and a timed directive list.

The same dataclasses serve the parser, the serializer (round-trip safe),
the honest-scenario generator, and the runner that executes a scenario on a
fresh world and produces trace plus metrics.
"""

import dataclasses
import hashlib
import random
import shlex
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import adversary
from .adversary import AttackKind, check_invariants
from .errors import NoSuchSandbox, ParseError, SimError, ValidationError
from .hw_model import (
    CoreClass,
    DevKind,
    MachineConfig,
    PeripheralDesc,
    default_config,
)
from .monitor import Defenses
from .sos import DEFAULT_GPU_SPEEDUP_PCT, CipherQuery, Idle, InferenceBatch
from .units import (
    MB,
    S_NS,
    format_duration_ns,
    format_size,
    parse_duration_ns,
    parse_size,
)
from .world import World

HEADER = "teesim-scenario"
VERSION = 1


def _size_range(text: str) -> Tuple[int, int]:
    lo, hi = text.split(":")
    return parse_size(lo), parse_size(hi)


def _flags(text: str) -> Tuple[str, ...]:
    flags = tuple(f for f in text.split(",") if f)
    Defenses.with_mutations(flags)  # ValueError on an unknown flag
    return flags


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("must be true or false")
    return text == "true"


# Each header and machine key with the field it sets, in Scenario or
# MachineConfig, and the reader of its value (ValueError if malformed).
HEADER_KEYS = {"seed": ("seed", lambda v: int(v, 0)), "mode": ("mode", str),
               "horizon": ("horizon_ns", parse_duration_ns),
               "mutate": ("mutations", _flags), "instant": ("instant", _bool)}
MACHINE_KEYS = {"ram": ("ram_bytes", parse_size),
                "io_window": ("io_window", _size_range)}
PERIPHERAL_KEYS = frozenset(("kind", "mmio"))
PERIPHERAL_FLAGS = ("dma", "shared_driver", "always_busy")


# ---------------------------------------------------------------------------
# Directive vocabulary
# ---------------------------------------------------------------------------

# Name types, whose values must be one of a set: a handle an earlier
# `create` made, the handle this `create` makes, a registered app, a machine
# peripheral, a workload kind, a `send` direction or a core class.
HANDLE, NEW, APP, DEV = "handle", "new handle", "app", "device"
WORKLOAD, DIRECTION, CORE = "workload", "direction", "core class"
REQUIRED = object()  # the default of an argument that must be given


def _count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(f"negative count {text}")
    return int(text)


def _factor(text: str) -> float:
    if not 0 <= float(text) < float("inf"):
        raise ValueError(f"{text} is not a finite non-negative number")
    return float(text)


# Every argument, positional or key=value, has one type wherever it
# appears: a name type, or a reader from text (ValueError if malformed).
TYPES = {
    "new": NEW, "sb": HANDLE, "victim": HANDLE, "requester": HANDLE,
    "target": HANDLE, "holder": HANDLE, "app": APP, "dev": DEV, "dev_id": DEV,
    "workload": WORKLOAD, "direction": DIRECTION, "core": CORE,
    "attack": AttackKind, "byte_count": parse_size, "nbytes": parse_size,
    "cores": int, "memory": parse_size, "base": parse_size,
    "images": _count, "units": _count, "gpu_speedup": _factor,
    "files": lambda v: tuple(parse_size(x) for x in v.split(",")),
    "queries": _count, "cache": parse_size, "scan": _count, "miss": _count,
}
# The values of absent optional positionals; only the last may be optional.
SLOT_DEFAULTS = {"byte_count": 0, "workload": "idle"}

# Workload kind -> (keys with their defaults, bare flags, build); `build`
# takes the key values in this order, then whether each flag is given.
WORKLOADS = {
    "inference": (
        {"images": 1, "units": 500, "gpu_speedup": DEFAULT_GPU_SPEEDUP_PCT / 100},
        ("serial",),
        lambda images, units, gpu_speedup, serial: InferenceBatch(
            images, units, not serial, int(round(gpu_speedup * 100)))),
    "cipher": (
        {"files": (16 * MB,), "queries": 10, "cache": 10 * MB, "scan": 10, "miss": 50},
        (), CipherQuery),
    "idle": ({}, (), Idle),
}


def _call(method: str) -> Callable:
    # One World method whose parameters are named as the directive's
    # arguments; it is looked up when the directive runs.
    return lambda world, **values: getattr(world, method)(**values)


# Directive kind -> (positionals in order, keys with their defaults, run).
# The runner calls run(world, **values), a `workload` value being the built
# workload, and binds what a `create` returns to its new handle.
DIRECTIVES = {
    "create": (
        ("new", "workload"),
        {"app": REQUIRED, "cores": 1, "memory": 512 * MB, "core": None, "base": None},
        lambda w, new, workload, app, cores, memory, core, base:
            w.create_sandbox(app, cores, memory, core, base, workload)),
    "workload": (("sb", "workload"), {}, _call("set_workload")),
    "send": (("sb", "direction", "byte_count"), {}, _call("send_data")),
    "request_dev": (("sb", "dev_id"), {}, _call("request_peripheral")),
    "release_dev": (("sb", "dev_id"), {}, _call("release_peripheral")),
    "attach": (("sb", "nbytes"), {}, _call("_request_attach")),
    "detach": (("sb", "nbytes"), {}, _call("_request_detach")),
    "add_core": (("sb",), {"core": None},
                 lambda w, sb, core: w._request_core_increase(sb, core)),
    "release_core": (("sb",), {}, _call("release_surplus_core")),
    "terminate": (("sb",), {}, _call("terminate")),
    # Adversary steps, the same code the catalogue attacks run.
    "create_tampered": (
        ("new",), {"app": REQUIRED, "cores": 1, "memory": 512 * MB},
        lambda w, new, app, cores, memory:
            adversary.create_tampered(w, app, max_cores=cores, max_memory=memory)),
    "overlap_attach": (("requester", "victim"), {}, lambda w, requester, victim:
                       adversary.overlap_attach(w, requester, victim)[0].approved),
    "ros_prime": (("sb",), {}, adversary.ros_prime),
    "victim_touch": (("sb",), {}, adversary.victim_touch),
    "ros_probe": (("sb",), {}, adversary.ros_probe),
    "ros_dma": (("sb", "dev"), {}, adversary.ros_dma),
    "steal_core": (("victim",), {"app": REQUIRED}, adversary.steal_core),
    "attack": (
        ("attack",),
        dict.fromkeys(("victim", "requester", "target", "holder", "dev", "app")),
        lambda w, attack, **params: adversary.run_attack(
            w, attack, **{k: v for k, v in params.items() if v is not None})),
}


@dataclass(frozen=True)
class Directive:
    at_ns: int
    kind: str
    args: Tuple[Tuple[str, str], ...]
    # `args` split by the parser: key=value arguments and the positionals
    # (bare, or `tok=` as `serialize` writes them) that fill the kind's
    # slots, by name, and the positionals past the slots, which are flags.
    named: Dict[str, str] = field(compare=False, repr=False)
    flags: Tuple[str, ...] = field(compare=False, repr=False)
    # Every argument's value as `validate` reads it, once, with the workload
    # built and each handle left as its name; the runner resolves those.
    values: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class Scenario:
    machine: MachineConfig
    seed: int = 0
    mode: str = "leap"
    horizon_ns: int = 10 * S_NS
    mutations: Tuple[str, ...] = ()
    instant: bool = False  # every effect applies at once, as in exploration
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
    if s.instant:
        lines.append("instant = true")
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
    lines.append("")
    lines.append("[apps]")
    for app_id, payload in s.apps:
        lines.append(f"app {app_id} {shlex.quote(payload)}")
    lines.append("")
    lines.append("[timeline]")
    lines.extend(map(format_directive, s.timeline))
    return "\n".join(lines) + "\n"


def format_directive(d: Directive) -> str:
    return " ".join([f"at {format_duration_ns(d.at_ns)} {d.kind}"]
                    + [f"{k}={v}" for k, v in d.args])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse(text: str) -> Scenario:
    header: Dict[str, object] = {}
    machine_lines: List[Tuple[int, str]] = []
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
            if section not in ("machine", "apps", "timeline"):
                raise ParseError(f"unknown section [{section}]", line=lineno, col=1)
            continue
        if section is None:
            name, value = _split_kv(line, lineno, HEADER_KEYS, "header")
            header[name] = value
        elif section == "machine":
            machine_lines.append((lineno, line))
        elif section == "apps":
            try:
                tokens = _split_words(line)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if len(tokens) != 3 or tokens[0] != "app":
                raise ParseError("expected: app <id> <payload>", line=lineno)
            apps.append((tokens[1], tokens[2]))
        elif section == "timeline":
            timeline.append(_parse_directive(line, lineno))

    scenario = Scenario(machine=_parse_machine(machine_lines), apps=tuple(apps),
                        timeline=tuple(timeline), **header)
    validate(scenario)
    return scenario


def _split_words(line: str) -> List[str]:
    """`shlex.split(line)`, which a line of words between single spaces,
    with no quote or backslash, needs no lexer for."""
    words = line.split()
    if " ".join(words) == line and not any(c in line for c in "'\"\\"):
        return words
    return shlex.split(line)


def _split_kv(line: str, lineno: int, keys: dict, section: str):
    """A 'key = value' line's field, and its value read by the key's reader."""
    if "=" not in line:
        raise ParseError("expected 'key = value'", line=lineno,
                         col=len(line) + 1)
    key, value = (part.strip() for part in line.split("=", 1))
    if key not in keys:
        raise ParseError(f"unknown {section} key {key!r}", line=lineno, col=1)
    name, read = keys[key]
    try:
        return name, read(value)
    except ValueError as exc:
        raise ParseError(f"bad {key} {value!r}: {exc}", line=lineno) from None


def _parse_machine(machine_lines) -> MachineConfig:
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
                rng = _size_range(kv["mmio"])
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
            name, value = _split_kv(line, lineno, MACHINE_KEYS, "machine")
            fields[name] = value
        else:
            raise ParseError(f"unrecognized machine line {line!r}", line=lineno)
    if cores:
        fields["cores"] = tuple(cores)
    if peripherals:
        fields["peripherals"] = tuple(peripherals)
    return dataclasses.replace(default_config(), **fields) if fields else default_config()


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
    args = tuple([tok.partition("=")[::2] for tok in tokens[3:]])
    if kind not in DIRECTIVES:  # a validation error
        return Directive(at_ns, kind, args, {}, ())
    slots, declared, _ = DIRECTIVES[kind]
    named, flags, filled = {}, [], 0
    for k, v in args:  # positionals fill the slots in order, then are flags
        if v:
            named[k] = v
        elif filled < len(slots):
            named[slots[filled]] = k
            filled += 1
        else:
            flags.append(k)
    # A directive with no workload slot takes no workload keys or flags.
    wl_keys, wl_flags, _ = WORKLOADS.get(named.get("workload", "idle"),
                                         WORKLOADS["idle"])
    for k, v in args:
        if v and k not in declared and k not in wl_keys:
            raise ParseError(f"unknown {kind} argument {k!r}", line=lineno)
    for tok in flags:
        if tok not in wl_flags:
            raise ParseError(f"surplus {kind} argument {tok!r}", line=lineno)
    return Directive(at_ns, kind, args, named, tuple(flags))


def _read(d: Directive, lookup: Callable[[str, str], object]) -> dict:
    """Directive d's argument values by name, each read by its type, with
    the workload built; `lookup(type, name)` resolves a name. A missing or
    malformed value raises ValueError."""
    slots, declared, _ = DIRECTIVES[d.kind]
    values = _values(slots, SLOT_DEFAULTS, d.named, lookup)
    values.update(_values(declared, declared, d.named, lookup))
    if "workload" in values:
        wl_keys, flags, build = WORKLOADS[values["workload"]]
        values["workload"] = build(*_values(wl_keys, wl_keys, d.named, lookup).values(),
                                   *[f in d.flags for f in flags])
    return values


def read_directive(line: str):
    """A directive line without its time, read once: its kind, its run, its
    values with each handle left as its name, and which values are handles."""
    d = _parse_directive(f"at 0ns {line}", 1)
    values = _read(d, lambda t, name: name)
    return (d.kind, DIRECTIVES[d.kind][2], values,
            tuple(k for k in values if TYPES[k] == HANDLE))


def _values(names, defaults: dict, given: Dict[str, str], lookup) -> dict:
    """Each name's value: its token in `given` read by its type, else its
    default, which REQUIRED (or no default) marks as missing. A reader's
    ValueError is raised again with the name in front."""
    out = {}
    for name in names:
        token = given.get(name)
        if token is not None:
            t = TYPES[name]
            try:
                out[name] = lookup(t, token) if isinstance(t, str) else t(token)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        elif defaults.get(name, REQUIRED) is REQUIRED:
            raise ValueError(f"missing {name}")
        else:
            out[name] = defaults[name]
    return out


def validate(s: Scenario) -> None:
    s.machine.validate()
    if s.mode not in ("leap", "tzasc"):
        raise ValidationError(f"unknown mode {s.mode!r}")
    known = {HANDLE: set(), APP: {a for a, _ in s.apps},
             DEV: {p.dev_id for p in s.machine.peripherals}, WORKLOAD: WORKLOADS,
             DIRECTION: ("to_sandbox", "to_ros"), CORE: {c.value for c in CoreClass}}
    if len(known[APP]) < len(s.apps):
        raise ValidationError("an app id is registered twice")

    def lookup(t: str, name: str) -> str:
        if t == NEW:
            known[HANDLE].add(name)
        elif name not in known[t]:
            raise ValidationError(f"{d.kind} references unknown {t} {name!r}")
        return name

    last = -1
    for d in s.timeline:
        if d.at_ns < last:
            raise ValidationError("timeline directives must be time-sorted")
        last = d.at_ns
        if d.kind not in DIRECTIVES:
            raise ValidationError(f"unknown directive {d.kind!r}")
        try:
            d.values.update(_read(d, lookup))
        except ValueError as exc:
            raise ValidationError(f"bad {d.kind} argument: {exc}") from None


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
    # Each kind found (an invariant id, or "attack" for an unblocked attack
    # or a leak) -> the timeline index of the directive after which it was
    # first seen, or None if first seen at the horizon.
    first_seen: Dict[str, Optional[int]] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations or "attack" in self.first_seen else 0

    def metrics(self) -> dict:
        return self.world.metrics.as_dict(self.trace_digest or "")

    def _record_findings(self, at: Optional[int]) -> None:
        # A violation that persists is found again at every later check;
        # each one is recorded once, where it first appears.
        for v in check_invariants(self.world):
            if v not in self.violations:
                self.violations.append(v)
                self.first_seen.setdefault(v.invariant_id, at)
        if self.world.metrics.attacks_unblocked or self.world.metrics.leaked_bytes:
            self.first_seen.setdefault("attack", at)

    def _sandbox(self, name: str) -> int:
        sb = self.handles.get(name)
        if sb is None or self.world.state_of(sb) == "dead":
            raise NoSuchSandbox(name)
        return sb

    def _execute(self, i: int, d: Directive, check: bool) -> None:
        """The event of timeline directive i; check records its findings."""
        world = self.world
        try:
            # Only a handle the line gives names a sandbox; a defaulted one
            # stays None.
            values = {k: self._sandbox(v) if k in d.named and TYPES[k] == HANDLE else v
                      for k, v in d.values.items()}
            out = DIRECTIVES[d.kind][2](world, **values)
            if "new" in values:
                self.handles[values["new"]] = out
        except SimError as exc:
            verdict = "skipped" if isinstance(exc, NoSuchSandbox) else "rejected"
            world.engine.trace("system", d.kind, dict(d.args), verdict,
                               type(exc).__name__)
        if check:
            self._record_findings(i)


def run_scenario(scenario: Scenario, with_trace: bool = True,
                 check_each_directive: bool = True) -> RunResult:
    world = World(
        scenario.machine,
        defenses=Defenses.with_mutations(scenario.mutations),
        mode=scenario.mode,
        apps=[(a, p.encode()) for a, p in scenario.apps],
        instant=scenario.instant,
        traced=with_trace,
    )
    result = RunResult(scenario, world, {}, [])
    for i, d in enumerate(scenario.timeline):
        world.engine.schedule(d.at_ns, result._execute, i, d, check_each_directive)
    world.engine.run_until(scenario.horizon_ns)
    result._record_findings(None)

    if with_trace:
        header = {"scenario": serialize(scenario), "seed": scenario.seed}
        result.trace_text = world.engine.serialize_trace(header)
        result.trace_digest = hashlib.sha256(result.trace_text.encode()).hexdigest()
    return result


def explored_scenario(trace: Tuple[str, ...], mutations=()) -> Scenario:
    """An explored op sequence as a scenario on the explorer's machine and
    apps, instant, one directive per op, all at 0ns: exploration keeps no
    clock."""
    world, lines = adversary.make_small_world(), dict(adversary.ALPHABET)
    head = Scenario(world.machine.config, mutations=tuple(mutations), instant=True,
                    apps=tuple((a, p.decode()) for a, p in world.payloads.items()))
    return parse(serialize(head) + "".join(f"at 0ns {lines[op]}\n" for op in trace))


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
