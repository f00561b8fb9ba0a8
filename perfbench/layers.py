"""Per-layer metrics of the traced run, by name, unit and how each is read
from the aggregated spans.

Each layer is a teesim module. Next to every group is the end-to-end
metric it should move, and on which workload; README.md carries the same
mapping.
"""

from typing import Callable, Dict, List, Tuple

from workloads import OP_FAILURES

Stats = Dict[str, Dict[str, float]]
Spec = Tuple[str, str, Callable[[Stats, dict], float]]


def _get(stats: Stats, span: str, key: str) -> float:
    return stats.get(span, {}).get(key, 0)


def calls(span: str):
    return lambda st, ex: _get(st, span, "calls")


def seconds(span: str):
    return lambda st, ex: _get(st, span, "incl_ns") / 1e9


def self_seconds(span: str):
    return lambda st, ex: _get(st, span, "self_ns") / 1e9


def rejected(span: str):
    return lambda st, ex: _get(st, span, "raised")


def module_self(module: str):
    prefix = module + "."
    return lambda st, ex: sum(v["self_ns"] for k, v in st.items()
                              if k.startswith(prefix)) / 1e9


def module_calls(module: str):
    prefix = module + "."
    return lambda st, ex: sum(v["calls"] for k, v in st.items()
                              if k.startswith(prefix))


def extra(key: str):
    return lambda st, ex: ex.get(key, 0)


def _ratio(num, den):
    return lambda st, ex: num(st, ex) / den(st, ex) if den(st, ex) else 0.0


def _module(module: str) -> List[Spec]:
    return [(f"{module}.self_s", "s", module_self(module)),
            (f"{module}.calls", "count", module_calls(module))]


def _calls_s(prefix: str, span: str, with_rejected: bool = False) -> List[Spec]:
    out = [(f"{prefix}.calls", "count", calls(span)),
           (f"{prefix}.s", "s", seconds(span))]
    if with_rejected:
        out.append((f"{prefix}.rejected", "count", rejected(span)))
    return out


def _op_ok(st, ex):
    return _get(st, "adversary.op", "calls") - _get(st, "adversary.op", "raised")


SPECS: List[Spec] = []

# adversary -> explore_bfs items_per_s / wall_s / peak_rss_mb;
# check_invariants also -> scenario_fuzz item_p50_ms.
SPECS += _module("adversary") + [
    ("adversary.explore.self_s", "s", self_seconds("adversary.explore")),
    ("adversary.op.attempts", "count", calls("adversary.op")),
    ("adversary.op.ok", "count", _op_ok),
    ("adversary.op.useful_ratio", "ratio", _ratio(_op_ok, calls("adversary.op"))),
    ("adversary.op.s", "s", seconds("adversary.op")),
] + [(f"adversary.op.failed.{exc}", "count", extra(f"adversary.op.failed.{exc}"))
     for exc in OP_FAILURES + ("other",)] + [
    ("adversary.new_state_ratio", "ratio", extra("adversary.new_state_ratio")),
] + _calls_s("adversary.check_invariants", "adversary.check_invariants")

# world: clone/canonical -> explore_bfs; the rest -> scenario_fuzz latency.
SPECS += _module("world") + _calls_s("world.clone", "world.World.clone") \
    + _calls_s("world.canonical", "world.World.canonical") + [
    (f"world.{fn}.s", "s", seconds(f"world.World.{fn}"))
    for fn in ("create_sandbox", "terminate", "request_peripheral",
               "release_peripheral")]

# hw_model -> explore_bfs; stage2 -> scenario_fuzz and explore_bfs.
SPECS += _module("hw_model") + [
    ("hw_model.Machine.clone.s", "s", seconds("hw_model.Machine.clone")),
    ("hw_model.Machine.canonical.s", "s", seconds("hw_model.Machine.canonical")),
]
SPECS += _module("stage2") \
    + _calls_s("stage2.overlaps", "stage2.Stage2TableSet.overlaps") + [
    ("stage2.map_range.calls", "count", calls("stage2.Stage2TableSet.map_range")),
    ("stage2.unmap_range.calls", "count", calls("stage2.Stage2TableSet.unmap_range")),
]

# engine: dispatch -> costmodel_suites wall_s and scenario_fuzz item_p50_ms;
# serialization -> scenario_fuzz only.
_events = extra("engine.events")
SPECS += _module("engine") + [
    ("engine.events", "count", _events),
    ("engine.run_until.s", "s", seconds("engine.Engine.run_until")),
    ("engine.host_us_per_event", "us",
     _ratio(lambda st, ex: seconds("engine.Engine.run_until")(st, ex) * 1e6, _events)),
    ("engine.schedule.calls", "count", calls("engine.Engine.schedule")),
    ("engine.trace.records", "count", calls("engine.Engine.trace")),
] + _calls_s("engine.serialize_trace", "engine.Engine.serialize_trace") + [
    ("engine.trace_digest.s", "s", seconds("engine.Engine.trace_digest")),
]

# sos -> costmodel_suites wall_s, a smaller share of scenario_fuzz.
SPECS += _module("sos")
for _fn in ("account_to", "sample_usage", "monitor_cpu", "monitor_memory"):
    SPECS += _calls_s(f"sos.{_fn}", f"sos.SandboxRuntime.{_fn}")
SPECS += [("sos.adjust_requests", "count", extra("sos.adjust_requests"))]

# monitor, ros, secure_world -> scenario_fuzz latency and explore_bfs op time.
SPECS += _module("monitor")
for _fn in ("lock_and_launch", "attach_memory", "detach_memory", "transfer_core",
            "switch_peripheral", "sanitize", "teardown"):
    SPECS += _calls_s(f"monitor.{_fn}", f"monitor.Monitor.{_fn}", with_rejected=True)
SPECS += _module("ros")
for _fn in ("create_sandbox", "alloc_contiguous", "send_data"):
    SPECS += _calls_s(f"ros.{_fn}", f"ros.RosActor.{_fn}", with_rejected=True)
SPECS += _module("secure_world") + _calls_s(
    "secure_world.verify_and_decrypt", "secure_world.KeyStore.verify_and_decrypt",
    with_rejected=True)

# scenario: parse -> scenario_fuzz item_p50_ms; make_random_scenario -> setup_s.
# bench: each suite -> costmodel_suites wall_s.
SPECS += _module("scenario") + [
    ("scenario.parse.s", "s", seconds("scenario.parse")),
    ("scenario.make_random_scenario.s", "s", seconds("scenario.make_random_scenario")),
    ("scenario.run_scenario.s", "s", seconds("scenario.run_scenario")),
]
SPECS += _module("bench") + [
    (f"bench.run_suite.{suite}.s", "s", seconds(f"bench.run_{suite}"))
    for suite in ("cpu_adjust", "dl_batch", "mem_query")]

# The tracer itself: traced minus untraced wall time of the same work.
SPECS += [
    ("trace.untraced_wall_s", "s", extra("trace.untraced_wall_s")),
    ("trace.traced_wall_s", "s", extra("trace.traced_wall_s")),
    ("trace.overhead_s", "s", extra("trace.overhead_s")),
    ("trace.overhead_ratio", "ratio", extra("trace.overhead_ratio")),
    ("trace.spans", "count", extra("trace.spans")),
]


def layer_metrics(stats: Stats, extras: dict) -> Dict[str, dict]:
    return {name: {"value": fn(stats, extras), "unit": unit}
            for name, unit, fn in SPECS}
