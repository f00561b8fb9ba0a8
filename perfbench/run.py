"""teesim benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload explore_bfs --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``
of that checkout and compiled from source, never from an installed copy.

``--trace 0`` measures the workload untraced for ``--seconds`` and prints
the end-to-end metrics. ``--trace 1`` runs the workload's fixed traced
work three times untraced and once with span wrappers around every public
function of each teesim module, prints the per-layer metrics and writes
the spans to ``perfbench/out/``. ``--setup-only`` times one set-up and
prints its seconds; the untraced run uses it to sample set-up time in
fresh processes. Either way the last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Host time is measured everywhere. Simulated statistics are deterministic
and are printed as outputs (labelled "simulated"), never as metrics.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from layers import SPECS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS, Measurement, Sizes, Unit  # noqa: E402

SETUP_REPEATS = 3
SETUP_EVERY_S = 2
LATENCY_SHARE = 0.5
TRACE_UNTRACED_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_p99_ms", "ms"), ("peak_rss_mb", "MB"))


def import_program() -> SimpleNamespace:
    """Import teesim from this checkout's sources."""
    m = SimpleNamespace(**{n: importlib.import_module(f"teesim.{n}")
                           for n in ("adversary", "scenario", "bench")})
    where = Path(m.adversary.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: teesim imported from {where}, not from {SRC}")
    return m


def timed_setup(workload, seed: int):
    """One set-up: import teesim and build the inputs."""
    t0 = time.perf_counter()
    m = import_program()
    inputs = workload.setup(m, seed)
    return m, inputs, time.perf_counter() - t0


def setup_in_child(workload, seed: int) -> float:
    """Time one more set-up in a fresh process and return its seconds.

    A fresh process imports teesim from source like the first set-up did,
    and its modules and inputs never share this process's heap, so they
    add neither garbage collections to the timed units nor memory to
    peak_rss_mb."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--setup-only"]
    if workload.sizes == SMOKE:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def contended(values, share=0.25):
    """The largest ``share`` of a run's samples (at least one).

    This host switches between an uncontended and a contended speed about
    1.7x apart, each lasting seconds to minutes, so the median of a run
    follows whichever speed the run happened to get. Nearly every run
    reaches the contended speed, so its samples give a steadier figure."""
    ordered = sorted(values)
    return ordered[int((1 - share) * (len(ordered) - 1)):]


def contended_units(units, share=0.25):
    """The units that took the most CPU time. The host's slow speed shows in
    CPU time too, while time taken by other tenants does not, so the pick
    does not favour the units that waited most."""
    cut = contended([u.cpu_seconds for u in units], share)[0]
    return [u for u in units if u.cpu_seconds >= cut]


def run_untraced(workload, m, inputs, seed: int, seconds: float,
                 setup_times, say):
    out = Measurement()
    begin = last_setup = time.perf_counter_ns()
    while True:
        t0, c0 = time.perf_counter_ns(), time.thread_time_ns()
        items, latencies = workload.unit(m, inputs, out)
        t1, c1 = time.perf_counter_ns(), time.thread_time_ns()
        out.units.append(Unit((t1 - t0) / 1e9, (c1 - c0) / 1e9, items, latencies))
        if t1 - begin >= seconds * 1e9:
            break
        if t1 - last_setup >= SETUP_EVERY_S * 1e9:
            setup_times.append(setup_in_child(workload, seed))
            last_setup = time.perf_counter_ns()
    workload.finish(inputs, out)

    slow_units = contended_units(out.units)
    # Percentiles pool the items of the slower half of the units: the tail
    # of explore_bfs is the items a gen-1 collection falls in, about eight
    # per unit, and a quarter of the units holds too few of them.
    latency_units = contended_units(out.units, LATENCY_SHARE)
    lat = [x for u in latency_units for x in u.latencies_ms]
    # The inclusive method interpolates between measured samples, so p99
    # never lies beyond the slowest one, however few samples there are.
    p99 = (statistics.quantiles(lat, n=100, method="inclusive")[98]
           if len(lat) >= 2 else lat[0])
    beyond = sum(1 for x in lat if x > p99)
    metrics = {
        "setup_s": statistics.median(contended(setup_times)),
        "wall_s": statistics.median(u.seconds for u in slow_units),
        "items_per_s": sum(u.items for u in slow_units)
        / sum(u.seconds for u in slow_units),
        "item_p50_ms": statistics.median(lat),
        "item_p99_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unit_s = [u.seconds for u in out.units]
    say(f"units timed: {len(unit_s)} ({sum(u.items for u in out.units)} items); "
        f"contended units used: "
        f"{len(slow_units)} (latencies from {len(latency_units)}); set-ups timed: {len(setup_times)}")
    say("unit seconds: " + " ".join(f"{x:.4f}" for x in unit_s))
    say("set-up seconds: " + " ".join(f"{x:.4f}" for x in setup_times))
    say(f"CPU time / wall time over all units: "
        f"{sum(u.cpu_seconds for u in out.units) / sum(unit_s):.4f}")
    say(f"latency samples ({workload.latency_item}, thread CPU time) "
        f"in the slower half of units: {len(lat)}; "
        f"{beyond} beyond p99"
        + ("" if beyond >= 10 else "  [p99 UNRESOLVED: fewer than 10 samples beyond]"))
    for name, unit in END_TO_END:
        say(f"e2e {name:<13} {metrics[name]:.6g} {unit}")
    return out, {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END}


def run_traced(workload, m, inputs, say):
    untraced = []
    for _ in range(TRACE_UNTRACED_REPEATS):
        t0 = time.perf_counter()
        ref = workload.fixed(m, inputs)
        untraced.append(time.perf_counter() - t0)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        out = workload.fixed(m, inputs, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for failure in ref.failures:
        out.check(False, "untraced reference: " + failure)
    untraced_s = statistics.median(untraced)
    extras = dict(out.layer)
    returned = tracer.returned
    extras.update({
        "engine.events": returned.get("engine.Engine.run_until", 0),
        "sos.adjust_requests": returned.get("sos.SandboxRuntime.monitor_cpu", 0)
        + returned.get("sos.SandboxRuntime.monitor_memory", 0),
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(tracer.start),
    })
    stats = tracer.aggregate()
    metrics = layer_metrics(stats, extras)
    path = OUT / f"spans-{workload.name}.json"
    tracer.write(path, {"workload": workload.name, "traced_wall_s": traced_s,
                        "untraced_wall_s": untraced_s})
    say(f"traced run: {len(tracer.start)} spans written to "
        f"{path.relative_to(ROOT)}")
    say(f"trace overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
        f"(median of {TRACE_UNTRACED_REPEATS}) = {traced_s - untraced_s:.3f} s")
    modules = sorted({name.split(".")[0] for name, _, _ in SPECS} - {"trace"})
    for module in modules:
        say(f"layer {module:<13} self {metrics[module + '.self_s']['value']:.4f} s  "
            f"calls {metrics[module + '.calls']['value']}")
    say(f"simulated engine.events = {extras['engine.events']}  "
        f"engine.trace.records = {metrics['engine.trace.records']['value']}")
    for name, spec in metrics.items():
        say(f"layer-metric {name} = {spec['value']:.6g} {spec['unit']}")
    return out, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    args = parser.parse_args(argv)

    if not (SRC / "teesim" / "__init__.py").is_file():
        print(f"error: no teesim sources under {SRC}", file=sys.stderr)
        return 2
    # Compile the sources on every import, so set-up time does not depend
    # on bytecode caches left by earlier runs.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT / "no-bytecode-cache")
    sys.path.insert(0, str(SRC))

    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](SMOKE if args.smoke else Sizes(), reference)
    if args.setup_only:
        print(timed_setup(workload, args.seed)[2])
        return 0

    def say(line):
        print(line, flush=True)

    say(f"teesim benchmark: workload {args.workload} seed {args.seed} "
        f"trace {args.trace}{' smoke' if args.smoke else ''}")
    say(f"host: nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"{platform.machine()}")
    m, inputs, seconds = timed_setup(workload, args.seed)
    setup_times = [seconds]
    if not args.trace:
        setup_times += [setup_in_child(workload, args.seed)
                        for _ in range(SETUP_REPEATS - 1)]

    if args.trace:
        out, metrics = run_traced(workload, m, inputs, say)
    else:
        out, metrics = run_untraced(workload, m, inputs, args.seed, args.seconds,
                                    setup_times, say)
    for key, value in out.simulated.items():
        say(f"simulated {key} = {value}")
    if args.workload == "costmodel_suites" and not args.trace:
        say("note: the cost model has no hardware reference in this repository, "
            "so no accuracy error is reported")
    failed = len(out.failures)
    for failure in out.failures[:20]:
        say(f"CHECK FAILED: {failure}")
    say(f"output checks: {out.attempted} attempted, {failed} failed, "
        f"error_rate {failed / max(1, out.attempted):.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
