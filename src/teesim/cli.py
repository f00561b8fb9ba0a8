"""Command-line front end: run scenarios, explore the protocol state space,
compare isolation modes, and run the built-in benches."""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import adversary, bench
from .errors import BudgetExceeded, ParseError, ValidationError
from .monitor import MUTATION_FLAGS
from .scenario import (
    explored_scenario,
    format_directive,
    make_random_scenario,
    parse,
    run_scenario,
    serialize,
)
from .units import MS_NS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="teesim",
        description="Deterministic simulator of a stage-2-isolated sandbox "
                    "platform: scenarios, attacks, model checking, benches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", nargs="?", help="scenario file path")
    p_run.add_argument("--mode", choices=("leap", "tzasc"))
    p_run.add_argument("--mutate", action="append", default=[],
                       choices=sorted(MUTATION_FLAGS),
                       help="disable one defense (repeatable)")
    p_run.add_argument("--trace-out", help="write the trace (JSON lines)")
    p_run.add_argument("--metrics-out", help="write metrics JSON")
    p_run.add_argument("--replay", help="re-run a trace's scenario, compare traces")
    p_run.set_defaults(fn=cmd_run)

    p_explore = sub.add_parser("explore", help="bounded protocol exploration")
    p_explore.add_argument("--depth", type=int, default=12)
    p_explore.add_argument("--budget", type=int, default=500_000,
                           help="state count cap")
    p_explore.add_argument("--mutate", action="append", default=[],
                           choices=sorted(MUTATION_FLAGS))
    p_explore.add_argument("--out", default="counterexamples",
                           help="directory for counterexample scenario files")
    p_explore.add_argument("--stop-at-first", action="store_true")
    p_explore.set_defaults(fn=cmd_explore)

    p_cmp = sub.add_parser("compare",
                           help="run a scenario under both isolation modes")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--metrics-out")
    p_cmp.set_defaults(fn=cmd_compare)

    p_bench = sub.add_parser("bench", help="run a built-in bench suite")
    p_bench.add_argument("suite", choices=bench.SUITES)
    p_bench.set_defaults(fn=cmd_bench)

    p_gen = sub.add_parser("gen", help="emit a random honest scenario")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial is not None:
            p = exc.partial
            print(f"partial: states={p.states_visited} "
                  f"transitions={p.transitions} violations={len(p.violations)}",
                  file=sys.stderr)
        return 3


def _load_scenario(path: str):
    return parse(Path(path).read_text())


def cmd_run(args) -> int:
    if args.replay:
        return _replay(args)
    if not args.scenario:
        print("error: scenario path required (or --replay)", file=sys.stderr)
        return 2
    scenario = _load_scenario(args.scenario)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.mutate:
        overrides["mutations"] = tuple(sorted(set(scenario.mutations)
                                              | set(args.mutate)))
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    result = run_scenario(scenario)
    if args.trace_out:
        Path(args.trace_out).write_text(result.trace_text)
    metrics = result.metrics()
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps(metrics, indent=2) + "\n")
    print(f"trace digest: {result.trace_digest}")
    print(f"records: {len(result.world.engine.records)}  "
          f"violations: {len(result.violations)}  "
          f"attacks blocked/unblocked: {metrics['attacks']['blocked']}"
          f"/{metrics['attacks']['unblocked']}  "
          f"leaked bytes: {result.world.metrics.leaked_bytes}")
    for v in result.violations[:10]:
        print(f"VIOLATION {v.invariant_id}: {v.detail}")
    timeline = scenario.timeline
    for kind, i in result.first_seen.items():
        where = ("the horizon" if i is None else
                 f"directive {i + 1}/{len(timeline)}: {format_directive(timeline[i])}")
        print(f"FIRST {kind} after {where}")
    return result.exit_code


def _replay(args) -> int:
    want = Path(args.replay).read_text()
    try:
        text = json.loads(want.splitlines()[0])["scenario"]
        if not isinstance(text, str):
            raise TypeError(f"scenario is {type(text).__name__}, not text")
    except (ValueError, LookupError, TypeError) as exc:
        raise ParseError(f"{args.replay} is not a trace: {exc!r}", line=1) from None
    result = run_scenario(parse(text))
    same = result.trace_text == want
    print(f"replay digest: {result.trace_digest}  "
          f"{'matches' if same else 'DIFFERS from'} recorded trace")
    return 0 if same else 1


def cmd_explore(args) -> int:
    mutations = tuple(sorted(set(args.mutate)))
    t0 = time.perf_counter()
    result = adversary.explore(
        world_factory=lambda: adversary.make_small_world(mutations),
        depth=args.depth,
        state_budget=args.budget,
        stop_at_first=args.stop_at_first,
    )
    s = time.perf_counter() - t0
    print(f"states visited: {result.states_visited}")
    print(f"transitions:    {result.transitions}")
    print(f"self-loops:     {result.self_loops}")
    print(f"max depth:      {result.max_depth}")
    print(f"wall seconds:   {s:.2f}")
    print(f"states/s:       {result.states_visited / s:.0f}")
    print(f"violations:     {len(result.violations)}")
    if result.violations:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        found = dict.fromkeys((f.kind, f.trace) for f in result.violations)
        for n, (kind, trace) in enumerate(list(found)[:20], start=1):
            path = out / f"counterexample_{n:03d}.scn"
            path.write_text(serialize(explored_scenario(trace, mutations)))
            print(f"  {kind}: {' -> '.join(trace)}  [{path}]")
    return 1 if result.violations else 0


def cmd_compare(args) -> int:
    scenario = _load_scenario(args.scenario)
    report = {}
    worst = 0
    for mode in ("leap", "tzasc"):
        result = run_scenario(dataclasses.replace(scenario, mode=mode))
        rejected = sum(
            1 for r in result.world.engine.records
            if r["op"] == "lock_and_launch" and r["verdict"] == "rejected"
        )
        report[mode] = {
            "max_concurrent_sandboxes": result.world.metrics.max_concurrent,
            "launch_rejections": rejected,
            "completion_ms": {
                f"sb{sb}": ns / MS_NS
                for sb, ns in sorted(result.world.metrics.completion_ns.items())
            },
            "violations": len(result.violations),
        }
        worst = max(worst, result.exit_code)
    print(json.dumps(report, indent=2))
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps(report, indent=2) + "\n")
    return worst


def cmd_bench(args) -> int:
    result = bench.run_suite(args.suite)
    print(bench.format_report(result))
    return 0


def cmd_gen(args) -> int:
    print(serialize(make_random_scenario(args.seed)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
