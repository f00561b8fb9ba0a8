"""Check one teesim checkout against every pin in its perfbench/reference.json.

    python3 tools/check_reference.py /path/to/checkout

It imports `teesim` from the checkout's `src/` and reads the checkout's
`perfbench/reference.json`, writing nothing. It checks:

* every `explore_bfs` count: states and transitions of the honest explore
  at each pinned depth, with no violations;
* every `scenario_fuzz` pool digest: for pool size N and seed s, the random
  honest scenarios s*N .. s*N+N-1, each serialized, parsed and run with its
  trace, must exit 0, and the sha256 of their trace digests joined by
  newlines must equal the pin (as `perfbench/run.py` computes it);
* every `costmodel_suites` result, compared in its JSON form.

Prints one line per pin and exits 1 if any differs; the last line also
gives the line count of `src/teesim/*.py` (as `wc -l` counts it) against
the design aim's gate in ROADMAP.md. Standard library only; about 20 s on a
2-core x86_64 host.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

# ROADMAP item 10: the most lines src/teesim may have at its re-anchor.
LINE_GATE = 4705


def _json(value):
    return json.loads(json.dumps(value, sort_keys=True))


def main(tree: str) -> int:
    root = Path(tree).resolve()
    sys.path.insert(0, str(root / "src"))
    from teesim import adversary, bench, scenario

    ref = json.loads((root / "perfbench" / "reference.json").read_text())
    failed = 0

    def report(name, got, want):
        nonlocal failed
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok else f": got {got!r}, want {want!r}"), flush=True)

    t0 = time.perf_counter()
    for depth, want in sorted(ref["explore_bfs"]["counts"].items(),
                              key=lambda kv: int(kv[0])):
        r = adversary.explore(depth=int(depth))
        report(f"explore depth {depth}",
               [r.states_visited, r.transitions, len(r.violations)], want + [0])

    for pool, seeds in sorted(ref["scenario_fuzz"]["pool_digests"].items(),
                              key=lambda kv: int(kv[0])):
        for seed, want in sorted(seeds.items(), key=lambda kv: int(kv[0])):
            n, s = int(pool), int(seed)
            digests, exits = [], set()
            for k in range(s * n, s * n + n):
                text = scenario.serialize(scenario.make_random_scenario(k))
                res = scenario.run_scenario(scenario.parse(text), with_trace=True)
                exits.add(res.exit_code)
                digests.append(res.trace_digest)
            got = hashlib.sha256("\n".join(digests).encode()).hexdigest()
            report(f"pool {n} seed {s}", [got, sorted(exits)], [want, [0]])

    for name, want in sorted(ref["costmodel_suites"]["results"].items()):
        report(f"suite {name}", _json(bench.run_suite(name)), want)

    lines = sum(p.read_bytes().count(b"\n")
                for p in (root / "src" / "teesim").glob("*.py"))
    print(f"{'all pins hold' if not failed else f'{failed} pins differ'} "
          f"({time.perf_counter() - t0:.1f} s); "
          f"src/teesim {lines} lines, gate {LINE_GATE}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    sys.exit(main(sys.argv[1]))
