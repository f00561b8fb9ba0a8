"""List the lines of src/teesim that the tests never run.

    python3 tools/line_coverage.py /path/to/checkout --out never_ran.json

Run it on a copy of the tree (for example a `git archive` export): it runs
that tree's `tests/` with pytest, in this process, so collection writes
bytecode caches into the tree. Criteria 01 and 02 of
`tests/test_acceptance.py` are left out: the depth-12 explore and the
10,000 random scenarios take about a minute even without a tracer.
`perfbench/` is not run.

A `sys.settrace` tracer records every line that runs in a file of
`src/teesim`; a function's first line counts as run when the function is
called. The executable lines are the line numbers of every code object
compiled from each file. The report is JSON: the totals, then, per module,
the sorted lines that never ran. Standard library only, besides the pytest
the suite itself needs. It takes about two minutes on a 2-core x86_64
host.
"""

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import Dict, Set


def executable_lines(path: Path) -> Set[int]:
    lines: Set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="root of the checkout to measure")
    parser.add_argument("--out", required=True, help="where to write the JSON report")
    args = parser.parse_args(argv)

    root = Path(args.tree).resolve()
    package = root / "src" / "teesim"
    files = {str(p): p.stem for p in sorted(package.glob("*.py"))}
    ran: Dict[str, Set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(root / "src"))
    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(root),
                              "-k", "not test_criterion_01 and not test_criterion_02",
                              str(root / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not any(ran.values()):
        print(f"error: no line of {package} ran; teesim was imported from elsewhere",
              file=sys.stderr)
        return 2

    modules, total, missed = {}, 0, 0
    for path, module in files.items():
        lines = executable_lines(Path(path))
        never = sorted(lines - ran[path])
        total += len(lines)
        missed += len(never)
        if never:
            modules[module] = never
    report = {"tree": str(root), "tests_exit_status": int(status),
              "executable_lines": total, "never_ran": missed, "modules": modules}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"{missed} of {total} executable lines in src/teesim never ran: "
          + ", ".join(f"{m} {len(v)}" for m, v in
                      sorted(modules.items(), key=lambda kv: (-len(kv[1]), kv[0]))))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
