import json

import pytest

from teesim import cli
from teesim.scenario import HEADER, VERSION

MINIMAL = f"""{HEADER} v{VERSION}
seed = 5
horizon = 3s

[apps]
app demo demo-payload

[timeline]
at 0ms create sb1 app=demo
at 1500ms terminate sb1
"""

SEVEN = f"""{HEADER} v{VERSION}
seed = 9
horizon = 2s

[apps]
app a0 payload-zero

[timeline]
""" + "".join(f"at {10 * i}ms create s{i} app=a0\n" for i in range(1, 8))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    path = write(tmp_path, "s.txt", MINIMAL)
    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    code = cli.main(["run", path, "--trace-out", str(trace),
                     "--metrics-out", str(metrics)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == "teesim-trace/1"
    m = json.loads(metrics.read_text())
    assert m["max_concurrent_sandboxes"] == 1
    assert "trace digest" in capsys.readouterr().out


def test_replay_trace_matches(tmp_path, capsys):
    path = write(tmp_path, "s.txt", MINIMAL)
    trace = tmp_path / "t.jsonl"
    assert cli.main(["run", path, "--trace-out", str(trace)]) == 0
    assert cli.main(["run", "--replay", str(trace)]) == 0
    assert "matches" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "garbage\n")
    assert cli.main(["run", path]) == 2
    assert "error" in capsys.readouterr().err


def _machine(lines):
    return MINIMAL.replace("[apps]", "[machine]\n" + lines + "\n\n[apps]")


@pytest.mark.parametrize("argv,text", [
    (["run"], MINIMAL + "at 2s send sb1 sideways 10\n"),
    (["run"], MINIMAL.replace("horizon = 3s", "horizon = 10x")),
    (["run"], MINIMAL.replace("seed = 5", "seed = abc")),
    (["run"], _machine("ram = 12Q")),
    (["run"], _machine("io_window = 4G")),
    (["run"], _machine("ram = 4G")),  # the io_window then overlaps RAM
    (["run"], _machine("core 0 big\ncore 0 little")),
    (["run"], MINIMAL.replace("app demo demo-payload",
                              "app demo demo-payload\napp demo other")),
    (["run"], _machine("peripheral wifi kind=wifi mmio=3600M:3601M\n"
                       "peripheral wifi kind=wifi mmio=3602M:3603M")),
    (["run"], MINIMAL.replace("horizon = 3s", "horizon = -5s")),
    (["run"], MINIMAL.replace("horizon = 3s", "horizon = infs")),
    (["run"], MINIMAL.replace("at 0ms create", "at -1ns create")),
    (["run", "--replay"], "garbage\n"),
    (["run", "--replay"], json.dumps({"schema": "teesim-trace/1"}) + "\n"),
    (["run", "--replay"], json.dumps({"scenario": 5}) + "\n"),
], ids=["directive", "horizon", "seed", "ram", "io_window", "ram_over_io",
        "duplicate_core", "duplicate_app", "duplicate_peripheral",
        "negative_horizon", "infinite_horizon", "negative_time",
        "replay_garbage", "replay_no_scenario", "replay_scenario_not_text"])
def test_malformed_directive_value_exit_code(tmp_path, capsys, argv, text):
    """A malformed value, an invalid machine or a file that is not a trace
    is reported, not raised: exit 2, the 'violations found' code being 1."""
    assert cli.main(argv + [write(tmp_path, "bad.txt", text)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["run"], ["run", "--replay"], ["compare"]],
                         ids=["run", "replay", "compare"])
def test_missing_input_file_exit_code(tmp_path, capsys, argv):
    """A file that is not there is reported like a malformed one: exit 2."""
    assert cli.main(argv + [str(tmp_path / "missing.scn")]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "missing.scn" in err and "Traceback" not in err


def test_negative_gpu_speedup_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", MINIMAL.replace(
        "at 1500ms terminate sb1",
        "at 500ms workload sb1 inference images=20 units=1000 gpu_speedup=-1\n"
        "at 600ms request_dev sb1 gpu"))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_compare_reports_seven_vs_three(tmp_path, capsys):
    path = write(tmp_path, "seven.txt", SEVEN)
    assert cli.main(["compare", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["leap"]["max_concurrent_sandboxes"] == 7
    assert report["tzasc"]["max_concurrent_sandboxes"] == 3
    assert report["tzasc"]["launch_rejections"] == 4


def test_compare_single_sandbox_identical_times(tmp_path, capsys):
    path = write(tmp_path, "one.txt", MINIMAL.replace(
        "at 0ms create sb1 app=demo",
        "at 0ms create sb1 app=demo\nat 600ms workload sb1 inference "
        "images=2 units=100"))
    assert cli.main(["compare", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["leap"]["completion_ms"] == report["tzasc"]["completion_ms"]


def test_bench_cpu_adjust_prints_ratios(capsys):
    assert cli.main(["bench", "cpu_adjust"]) == 0
    out = capsys.readouterr().out
    assert "2.52" in out and "1.48" in out


def test_explore_mutation_writes_counterexample(tmp_path, capsys):
    out_dir = tmp_path / "cex"
    code = cli.main(["explore", "--mutate", "no_smmu", "--depth", "4",
                     "--stop-at-first", "--out", str(out_dir)])
    assert code == 1
    files = sorted(out_dir.glob("counterexample_*.scn"))
    assert files
    capsys.readouterr()
    # running the scenario file reproduces the finding: ROS's DMA leaks
    assert cli.main(["run", str(files[0])]) == 1
    assert "FIRST attack after directive 2/2: at 0ns ros_dma a= wifi=" \
        in capsys.readouterr().out


def test_run_reports_a_persisting_violation_once(tmp_path, capsys):
    """The no_verify counterexample boots one unverified sandbox; the
    violation persists through every later check but is reported once."""
    out_dir = tmp_path / "cex"
    assert cli.main(["explore", "--mutate", "no_verify", "--depth", "6",
                     "--stop-at-first", "--out", str(out_dir)]) == 1
    files = sorted(out_dir.glob("counterexample_*.scn"))
    capsys.readouterr()
    assert cli.main(["run", str(files[0])]) == 1
    out = capsys.readouterr().out
    assert "violations: 1 " in out
    assert out.count("VIOLATION BOOT-GATE: sandbox 1 booted unverified") == 1
    assert "FIRST BOOT-GATE after directive 1/1: at 0ns create a= app=w" in out


@pytest.mark.parametrize("command", ["run", "explore"])
def test_unknown_mutation_flag_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--mutate", "no_such_flag"])
    assert exc.value.code == 2
    assert "no_such_flag" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "x.scn", "--seed", "3"],
                                  ["explore", "x.scn"]])
def test_removed_options_are_usage_errors(argv):
    """The seed labels only a trace's header, and explore takes its mutation
    flags from --mutate alone."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_explore_honest_shallow_is_clean(capsys):
    assert cli.main(["explore", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "violations:     0" in out
    lines = dict(line.split(":", 1) for line in out.splitlines())
    assert list(lines).index("wall seconds") == list(lines).index("max depth") + 1
    assert float(lines["wall seconds"]) > 0
    assert float(lines["states/s"]) > 0


def test_gen_pipes_into_run(tmp_path, capsys):
    assert cli.main(["gen", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    path = write(tmp_path, "gen.txt", text)
    assert cli.main(["run", path]) == 0
