"""Tests of the benchmark itself: tiny runs, validators and the tracer.

Run from the repository root:  python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

import tracer  # noqa: E402
import workloads  # noqa: E402
from latticeineq import certify, cli, core, kernels, lab  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def cli_output(*argv):
    runner = run.Runner(cli)
    captured = {}

    def keep(code, out):
        captured["out"] = out
        return None if code == 0 else f"exit code {code}"

    runner.call(workloads.Call(tuple(argv), 1, keep))
    assert runner.failed == 0
    return json.loads(captured["out"])


@pytest.fixture
def fast_setup(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: ([0.1], [0.1]))


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name, fast_setup):
    result, details = run.run(name, seed=3, seconds=0, trace=False, scale=0.05)
    assert result["correct"], details["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    result, details = run.run(name, seed=3, seconds=0, trace=True, scale=0.05)
    assert result["correct"], details["errors"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracer.LAYERS)
    assert shares <= 1.0
    assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)
    kernel_calls = sum(metrics[f"kernels.{fn}.calls"] for fn in tracer.TARGETS["kernels"])
    if name in ("fuzz", "check"):
        assert kernel_calls == 0
    else:
        assert kernel_calls > 0 and metrics["kernels.cells"] > 0


def test_self_times_sum_to_at_most_the_traced_wall_time():
    t = tracer.Tracer()
    original = certify.norm
    t.install()
    try:
        assert certify.norm is not original and lab.norm is certify.norm
        t0 = time.perf_counter()
        run.Runner(cli).call(workloads.fuzz_calls(5, scale=0.05)[0], t)
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    assert certify.norm is original and lab.norm is original and core.norm is original
    table = t.self_times()
    assert table["cli.main"][0] == 1 and table["fuzzing.run_instance"][0] == 5
    assert all(s >= 0 for _, s in table.values())
    assert sum(s for _, s in table.values()) <= wall


def test_missing_function_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(kernels, "unpack")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.self_times()["kernels.unpack"] == (0, 0.0)


def test_enumeration_closed_forms_match_the_known_counts():
    assert workloads.expected_enumeration(2, 4, 16) == {
        "total": 65535, "gn": 100, "iso": 30, "lw": 225}
    assert workloads.expected_enumeration(2, 5, 5) == {
        "total": 68405, "gn": 141, "iso": 41, "lw": 385}
    assert workloads.expected_enumeration(3, 2, 8) == {
        "total": 255, "gn": 27, "iso": 9, "lw": 27}


def test_validators_reject_tampered_enumeration():
    report = cli_output("enumerate", "--n", "2", "--box", "3")
    assert workloads.validate_enumeration(json.dumps(report), 2, 3, 9) is None
    for key, delta in (("total_checked", 1), ("mismatches", 1)):
        bad = dict(report, **{key: report[key] + delta})
        assert workloads.validate_enumeration(json.dumps(bad), 2, 3, 9)
    bad = dict(report, equality_counts=dict(report["equality_counts"], iso=0))
    assert workloads.validate_enumeration(json.dumps(bad), 2, 3, 9)


def test_validators_reject_tampered_anneal():
    trace = cli_output("search", "--mode", "anneal", "--n", "2", "--size", "5",
                       "--iters", "50", "--seed", "1")
    assert workloads.validate_anneal(json.dumps(trace), 2, 5, 50) is None
    assert workloads.validate_anneal(json.dumps(trace), 2, 5, 51)
    bad = dict(trace, best_value=trace["best_value"] * 0.999)
    assert workloads.validate_anneal(json.dumps(bad), 2, 5, 50)
    points = trace["best_input"]["points"]
    bad = dict(trace, best_input={"dim": 2, "points": points[:-1] + [points[0]]})
    assert workloads.validate_anneal(json.dumps(bad), 2, 5, 50)


def test_validators_reject_tampered_fuzz_and_check(tmp_path):
    summary = cli_output("fuzz", "--n", "2", "--count", "3", "--threads", "1")
    assert workloads.validate_fuzz(json.dumps(summary), 2, 3) is None
    bad = dict(summary, chain=dict(summary["chain"], failures=1))
    assert workloads.validate_fuzz(json.dumps(bad), 2, 3)

    calls = workloads.write_check_corpus(4, str(tmp_path), scale=0.05)
    cuboid = next(c for c in calls if any("cuboid-" in a for a in c.argv))
    argv = [a if a != "csv" else "json" for a in cuboid.argv]
    doc = cli_output(*argv)
    assert workloads.validate_check(0, json.dumps(doc), "json", 5, True) is None
    gn = next(r for r in doc["reports"] if r["inequality"] == "GN")
    gn["relation"] = "STRICT"
    assert workloads.validate_check(0, json.dumps(doc), "json", 5, True)
    gn["relation"] = "VIOLATED"
    assert workloads.validate_check(0, json.dumps(doc), "json", 5, False)
    assert workloads.validate_check(1, json.dumps(doc), "json", 5, False)


def test_failed_calls_are_counted_not_fatal():
    runner = run.Runner(cli)
    exit0 = workloads._exit0(lambda out: None)
    for argv, validate in (
        (("enumerate", "--n", "1", "--box", "2"), exit0),       # exit code 2
        (("enumerate", "--no-such-flag"), exit0),                 # argparse exit
        (("enumerate", "--n", "2", "--box", "2"),                 # validator raises
         lambda code, out: json.loads(out)["no-such-key"]),
    ):
        assert runner.call(workloads.Call(argv, 3, validate))[1] == 0
    assert (runner.attempted, runner.failed) == (3, 3)


def test_same_seed_same_inputs(tmp_path):
    corpora = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        calls = workloads.write_check_corpus(7, str(tmp_path / sub), scale=0.05)
        corpora.append([Path(c.argv[c.argv.index("--input") + 1]).read_bytes() for c in calls])
    assert corpora[0] == corpora[1]
    assert [c.argv for c in workloads.fuzz_calls(7)] == [c.argv for c in workloads.fuzz_calls(7)]


def test_setup_time_is_measured_in_a_fresh_interpreter():
    scaled, wall = run.measure_setup(repeats=1)
    assert len(scaled) == len(wall) == 1 and scaled[0] > 0 and wall[0] > 0


def test_host_speed_scales_by_the_reference_loop_near_each_step():
    speed = run.HostSpeed()
    speed.ends = [1.0, 1.5, 2.0, 10.0]
    speed.durations = [2e-3, 4e-3, 3e-3, 1e-3]
    # samples within PAD_S of [1.0, 2.0]: mean(2, 4, 3) ms against 1 ms nominal
    assert speed.seconds(1.0, 2.0) == pytest.approx(1.0 / 3)
    assert speed.seconds(9.99, 10.0) == pytest.approx(0.01)
    with pytest.raises(RuntimeError):
        speed.seconds(5.0, 6.0)


def test_host_speed_thread_samples_and_stops():
    with run.HostSpeed() as speed:
        time.sleep(0.2)
    assert not speed._thread.is_alive()
    assert len(speed.durations) >= 3 and all(d > 0 for d in speed.durations)


def test_pinning_restores_the_affinity():
    before = os.sched_getaffinity(0)
    with run.pinned_to_one_cpu() as cpu:
        assert cpu is None or os.sched_getaffinity(0) == {cpu}
    assert os.sched_getaffinity(0) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
