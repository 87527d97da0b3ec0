"""Tests of the benchmark itself: input generation, checks, failure
accounting and the span arithmetic."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run, spans, workloads
from perfbench.worker import _run_job, judge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(12)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(workload):
    first = workloads.generate(workload, 3)
    again = workloads.generate(workload, 3)
    other = workloads.generate(workload, 4)
    assert [j.argv for j in first] == [j.argv for j in again]
    assert [j.quiver for j in first] == [j.quiver for j in again]
    assert len(other) == len(first)
    assert sorted(j.key for j in other) != sorted(j.key for j in first)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_job_repeats_and_counts_are_fixed(workload):
    counts = set()
    for seed in SEEDS:
        jobs = workloads.generate(workload, seed)
        assert len({j.key for j in jobs}) == len(jobs)
        assert len({j.id for j in jobs}) == len(jobs)
        counts.add(len(jobs))
    assert len(counts) == 1


def test_oracle_budget_guard():
    with pytest.raises(workloads.BudgetExceeded):
        workloads.admit((3, 1, 3, 2, True))  # runs for minutes in pure Python
    assert workloads.admit(workloads.STRETCH_CASE) == workloads.STRETCH_CASE
    for seed in SEEDS:
        for job in workloads.generate("oracle_grid", seed):
            case = job.check["case"]
            assert workloads.oracle_work(*case) <= workloads.ORACLE_CAP
        stretch = [j for j in workloads.generate("oracle_grid", seed)
                   if tuple(j.check["case"]) == workloads.STRETCH_CASE]
        assert len(stretch) == 1


def test_self_times_on_synthetic_tree():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 3 [2, 3]
    #   +- 2 [5, 9]
    #      +- 4 [6, 7]   overlapping siblings: union is [6, 8]
    #      +- 5 [6.5, 8]
    #   6 [11, 12] (second root)
    parent = [-1, 0, 0, 1, 2, 2, -1]
    start = [0.0, 1.0, 5.0, 2.0, 6.0, 6.5, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 7.0, 8.0, 12.0]
    got = spans.self_times(parent, start, end)
    assert got == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.5, 1.0])


def test_self_times_clip_children_to_parent():
    got = spans.self_times([-1, 0], [0.0, 2.0], [4.0, 6.0])
    assert got == pytest.approx([2.0, 4.0])


def _small_quot_job():
    spec = {"kind": "quot", "terms": [[0, 1], [1, 1]], "dim": 2, "rank": 2,
            "order": 4, "effective": True}
    argv = ("series", "--target", "quot", "--space",
            '{"terms": [[0, "1"], [1, "1"]]}', "--dim", "2", "--rank", "2",
            "--order", "4")
    return workloads.Job(argv, spec, None, "j00")


def test_failed_jobs_are_counted():
    from quotmotives.cli import main

    job = _small_quot_job()
    code, out, err = _run_job(main, list(job.argv))
    assert code == 0 and checks.check_job(job, out, {}) is None

    corrupted = out.replace('"2"', '"3"', 1)
    assert corrupted != out

    def exits(argv):
        raise SystemExit(2)

    def raises(argv):
        raise ArithmeticError("invariant broken")

    results = [(0.1, code, out, err), (0.1, code, corrupted, err),
               (0.1, *_run_job(exits, [])), (0.1, *_run_job(raises, [])),
               (0.1, 1, out, "")]
    jobs = [workloads.Job(job.argv, job.check, None, f"j{i:02d}")
            for i in range(len(results))]
    records = judge(jobs, results, None)
    assert [r["failure"] is None for r in records] == [True, False, False, False, False]
    assert "SystemExit(2)" in records[2]["failure"]
    assert "ArithmeticError" in records[3]["failure"]

    golden = {job.key: checks.digest(out + " ")}
    assert judge(jobs[:1], results[:1], golden)[0]["failure"].startswith("stdout digest")
    golden = {job.key: checks.digest(out)}
    assert judge(jobs[:1], results[:1], golden)[0]["failure"] is None


def test_nilpotent_check_detects_a_wrong_dual():
    quiver = {"vertices": 1, "arrows": [[0, 0]]}
    smooth = json.dumps({"format": checks.SERIES_FORMAT, "order": 2, "arity": 1,
                         "terms": [[[0], {"terms": [[0, "1"]]}],
                                   [[1], {"terms": [[2, "1"]]}],
                                   [[2], {"terms": [[3, "1"], [4, "1"]]}]]})
    nilpotent = json.loads(smooth)
    nilpotent["terms"] = [[[0], {"terms": [[0, "1"]]}], [[1], {"terms": [[0, "1"]]}],
                          [[2], {"terms": [[0, "1"], [1, "1"]]}]]
    spec = {"kind": "nilpotent", "quiver": quiver, "framing": [1], "smooth": "s"}
    assert checks.check_nilpotent(json.dumps(nilpotent), spec, {"s": smooth}) is None
    nilpotent["terms"][2][1]["terms"][1][1] = "2"
    assert "dual" in checks.check_nilpotent(json.dumps(nilpotent), spec, {"s": smooth})


def test_instrumentation_records_layers_and_undoes():
    import quotmotives.cli as cli
    from quotmotives.rings import LaurentPoly

    original_mul = LaurentPoly.__mul__
    recorder = spans.SpanRecorder()
    restore = spans.instrument(recorder)
    try:
        assert cli.main is not cli.main.__wrapped__
        job = _small_quot_job()
        code, out, _ = recorder.job_span(0, _run_job, cli.main, list(job.argv))
    finally:
        restore()
    assert code == 0 and checks.check_job(job, out, {}) is None
    assert LaurentPoly.__mul__ is original_mul
    assert not hasattr(cli.main, "__wrapped__")

    names = set(recorder.names)
    assert {"cli:main", "quot:quot_series", "plethystic:exp_pleth",
            "series:TruncatedSeries.__mul__", "rings.laurent:LaurentPoly.__mul__",
            spans.JOB_SPAN} <= names
    metrics = spans.layer_metrics(recorder)
    assert metrics["rings.laurent.constructed"] > 0
    assert metrics["plethystic.power.calls"] == 1
    assert 0 < metrics["quot.cross_check_s"]
    assert metrics["rings.rational.calls"] == 0
    # every span lies in the job's root span, so self times add up to it
    root = recorder.end[0] - recorder.start[0]
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(root, rel=1e-6)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [e[:2] for e in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [p[:3] for p in spans.PER_LAYER]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "oracle_grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_bench_oracle_script_still_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "benchmarks/bench_oracle.py", "--quick"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "total" in proc.stdout
