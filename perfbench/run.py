#!/usr/bin/env python3
"""Seeded benchmark of the quotmotives CLI paths.

    python3 perfbench/run.py --workload closed_forms|partition_sums|oracle_grid \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Run from the repository root.  Each pass over the workload's job list
runs in a fresh worker process (``worker.py``), one at a time, so the
package's caches start cold as they do for a CLI user.  Passes repeat
until ``--seconds`` is used up.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics.  ``wall_s`` (one pass over the
  job list) and ``slowest_job_s`` (its longest job) are means over the
  passes: the host's speed switches between phases lasting 15-30 s,
  and a median of about ten passes jumps with whichever phase holds
  most of them, while the mean moves in proportion.  On a 2-vCPU KVM
  guest, the passes of ten closed_forms runs spread 0.16 between runs
  for the mean of ``wall_s`` and 0.21 for its median.  ``setup_s``
  (interpreter start, ``import quotmotives`` and input generation,
  measured from before the worker is spawned) and ``peak_rss_mb`` (the
  worker's maximum RSS) are medians over the passes.
* ``--trace 1``: the per-layer metrics of ``spans.PER_LAYER``, the (low)
  median over traced passes, which alternate with untraced ones so that
  ``trace.overhead_ratio`` compares the mean pass times of the same run.

Failed jobs are counted in ``failed`` (``failed_ratio`` in the summary
lines above the JSON).  Every run also writes its stamp (git sha, Python
version, active enumeration backend, nproc, seed, job count), the
per-pass records and, when traced, the spans of the first traced pass,
into ``.perfbench_out/`` of the checkout.

``--record-golden`` runs one pass of every workload at the default seed
and stores the SHA-256 of every job's stdout in ``golden.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, ROOT)

from perfbench import checks, spans, workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
HARD_LIMIT_S = 170  # every run must end within 180 s
END_TO_END = (("wall_s", "s", statistics.mean), ("slowest_job_s", "s", statistics.mean),
              ("setup_s", "s", statistics.median), ("peak_rss_mb", "MB", statistics.median))


class PassFailed(RuntimeError):
    """A worker crashed, timed out or printed no result."""


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload: str, seed: int, trace: bool, deadline: float,
               spans_path: str | None = None) -> dict:
    """Spawn one pass and return its result, with ``setup_s`` filled in."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
           "--workdir", workdir]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed("worker timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise PassFailed(f"worker printed no result: {proc.stdout[-200:]!r}") from None
    result["setup_s"] = result.pop("setup_end") - spawned
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` is used up; traced runs alternate
    untraced and traced passes and write the spans of the first traced one."""
    start = time.monotonic()
    stop = start + seconds
    hard = start + HARD_LIMIT_S
    job_count = len(workloads.generate(workload, seed))
    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    last = {}
    attempted = failed = 0
    failures = []
    for traced in itertools.cycle(kinds):
        now = time.monotonic()
        if now >= hard or (all(passes[k] for k in kinds) and now + last[traced] > stop):
            break
        spans_path = None
        if traced and not passes[True]:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}.tsv.gz")
        try:
            result = run_worker(workload, seed, traced, hard, spans_path)
        except PassFailed as exc:
            attempted += job_count
            failed += job_count
            failures.append(str(exc))
            break
        last[traced] = time.monotonic() - now
        passes[traced].append(result)
        attempted += len(result["jobs"])
        for job in result["jobs"]:
            if job["failure"] is not None:
                failed += 1
                failures.append(f"{job['id']} {' '.join(job['argv'])}: {job['failure']}")
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "failures": failures, "job_count": job_count,
            "elapsed_s": time.monotonic() - start}


def end_to_end(untraced: list) -> dict:
    return {name: {"value": average([p[name] for p in untraced]), "unit": unit}
            for name, unit, average in END_TO_END}


def per_layer(untraced: list, traced: list) -> dict:
    out = {}
    for name, unit, _, _ in spans.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (statistics.mean(p["wall_s"] for p in traced)
                     / statistics.mean(p["wall_s"] for p in untraced))
        else:
            value = statistics.median_low(p["layers"][name] for p in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def _summary(workload, trace, outcome, metrics, stamp) -> list:
    lines = [f"# perfbench {workload} trace={int(trace)} "
             + " ".join(f"{k}={v}" for k, v in stamp.items())]
    n = len(outcome["passes"][trace])
    means = {"wall_s", "slowest_job_s", "trace.overhead_ratio"}
    for name, m in metrics.items():
        how = "mean" if name in means else "median"
        lines.append(f"{name:<28} {m['value']:>14.6g} {m['unit']:<6} ({how} of {n})")
    lines.append(f"{'failed_ratio':<28} {outcome['failed'] / outcome['attempted']:>14.6g} "
                 f"ratio  ({outcome['failed']}/{outcome['attempted']} jobs)")
    if trace and metrics:
        wall = metrics["trace.wall_s"]["value"]
        shares = {layer: metrics[f"{layer}.self_s"]["value"] / wall
                  for layer in spans.LAYERS}
        top = max(shares, key=shares.get)
        lines.append(f"largest self-time layer: {top} ({shares[top]:.1%} of traced wall_s)")
    lines += [f"FAILED {f}" for f in outcome["failures"][:20]]
    return lines


def record_golden() -> int:
    golden = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        result = run_worker(workload, workloads.DEFAULT_SEED, False,
                            time.monotonic() + 600)
        bad = [j for j in result["jobs"] if j["failure"] is not None]
        if bad:
            print(f"{workload}: not recording, failed jobs {bad}", file=sys.stderr)
            return 1
        golden["workloads"][workload] = {j["key"]: j["sha256"] for j in result["jobs"]}
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quotmotives", "cli.py")):
        print(f"error: no quotmotives sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    trace = bool(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    outcome = run(args.workload, args.seed, args.seconds, trace)
    untraced, traced = outcome["passes"][False], outcome["passes"][True]
    complete = bool(untraced) and (bool(traced) or not trace)
    metrics = {}
    if complete:
        metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    backends = sorted({p["backend"] for p in untraced + traced})
    stamp = {"git": git_sha(), "python": platform.python_version(),
             "backend": ",".join(backends) or "unknown", "nproc": os.cpu_count(),
             "seed": args.seed, "jobs": outcome["job_count"]}
    for line in _summary(args.workload, trace, outcome, metrics, stamp):
        print(line)
    artifact = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(artifact, "w") as fh:
        json.dump({"stamp": stamp, "workload": args.workload, "metrics": metrics,
                   "attempted": outcome["attempted"], "failed": outcome["failed"],
                   "failures": outcome["failures"], "elapsed_s": outcome["elapsed_s"],
                   "passes": {"untraced": untraced, "traced": traced}}, fh)
    correct = complete and outcome["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
