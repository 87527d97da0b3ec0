"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \\
        --workdir DIR [--spans FILE]

Imports quotmotives from the checkout's ``src``, generates the job list
and writes the quiver files into ``--workdir`` (set-up ends here), then
runs every job through ``quotmotives.cli.main(argv)`` in-process with
stdout captured, times each one, checks every output exactly and prints
one JSON object on stdout.  With ``--trace 1`` the package is
instrumented first (see ``spans.py``) and the result carries the
per-layer metrics; ``--spans`` then names the gzip file the spans are
written to.

A job fails on a non-zero exit code, ``SystemExit``, an exception, an
output that fails its check, or (for the default seed) a stdout whose
SHA-256 differs from the recorded digest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(workload: str, seed: int, workdir: str):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import quotmotives.cli  # noqa: F401  (import time is part of set-up)
    from perfbench import workloads

    jobs = workloads.generate(workload, seed)
    argvs = []
    for job in jobs:
        argv = list(job.argv)
        if job.quiver is not None:
            path = os.path.join(workdir, f"{job.id}.quiver.json")
            with open(path, "w") as fh:
                json.dump(job.quiver, fh)
            argv = [path if a == workloads.QUIVER_ARG else a for a in argv]
        argvs.append(argv)
    return jobs, argvs


def _run_job(main, argv):
    """(exit code or failure text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception:  # a failed job is recorded, the pass goes on
            code = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
    return code, out.getvalue(), err.getvalue()


def judge(jobs, results, golden: dict | None) -> list:
    """One record per job; ``failure`` is None or the reason it failed.

    ``results`` holds (seconds, exit code or failure text, stdout,
    stderr) per job; ``golden`` maps job keys to stdout digests.
    """
    from perfbench import checks

    outputs = {job.id: res[2] for job, res in zip(jobs, results)}
    records = []
    for job, (seconds, code, out, err) in zip(jobs, results):
        if code != 0:
            reason = f"exit {code}: {err.strip()[:300]}"
        else:
            reason = checks.check_job(job, out, outputs)
        sha = checks.digest(out)
        if reason is None and golden is not None and golden.get(job.key) != sha:
            reason = f"stdout digest {sha[:12]} != golden {str(golden.get(job.key))[:12]}"
        records.append({"id": job.id, "argv": list(job.argv), "key": job.key,
                        "seconds": seconds, "bytes": len(out.encode()),
                        "sha256": sha, "failure": reason})
    return records


def run_pass(workload: str, seed: int, trace: bool, workdir: str,
             spans_path: str | None = None) -> dict:
    jobs, argvs = _setup(workload, seed, workdir)
    setup_end = time.monotonic()

    from quotmotives import active_backend, cli
    from perfbench import checks, spans

    recorder = spans.SpanRecorder() if trace else None
    if trace:
        spans.instrument(recorder)
    main = cli.main  # looked up after instrumenting, so the traced main runs

    results = []
    pass_start = time.perf_counter()
    for i, argv in enumerate(argvs):
        t0 = time.perf_counter()
        if trace:
            code, out, err = recorder.job_span(i, _run_job, main, argv)
        else:
            code, out, err = _run_job(main, argv)
        results.append((time.perf_counter() - t0, code, out, err))
    wall = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = judge(jobs, results, checks.load_golden(workload, seed))
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "slowest_job_s": max(r[0] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "backend": active_backend(),
        "jobs": records,
    }
    if trace:
        layers = spans.layer_metrics(recorder)
        layers["cli.output_bytes"] = sum(r["bytes"] for r in records)
        raw = sum(int(checks.parse_oracle(res[2])["raw_stable_count"])
                  for j, res, r in zip(jobs, results, records)
                  if j.check["kind"] == "oracle" and r["failure"] is None)
        kernel_s = layers["oracle.kernel_s"]
        layers["oracle.stable_per_s"] = raw / kernel_s if kernel_s else 0.0
        layers["trace.wall_s"] = wall
        layers["trace.spans"] = len(recorder)
        result["layers"] = layers
        if spans_path:
            recorder.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.workdir,
                      args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
