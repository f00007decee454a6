"""Benchmark runner for naryalg.

    python3 bench/run.py --workload complexes --seed 1 --seconds 30 --trace 0

Run from the repository root.  Runs one workload in its own worker process
under a wall-clock limit and prints every metric by name and unit, a
diagnostics line, and as the last line of standard output one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of untraced passes:
  wall_s       mean pass time, first job's start to last verdict
  setup_s      median time to import naryalg and build the inputs
  peak_rss_mb  peak resident memory of the worker process, by the end of its
               passes (before it repeats set-up to time it)
  pass_frac    jobs that passed / jobs attempted (1 - fail_frac)
Both times are rescaled to the machine's nominal speed: while a pass or a
set-up runs, the worker times a fixed calibration loop every 50 ms, and each
time is multiplied by NOMINAL_CAL_S x (mean of 1 / calibration time over the
samples taken during it).  On a shared machine whose speed flips within a
second between states nearly 2x apart, this keeps identical work reading the
same; the raw seconds and the speed factors are in the diagnostics line.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics listed in tracing.py.

A job fails when its answer is wrong, when it raises, when the CLI returns
the wrong exit code, or when the limit kills the worker before it finishes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import METRICS as LAYER_METRICS  # noqa: E402
from workloads import KNOWN, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}
# The whole run must end within 180 s; this leaves room to report.
LIMIT_S = 170.0
# Calibration loop time on a quiet 2-vCPU x86-64 VM with Python 3.11; it sets
# the scale of the reported seconds, not the comparison between commits.
NOMINAL_CAL_S = 0.0024


def git_revision(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(args, workdir):
    """Start the worker, wait up to the limit; returns (events, status, elapsed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=LIMIT_S)
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        status = f"killed after {LIMIT_S:g} s"
    elapsed = time.perf_counter() - t0
    if status != "ok" and err:
        sys.stderr.write(err[-4000:])
    events = [json.loads(line[7:]) for line in out.splitlines() if line.startswith("@bench ")]
    return events, status, elapsed


def tally(events, job_names, status):
    """Counts jobs; when the worker did not finish, the jobs of the pass it
    was in (or of one whole pass, if none started) count as failed."""
    attempted = failed = done = 0
    in_pass = False
    failures = []
    timings = {}
    for ev in events:
        if ev["event"] == "pass":
            in_pass, done = True, 0
        elif ev["event"] == "pass_end":
            in_pass = False
        elif ev["event"] == "job":
            attempted += 1
            done += 1
            info = timings.setdefault(ev["name"], {"s": []})
            info["s"].append(round(ev["s"], 6))
            for key in ("sizes", "matrices"):
                if key in ev and key not in info:
                    info[key] = ev[key]
            if not ev["ok"]:
                failed += 1
                failures.append({"job": ev["name"], "detail": ev.get("detail", ""),
                                 "expected": KNOWN[ev["name"]]})
    finished = status == "ok" and any(ev["event"] == "done" for ev in events)
    if not finished:
        started = any(ev["event"] == "pass" for ev in events)
        unfinished = len(job_names) - done if in_pass else (0 if started else len(job_names))
        attempted += unfinished
        failed += unfinished
        failures.append({"job": None, "detail": f"worker did not finish ({status}); "
                                                f"{unfinished} jobs unfinished"})
    return attempted, failed, failures, timings, finished


def main(argv=None):
    ap = argparse.ArgumentParser(description="naryalg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "naryalg" / "__init__.py").is_file():
        sys.stderr.write(f"naryalg sources not found under {ROOT / 'src'}\n")
        return 2

    job_names = [job.name for job in WORKLOADS[args.workload].jobs()]
    workdir = HERE / f".work-{os.getpid()}"
    try:
        events, status, elapsed = run_worker(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = next((ev["mb"] for ev in events if ev["event"] == "rss"),
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)

    attempted, failed, failures, timings, finished = tally(events, job_names, status)
    # [raw seconds, speed factor] per untraced pass, traced pass and set-up;
    # raw seconds x speed factor is the time at the nominal speed
    walls = {False: [], True: []}
    setups = []
    for ev in events:
        if ev["event"] == "pass_end":
            walls[ev["traced"]].append([ev["wall_s"], ev["inv_cal"] * NOMINAL_CAL_S])
        elif ev["event"] == "setup":
            setups.append([ev["s"], ev["inv_cal"] * NOMINAL_CAL_S])
    wall = {traced: [s * f for s, f in walls[traced]] for traced in walls}

    if args.trace:
        trace = next((ev for ev in events if ev["event"] == "trace"),
                     {"metrics": {}, "absent": []})
        values = {name: trace["metrics"].get(name, 0.0) for name in LAYER_METRICS}
        if wall[False] and wall[True]:
            values["trace.overhead_frac"] = (statistics.fmean(wall[True])
                                             / statistics.fmean(wall[False]) - 1)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        absent = trace["absent"]
    else:
        values = {
            "wall_s": statistics.fmean(wall[False]) if wall[False] else elapsed,
            "setup_s": statistics.median(s * f for s, f in setups) if setups else elapsed,
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        absent = []

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls[False])} untraced + {len(walls[True])} traced passes, "
          f"{attempted} jobs attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} fraction")
    for name in absent:
        print(f"  absent layer target: {name}")
    diagnostics = {
        "python": platform.python_version(), "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "status": status, "setup_raw_s_and_speed": setups,
        "pass_raw_s_and_speed": walls[False], "traced_pass_raw_s_and_speed": walls[True],
        "absent": absent, "failures": failures,
        "jobs": timings,
    }
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({"correct": finished and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
