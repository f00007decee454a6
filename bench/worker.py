"""One workload in one process: set up, run passes, stream events.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

`run.py` starts this under a wall-clock limit.  Every event is one line
`@bench {json}` on standard output, written as it happens, so a run that is
killed still tells the runner which jobs finished.  Set-up imports `naryalg`
afresh and builds the inputs; it runs once before the passes and is repeated
after them, SETUP_REPEATS times in all.  The peak resident memory is taken
before the repeats, so it covers one set-up and the passes.  A speed probe
samples the machine's speed throughout, outside the measured times (see
SpeedProbe).

Passes run one job at a time, in order, on one thread (a closed loop).  A new
pass (in a traced run, a new untraced/traced pair on the same inputs) starts
only while the mean time per pass so far still fits in `--seconds`, which
counts pass time only, not set-up or calibration.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPEATS = 7
CALIBRATION_STEPS = 1000
PROBE_INTERVAL_S = 0.05
MODULES = ("algfile", "catalog", "cli", "cohomology", "filippov", "gla", "lie",
           "linalg", "nary_cohomology", "poisson", "tensors")


def emit(event, **fields):
    sys.__stdout__.write("@bench " + json.dumps({"event": event, **fields}) + "\n")
    sys.__stdout__.flush()


def forget_naryalg():
    """Drop an earlier import of the package and collect it, so that the next
    import starts from scratch and the old modules, which hold reference
    cycles, are neither collected inside a timed set-up nor left to pile up."""
    for key in [k for k in sys.modules if k == "naryalg" or k.startswith("naryalg.")]:
        del sys.modules[key]
    gc.collect()


def import_naryalg():
    """Import the package, as a new process would after `forget_naryalg`."""
    importlib.import_module("naryalg")
    return SimpleNamespace(**{m: importlib.import_module(f"naryalg.{m}") for m in MODULES})


def calibrate():
    """Time a fixed piece of stdlib work of the kind the library does
    (rational arithmetic, dict and tuple operations)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, CALIBRATION_STEPS):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 13, i % 7)] = acc
        sorted((i % 11, i % 3, i % 5))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while the worker runs.

    A timer signal interrupts the worker every PROBE_INTERVAL_S seconds and
    times `calibrate`.  On a shared machine whose speed flips within a second
    between states that differ by nearly 2x, samples spread evenly in time
    estimate the speed during a job far better than loops timed between
    jobs.  `clock` is a timer that stops while the probe runs; `since` gives
    the clock time since a mark and the mean of 1 / calibration time over
    the samples taken since the mark, and run.py multiplies the two to
    rescale times.
    """

    def __init__(self):
        self.spent = 0.0
        self.inv = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.inv.append(1 / calibrate())
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self):
        return time.perf_counter() - self.spent

    def mark(self):
        return self.clock(), len(self.inv)

    def since(self, mark):
        elapsed = self.clock() - mark[0]
        if len(self.inv) == mark[1]:  # shorter than one interval
            self._sample()
        return elapsed, statistics.fmean(self.inv[mark[1]:])


def set_up(workload, seed, workdir, probe):
    """Fresh import plus input build, timed and reported; returns the inputs."""
    forget_naryalg()
    mark = probe.mark()
    inp = workload.setup(import_naryalg(), seed, workdir)
    s, inv_cal = probe.since(mark)
    emit("setup", s=s, inv_cal=inv_cal)
    return inp


def run_pass(jobs, inp, index, probe, tracer=None, reference=None):
    """Run every job once; returns (wall seconds without the probe's time,
    answers by job name).

    With a tracer the answers must also equal `reference`, the answers of
    the untraced pass on the same inputs.
    """
    emit("pass", index=index, traced=tracer is not None)
    answers = {}
    pass_mark = probe.mark()
    for job in jobs:
        m0 = len(tracer.matrices) if tracer else 0
        j0 = probe.clock()
        try:
            out = job.fn(inp)
        except Exception as exc:  # a job that raises is a failed job
            out = Outcome(False, None, f"{type(exc).__name__}: {exc}")
        dt = probe.clock() - j0
        if out.ok and reference is not None and out.answer != reference.get(job.name):
            out = Outcome(False, out.answer, "traced answer differs from untraced answer")
        rec = {"name": job.name, "ok": out.ok, "s": dt}
        if out.detail:
            rec["detail"] = out.detail
        if index == 0 and out.sizes:
            rec["sizes"] = out.sizes
        if tracer:
            rec["matrices"] = tracer.matrices[m0:]
        emit("job", **rec)
        answers[job.name] = out.answer
    wall, inv_cal = probe.since(pass_mark)
    emit("pass_end", index=index, wall_s=wall, inv_cal=inv_cal, traced=tracer is not None)
    return wall, answers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    jobs = workload.jobs()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    probe.start()
    inp = set_up(workload, args.seed, args.workdir, probe)
    tracer = Tracer(probe.clock) if args.trace else None
    measured = 0.0
    units = 0
    traced_passes = 0
    while True:
        if tracer is None:
            wall, _ = run_pass(jobs, inp, units, probe)
        else:
            wall, answers = run_pass(jobs, inp, 2 * units, probe)
            tracer.install()
            try:
                traced_wall, _ = run_pass(jobs, inp, 2 * units + 1, probe, tracer, answers)
            finally:
                tracer.restore()
            wall += traced_wall
            traced_passes += 1
        measured += wall
        units += 1
        if measured + measured / units > args.seconds:
            break
    emit("rss", mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    inp = None  # lets forget_naryalg collect the modules the inputs hold
    for _ in range(SETUP_REPEATS - 1):
        set_up(workload, args.seed, args.workdir, probe)
    probe.stop()
    if tracer is not None:
        emit("trace", metrics=tracer.metrics(traced_passes), absent=tracer.absent)
    emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
