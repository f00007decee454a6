"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public entry points of each `naryalg` layer
with wrappers that record spans (time inside a call) and counts, and
`Tracer.restore` puts every original object back.  A function imported by
name into other modules (`from .tensors import sort_sign`) is replaced in
every module that holds it, so calls from any layer are seen.  A target that
no longer exists is reported as absent and skipped.

Which end-to-end metric each per-layer metric should move:

  cohomology.assemble_s/_calls, cohomology.coboundary_calls
      wall_s on complexes and complexes-dense; about 0 on checks
  nary_cohomology.assemble_s/_calls, nary_cohomology.eval_calls
      wall_s on complexes (the FA jobs are mostly assembly)
  matrix.rows/cols/nnz/density
      explain linalg.* and peak_rss_mb; separate complexes from complexes-dense
  linalg.rank_s/_calls, linalg.solve_s/_calls, linalg.rref_cells
      wall_s on complexes-dense most, then complexes; peak_rss_mb
  linalg.rank_sum
      never moves (a correctness count)
  tensors.*_calls, filippov.f_row_calls, lie.c_row_calls
      wall_s on complexes (sort_sign) and checks (gen_kronecker)
  identity.s/calls, tensors.eps_s, filippov.clifford_s, poisson.s,
  poisson.schouten_calls
      wall_s on checks
  algfile.parse_s/build_s/emit_s, cli.self_s
      wall_s on checks; setup_s
  trace.overhead_frac
      none; traced wall over untraced wall, minus one
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric stem, module, attribute) -> what the wrapper records.
# "span": time and calls under the stem; "count": calls only.
SPANS = [
    ("cohomology.assemble", "cohomology", "coboundary_matrix"),
    ("nary_cohomology.assemble", "nary_cohomology", "coboundary_matrix"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.solve", "linalg", "solve"),
    ("identity", "lie", "check_jacobi"),
    ("identity", "lie", "check_metric_invariance"),
    ("identity", "filippov", "check_fi"),
    ("identity", "filippov", "check_metric_fa"),
    ("identity", "gla", "check_gji"),
    ("tensors.eps", "tensors", "eps_identities_check"),
    ("filippov.clifford", "filippov", "clifford_realization"),
    ("poisson", "poisson", "gps_check"),
    ("poisson", "poisson", "np_check"),
    ("algfile.parse", "algfile", "AlgebraFile.parse"),
    ("algfile.build", "algfile", "AlgebraFile.build"),
    ("algfile.emit", "algfile", "AlgebraFile.emit"),
    ("cli", "cli", "main"),
]
COUNTS = [
    ("cohomology.coboundary_calls", "cohomology", "coboundary"),
    ("nary_cohomology.eval_calls", "nary_cohomology", "coboundary_trivial_eval"),
    ("nary_cohomology.eval_calls", "nary_cohomology", "coboundary_module_eval"),
    ("nary_cohomology.eval_calls", "nary_cohomology", "coboundary_deformation_eval"),
    ("tensors.sort_sign_calls", "tensors", "sort_sign"),
    ("tensors.perm_sign_calls", "tensors", "perm_sign"),
    ("tensors.shuffle_splits_calls", "tensors", "shuffle_splits"),
    ("tensors.gen_kronecker_calls", "tensors", "gen_kronecker"),
    ("filippov.f_row_calls", "filippov", "FilippovAlgebra.f_row"),
    ("lie.c_row_calls", "lie", "LieAlgebra.c_row"),
    ("poisson.schouten_calls", "poisson", "schouten_bracket"),
]
# rref adds the cells of the matrix it is given (rows x cols), not 1 per call
RREF = ("linalg.rref_cells", "linalg", "rref")

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "cohomology.assemble_s": "s", "cohomology.assemble_calls": "count",
    "cohomology.coboundary_calls": "count",
    "nary_cohomology.assemble_s": "s", "nary_cohomology.assemble_calls": "count",
    "nary_cohomology.eval_calls": "count",
    "matrix.rows": "count", "matrix.cols": "count", "matrix.nnz": "count",
    "matrix.density": "ratio",
    "linalg.rank_s": "s", "linalg.rank_calls": "count", "linalg.solve_s": "s",
    "linalg.solve_calls": "count", "linalg.rref_cells": "count", "linalg.rank_sum": "count",
    "tensors.sort_sign_calls": "count", "tensors.perm_sign_calls": "count",
    "tensors.shuffle_splits_calls": "count", "tensors.gen_kronecker_calls": "count",
    "filippov.f_row_calls": "count", "lie.c_row_calls": "count",
    "identity.s": "s", "identity.calls": "count",
    "tensors.eps_s": "s", "filippov.clifford_s": "s",
    "poisson.s": "s", "poisson.schouten_calls": "count",
    "algfile.parse_s": "s", "algfile.build_s": "s", "algfile.emit_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _resolve(module, attr):
    """(owner, name, raw attribute) or None when the target is missing."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


def _matrix_size(mat):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    nnz = sum(1 for row in mat for v in row if v != 0)
    return rows, cols, nnz


PACKAGE = "naryalg"


class Tracer:
    """Spans and counts summed over every pass run while installed.

    Span time is inclusive; the self time of a stem subtracts the time of
    spans started inside it.  A span nested in a span of the same stem is not
    added twice.  `clock` times the spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._saved = []  # (owner, name, raw original)
        self.absent = []
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.rank_sum = 0
        self.matrices = []  # [rows, cols, nnz, rank or None]
        self._stack = []    # [stem, start, child time]
        self._active = defaultdict(int)

    # -- wrappers -------------------------------------------------------------
    def _span(self, stem, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stem, self.clock(), 0.0]
            self._stack.append(frame)
            self._active[stem] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - frame[1]
                self._stack.pop()
                self._active[stem] -= 1
                if self._stack:
                    self._stack[-1][2] += dur
                if not self._active[stem]:
                    self.time[stem] += dur
                self.self_time[stem] += dur - frame[2]
                self.calls[stem] += 1
            self._observe(stem, args, result)
            return result
        return wrapper

    def _count(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cells(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(mat, *args, **kwargs):
            self.calls[metric] += len(mat) * (len(mat[0]) if mat else 0)
            return fn(mat, *args, **kwargs)
        return wrapper

    def _observe(self, stem, args, result):
        """Sizes of returned matrices and ranks, outside the timed span."""
        if stem.endswith(".assemble"):
            self.matrices.append(list(_matrix_size(result[0])) + [None])
        elif stem == "linalg.rank":
            self.rank_sum += result
            last = self.matrices[-1] if self.matrices else None
            if last is not None and last[3] is None and last[0] == len(args[0]):
                last[3] = result

    # -- install / restore -----------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        done = set()
        for wrap, specs in ((self._span, SPANS), (self._count, COUNTS), (self._cells, [RREF])):
            for stem, modname, attr in specs:
                module = sys.modules.get(f"{PACKAGE}.{modname}")
                found = _resolve(module, attr) if module is not None else None
                if found is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                owner, name, raw = found
                if isinstance(owner, type):
                    is_cm = isinstance(raw, classmethod)
                    new = wrap(stem, raw.__func__ if is_cm else raw)
                    self._saved.append((owner, name, raw))
                    setattr(owner, name, classmethod(new) if is_cm else new)
                elif id(raw) not in done:
                    done.add(id(raw))
                    new = wrap(stem, raw)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is raw:
                                self._saved.append((mod, key, raw))
                                setattr(mod, key, new)

    def restore(self):
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved = []

    # -- results ----------------------------------------------------------------
    def metrics(self, passes):
        """Per-pass means of the recorded spans and counts."""
        n = max(passes, 1)
        rows = sum(m[0] for m in self.matrices)
        cols = sum(m[1] for m in self.matrices)
        nnz = sum(m[2] for m in self.matrices)
        cells = sum(m[0] * m[1] for m in self.matrices)
        out = {
            "matrix.rows": rows / n, "matrix.cols": cols / n, "matrix.nnz": nnz / n,
            "matrix.density": nnz / cells if cells else 0.0,
            "linalg.rank_sum": self.rank_sum / n,
            "cli.self_s": self.self_time["cli"] / n,
        }
        for stem in ("cohomology.assemble", "nary_cohomology.assemble",
                     "linalg.rank", "linalg.solve"):
            out[f"{stem}_s"] = self.time[stem] / n
            out[f"{stem}_calls"] = self.calls[stem] / n
        out["identity.s"] = self.time["identity"] / n
        out["identity.calls"] = self.calls["identity"] / n
        out["poisson.s"] = self.time["poisson"] / n
        for stem in ("tensors.eps", "filippov.clifford", "algfile.parse",
                     "algfile.build", "algfile.emit"):
            out[f"{stem}_s"] = self.time[stem] / n
        for metric, _, _ in COUNTS + [RREF]:
            out[metric] = self.calls[metric] / n
        return out
