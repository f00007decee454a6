"""Batch front-end: validate algebra files against their identity/metric/
cohomology suites, generate the catalog algebras, compute cohomology
dimension reports, and run the Poisson-tensor checks.

Machine-readable results go to stdout as JSON lines; a human summary goes to
stderr.  Exit codes: 0 all checks passed, 1 at least one check failed,
2 input error.

The argument parser is built on the first `main` call and reused by every
later one in the process (`_parser`): `parse_args` keeps nothing on it, so a
call sees the parser a fresh process would build.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import catalog, linalg
from .algfile import AlgebraFile, ParseError
from .filippov import FI_FORMS, FARepresentation, FilippovAlgebra, check_fi, check_metric_fa
from .gla import GLAlgebra, check_gji
from .lie import LieAlgebra, check_jacobi, check_metric_invariance
from .nary_cohomology import FAComplex, LeibnizAlgebra
from .cohomology import CEComplex, complex_dims
from .poisson import gps_check, np_check, plucker_check, schouten_bracket
from .tensors import AntisymTensor, IdentityReport

DEFAULT_MAX_DIM = 8
# the most coordinates a cochain space may have before a coboundary into it
# is assembled: above every complex the tests and the benchmark reach (nhw2's
# deformation C^3 has 108,045), far below A4's trivial C^10 at --pmax 9 (40.3M)
MAX_COCHAIN_DIM = 250_000


def max_dim():
    return int(os.environ.get("NARY_MAX_DIM", DEFAULT_MAX_DIM))


def _emit(record):
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _human(msg):
    sys.stderr.write(msg + "\n")


class CheckRun:
    def __init__(self):
        self.failed = 0
        self.count = 0

    def record(self, name, report):
        ok, witness = report.ok, report.witness
        self.count += 1
        if not ok:
            self.failed += 1
        rec = {"check": name, "verdict": "pass" if ok else "fail"}
        if witness is not None and not ok:
            rec["counterexample"] = _jsonable(witness)
        _emit(rec)
        _human(f"  {'ok  ' if ok else 'FAIL'} {name}"
               + ("" if ok or witness is None else f"  at {witness}"))

    @property
    def exit_code(self):
        return 0 if self.failed == 0 else 1


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x if isinstance(x, (int, str, bool, type(None))) else str(x)


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------

def identity_suite(obj, run: CheckRun):
    if isinstance(obj, LieAlgebra):
        reports = [("jacobi", check_jacobi(obj))]
    elif isinstance(obj, GLAlgebra):
        reports = [("generalized-jacobi", check_gji(obj))]
    elif isinstance(obj, FilippovAlgebra):
        reports = [(f"filippov-identity-{form}", check_fi(obj, form)) for form in FI_FORMS]
    else:  # a Leibniz algebra: `cmd_check` refuses a multivector file
        reports = [("left-leibniz-identity", obj.check_left_identity())]
    for name, rep in reports:
        run.record(name, rep)


def metric_suite(obj, metric, run: CheckRun):
    if metric is None:
        metric = linalg.identity(obj.dim)
        _human("  (no metric block; using the identity matrix)")
    nondegenerate = ("metric-nondegenerate", linalg.nondegenerate(metric))
    if isinstance(obj, LieAlgebra):
        records = [("metric-invariance", check_metric_invariance(obj, metric)), nondegenerate]
    else:  # a Filippov algebra: `cmd_check` runs the suite on these two alone
        records = [nondegenerate, ("metric-invariance", check_metric_fa(obj, metric))]
    for name, rep in records:
        run.record(name, rep)


def cohomology_suite(cx, run: CheckRun, p_max):
    rep = complex_dims(cx, p_max)
    kind = {} if cx.kind == "ce" else {"complex": cx.kind}
    _emit({"check": "cohomology-dims", **kind, "H": _jsonable(rep.dims_h)})
    run.record("cohomology-consistent", IdentityReport(all(v >= 0 for v in rep.dims_h.values())))


def _oversized(cx, p_max):
    """The message for the first cochain space C^p of the complex cx, p <=
    p_max + 1 (the target of delta_{p_max}), with more than MAX_COCHAIN_DIM
    coordinates; None when every one fits (every space above a zero one is
    zero)."""
    for p in range(p_max + 2):
        size = cx.dim(p)
        if size > MAX_COCHAIN_DIM:
            return (f"C^{p} of the {cx.kind} complex has {size:,} coordinates, "
                    f"above the ceiling of {MAX_COCHAIN_DIM:,}: lower --pmax")
        if not size:
            break
    return None


def _check_dim(dim):
    if dim > max_dim():
        raise ValueError(f"dimension {dim} above the cap {max_dim()}"
                         " (override with NARY_MAX_DIM)")


def _load(path):
    """Parse and build an algebra file whose dimension is within the cap,
    which is checked on the header, before the body is read."""
    with open(path) as fh:
        af = AlgebraFile.parse(fh.read(), _check_dim)
    return af, af.build()


def _input_error(msg):
    """Report an input error on stderr; returns exit code 2."""
    _human(f"input error: {msg}")
    return 2


def _refuse(msg):
    """Report an input error of `check` on stderr and as an error record."""
    _emit({"error": msg})
    return _input_error(msg)


def cmd_check(args) -> int:
    try:
        af, obj = _load(args.path)
    except (OSError, ParseError, ValueError) as exc:
        return _refuse(str(exc))
    if af.kind == "multivector" and args.suite != "cohomology":
        return _refuse(f"--suite {args.suite} applies to algebra files: "
                       "check a multivector file with naryalg poisson")
    suites = ("identity", "metric", "cohomology") if args.suite == "all" else (args.suite,)
    cx = None  # the complex of the cohomology suite, for a Lie or Filippov algebra
    if "cohomology" in suites and isinstance(obj, (LieAlgebra, FilippovAlgebra)):
        lie = isinstance(obj, LieAlgebra)
        cx = CEComplex(obj) if lie else FAComplex(obj, "trivial")
        p_max = min(args.pmax + 1, obj.dim) if lie else args.pmax
        msg = _oversized(cx, p_max)
        if msg:
            return _refuse(msg)
    run = CheckRun()
    _human(f"{args.path}: {af.kind} arity={af.arity} dim={af.dim}")
    for suite in suites:
        if suite == "identity":
            identity_suite(obj, run)
        elif suite == "metric":
            if isinstance(obj, (GLAlgebra, LeibnizAlgebra)):
                if args.suite != "all":
                    _human("  metric suite not applicable; skipping")
                continue
            metric_suite(obj, af.metric, run)
        elif suite == "cohomology":
            if cx is None:
                if args.suite != "all":
                    _human("  cohomology suite not applicable; skipping")
                continue
            cohomology_suite(cx, run, p_max)
    _human(f"{run.count - run.failed}/{run.count} checks passed")
    return run.exit_code


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        obj = _generate_object(args)
    except ValueError as exc:
        return _input_error(str(exc))
    af = AlgebraFile.from_object(obj)
    text = af.emit()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _input_error(f"cannot write {args.output}: {exc.strerror or exc}")
        _human(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _generate_object(args):
    """The object of a `generate` kind, its dimension checked against the cap
    before anything is built."""
    kind = args.kind
    _check_dim({"simple-fa": args.n + 1, "clifford": args.n + 1, "nhw": 3 * args.N + 1,
                "heisenberg": 3, "gla-from-su": 8}.get(kind, 0))
    if kind == "simple-fa":
        signs = args.signs or "+" * (args.n + 1)
        if set(signs) - {"+", "-"}:
            raise ValueError(f"--signs takes only + and -, got {signs!r}")
        from .filippov import simple_fa
        return simple_fa(args.n, [1 if ch == "+" else -1 for ch in signs])
    if kind == "gla-from-su":
        if (args.n, args.m) != (3, 3):
            raise ValueError("available desk-scale generation: n=3 m=3")
        return catalog.su3_gla4()
    if kind == "heisenberg":
        return catalog.heisenberg()
    if kind == "nhw":
        return catalog.nhw(args.N)
    if kind == "clifford":
        from .filippov import clifford_realization
        induced, rep = clifford_realization(args.n)
        if not rep.ok:
            raise AssertionError("realization failed to reproduce the simple algebra")
        return induced
    raise ValueError(f"unknown generation kind {kind!r}")


# ---------------------------------------------------------------------------
# cohomology reports
# ---------------------------------------------------------------------------

def cmd_cohomology(args) -> int:
    try:
        _, obj = _load(args.path)
    except (OSError, ParseError, ValueError) as exc:
        return _input_error(str(exc))
    p_max = args.pmax
    if isinstance(obj, LieAlgebra):
        if args.complex not in ("ce", "trivial"):
            return _input_error("binary algebras use the ce complex")
        identity, rep = "Jacobi", check_jacobi(obj)
        cx = CEComplex(obj, obj.adjoint_rep() if args.rep == "ad" else None)
        p_max = min(p_max, obj.dim)  # every cochain space above the dimension is zero
    elif isinstance(obj, FilippovAlgebra):
        if args.complex not in ("trivial", "module", "deformation"):
            return _input_error("n-ary complexes are trivial|module|deformation")
        if args.rep == "ad" and args.complex != "module":
            return _input_error(f"--rep ad applies to the module complex, not {args.complex}")
        identity, rep = "Filippov", check_fi(obj)
        rho = None  # the module complex of rho None is the adjoint one
        if args.complex == "module" and args.rep == "0":
            # the one-dimensional trivial module: every rho(X) is zero
            rho = FARepresentation({lab: {} for lab in
                                    combinations(range(1, obj.dim + 1), obj.arity - 1)}, 1)
        cx = FAComplex(obj, args.complex, rho)
    else:
        return _input_error("cohomology applies to lie or filippov files")
    if not rep.ok:  # then delta does not square to zero: no cohomology to report
        return _input_error(f"the algebra fails the {identity} identity at {rep.witness}")
    msg = _oversized(cx, p_max)
    if msg:
        return _input_error(msg)
    rep = complex_dims(cx, p_max)
    for p in sorted(rep.dims_h):
        _emit({"degree": p, "dim_c": rep.dims_c[p], "dim_z": rep.dims_z[p],
               "dim_b": rep.dims_b[p], "dim_h": rep.dims_h[p]})
    _human(f"H = { {p: rep.dims_h[p] for p in sorted(rep.dims_h)} }")
    return 0


# ---------------------------------------------------------------------------
# poisson checks
# ---------------------------------------------------------------------------

def cmd_poisson(args) -> int:
    try:
        _, obj = _load(args.path)
    except (OSError, ParseError, ValueError) as exc:
        return _input_error(str(exc))
    if not isinstance(obj, AntisymTensor):
        return _input_error("poisson checks apply to multivector files")
    run = CheckRun()
    if args.check == "gps":
        try:
            run.record("self-bracket-zero", gps_check(obj))
        except ValueError as exc:
            return _input_error(str(exc))
    elif args.check == "np":
        differential, algebraic = np_check(obj)
        run.record("differential-condition", differential)
        run.record("algebraic-condition", algebraic)
        if obj.entries and all(p.is_constant() for p in obj.entries.values()):
            const = {k: p.eval([0] * obj.dim) for k, p in obj.entries.items()}
            _emit({"decomposable": plucker_check(obj.rank, obj.dim, const).ok})
    elif args.check == "snb-self":
        run.record("snb-self", IdentityReport(schouten_bracket(obj, obj).is_zero()))
    _human(f"{run.count - run.failed}/{run.count} checks passed")
    return run.exit_code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def degree(text):
    p = int(text)
    if p < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {p}")
    return p


@cache
def _parser():
    """The parser of every `main` call, built on the first one."""
    ap = argparse.ArgumentParser(prog="naryalg",
                                 description="exact checks for n-ary bracket algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run validation suites on an algebra file")
    p.add_argument("path")
    p.add_argument("--suite", choices=("identity", "metric", "cohomology", "all"),
                   default="identity")
    p.add_argument("--pmax", type=degree, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="emit a catalog algebra file")
    p.add_argument("kind", choices=("simple-fa", "gla-from-su", "heisenberg",
                                    "nhw", "clifford"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--signs", default=None,
                   help="e.g. --signs ++++, or --signs=-+++ for a string that starts with -")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cohomology", help="exact cohomology dimensions")
    p.add_argument("path")
    p.add_argument("--complex", choices=("ce", "trivial", "module", "deformation"),
                   default="ce")
    p.add_argument("--rep", choices=("0", "ad"), default="0")
    p.add_argument("--pmax", type=degree, default=2)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("poisson", help="multivector tensor checks")
    p.add_argument("path")
    p.add_argument("--check", choices=("gps", "np", "snb-self"), default="np")
    p.set_defaults(func=cmd_poisson)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
