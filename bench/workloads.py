"""Workload definitions: seeded inputs, the job lists and the known answers.

A workload is a fixed, ordered list of jobs.  Each job calls one public
`naryalg` entry point and checks the answer against the table `KNOWN`, which
also records where each expected answer comes from.  Inputs are built from
the workload seed alone, so the same seed gives byte-identical inputs.

This module imports nothing from `naryalg` at import time: the runner reads
the job lists without loading the library, and the worker hands the freshly
imported modules to `setup`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

SU3_H = [1, 0, 0, 1, 0, 1, 0, 0, 1]

THEORY_SU3 = ("theory: H(su(3)) = H(S^3 x S^5) (Chevalley-Eilenberg 1948); "
              "Euler characteristic 0")
THEORY_SU4 = "theory: H(su(4)) = H(S^3 x S^5 x S^7), so H^1 = H^2 = 0"
THEORY_WHITEHEAD = "theory: Whitehead lemmas, H^0 = H^1 = 0 for a nontrivial irreducible module"
THEORY_DER_A4 = "theory: H^0 = Der(A4) = so(4), dim 6; A4 is rigid (H^1 = 0); H^2 pinned at seed"
THEORY_DER_A5 = "theory: H^0 = Der(A5) = so(5), dim 10; A5 is rigid (H^1 = 0)"
PINNED_NHW2 = "pinned at seed: nhw2 trivial H^0 = 6, H^1 = 19 (Z/B/H consistency checked)"
PINNED_A4_MODULE = "pinned at seed: A4 adjoint module H^0 = H^1 = 0 (Z/B/H consistency checked)"
THEORY_A4_TRIVIAL = ("theory: simple FA has no central extensions (trivial H^0 = H^1 = 0); "
                     "H^2 pinned at seed")
INVARIANCE = "invariance: cohomology of an isomorphic copy equals the canonical answer; "
SOLVED = "delta w = target, recomputed independently"
CLI_PASS = "theory: a valid algebra passes its identity; CLI exit code 0"
CLI_FAIL = "negative control: catalog.corrupted copy fails with a counterexample; exit code 1"
GPS_NOT_NP = "paper: the su(3) linear 4-vector from the 5-cocycle is GPS but not NP"

# job name -> (expected answer, provenance)
KNOWN = {
    "ce-su3-p8": (SU3_H, THEORY_SU3),
    "ce-su4-p2": ([1, 0, 0], THEORY_SU4),
    "ce-su3-ad-p1": ([0, 0], THEORY_WHITEHEAD),
    "fa-a4-deformation-p2": ([6, 0, 0], THEORY_DER_A4),
    "fa-a5-deformation-p1": ([10, 0], THEORY_DER_A5),
    "fa-nhw2-trivial-p1": ([6, 19], PINNED_NHW2),
    "fa-a4-module-p1": ([0, 0], PINNED_A4_MODULE),
    "solve-su3-extension": (True, SOLVED),
    "solve-a4-deformation": (True, SOLVED),
    "solve-nhw2-extension": (True, SOLVED),
    "eps-identities-4-4": (True, "theory: Levi-Civita recursion identities"),
    "fi-ghost-a6": (True, "theory: the simple 5-ary algebra A6 satisfies the Filippov identity"),
    "gps-lie-poisson-su4": (True, "theory: a Lie-Poisson bivector is Poisson"),
    "cli-generate-clifford-5": (0, "paper: the Clifford realization reproduces the simple FA A6"),
    "cli-metric-su3-killing": (0, "theory: the Killing form is invariant and nondegenerate on su(3)"),
    "cli-metric-a13-signature": (0, "theory: diag(-1,1,1,1) is the invariant metric of A_{1,3}"),
    "cli-poisson-gps-lie-su3": (0, "theory: a Lie-Poisson bivector passes GPS"),
    "cli-poisson-np-lie-su3": (0, "theory: a Lie-Poisson bivector is Nambu-Poisson of order 2"),
    "cli-poisson-gps-lin4-su3": (0, GPS_NOT_NP),
    "cli-poisson-np-lin4-su3": (1, GPS_NOT_NP),
}
IDENTITY_FILES = ("su3", "heisenberg", "a4", "a13", "a5", "nhw2", "su3-gla4",
                  "nilpotent-leibniz", "clifford5")
CORRUPTED_FILES = ("su3", "a4", "a5", "su3-gla4")
for _name in IDENTITY_FILES:
    KNOWN[f"cli-identity-{_name}"] = (0, CLI_PASS)
for _name in CORRUPTED_FILES:
    KNOWN[f"cli-identity-corrupted-{_name}"] = (1, CLI_FAIL)

# How many seeded isomorphic copies `complexes-dense` builds.  Every pass
# runs every job on every copy, so each pass of a run measures the same
# inputs, and the run-to-run spread does not hinge on one draw of shears.
DENSE_COPIES = 3
for _k in range(DENSE_COPIES):
    KNOWN[f"ce-su3-dense{_k}-p8"] = (SU3_H, INVARIANCE + THEORY_SU3)
    KNOWN[f"fa-a4-dense{_k}-deformation-p1"] = ([6, 0], INVARIANCE + THEORY_DER_A4)
    KNOWN[f"fa-a4-dense{_k}-trivial-p2"] = ([0, 0, 0], INVARIANCE + THEORY_A4_TRIVIAL)
# Shears are applied until the structure constants have at least
# DENSE_RATIO times the canonical nonzero count, skipping any shear that
# would take them past DENSE_CAP times.  Elimination time grows with the
# nonzero count, so the narrow band keeps the cost of a copy, and a run's
# time, from hinging on how far one draw of shears overshoots.
DENSE_RATIO = 3
DENSE_CAP = 3.3
DENSE_SKIPS = 50


@dataclass
class Job:
    name: str
    fn: object  # fn(inp) -> Outcome


@dataclass
class Outcome:
    ok: bool
    answer: object
    detail: str = ""
    sizes: list = field(default_factory=list)


def expect(name, answer, sizes=()):
    want = KNOWN[name][0]
    ok = answer == want
    detail = "" if ok else f"expected {want!r}, got {answer!r}"
    return Outcome(ok, answer, detail, list(sizes))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _draw(rng):
    """A nonzero integer in [-3, 3]."""
    v = 0
    while v == 0:
        v = rng.randint(-3, 3)
    return v


def _nnz(table):
    return sum(len(r) for r in table.values())


def _shear_copy(obj, table, arity, bracket, make, rng):
    """Isomorphic copy of `obj` by elementary shears e_j -> e_j + c e_i
    (c = +-1), applied until the structure constants `table(copy)` hold at
    least DENSE_RATIO times the canonical nonzero count.  A shear that would
    take them past DENSE_CAP times is skipped; after DENSE_SKIPS skips in a
    row the copy starts again from `obj`."""
    d = obj.dim
    base = _nnz(table(obj))
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    p, pinv, cur, skips = identity, identity, obj, 0
    while _nnz(table(cur)) < DENSE_RATIO * base:
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        q = [row[:] for row in p]
        qinv = [row[:] for row in pinv]
        for r in range(d):
            q[r][j] += c * q[r][i]
        for col in range(d):
            qinv[i][col] -= c * qinv[j][col]
        # integer basis vectors, and only the nonzero coordinates of each
        # bracket transformed, keep this cheap, so set-up time varies little
        # with the number of shears a seed needs
        vecs = [[q[r][k] for r in range(d)] for k in range(d)]
        consts = {}
        for idx in combinations(range(d), arity):
            w = [(r, x) for r, x in enumerate(bracket([vecs[a] for a in idx])) if x]
            row = {k + 1: v for k in range(d)
                   if (v := sum(qinv[k][r] * x for r, x in w))}
            if row:
                consts[tuple(a + 1 for a in idx)] = row
        cand = make(consts)
        if _nnz(table(cand)) <= DENSE_CAP * base:
            p, pinv, cur, skips = q, qinv, cand, 0
        else:
            skips += 1
            if skips == DENSE_SKIPS:
                p, pinv, cur, skips = identity, identity, obj, 0
    return cur


def _dense_su3(mods, su3, rng):
    copy = _shear_copy(su3, lambda a: a.c, 2, lambda vs: su3.bracket(*vs),
                       lambda c: mods.lie.LieAlgebra(su3.dim, c), rng)
    if not mods.lie.check_jacobi(copy).ok:
        raise AssertionError("dense copy fails the Jacobi identity")
    return copy


def _dense_a4(mods, a4, rng):
    def exact(vs):  # the Filippov bracket divides (a determinant): give it Fractions
        return a4.bracket([[Fraction(x) for x in v] for v in vs])

    copy = _shear_copy(a4, lambda fa: fa.f, a4.arity, exact,
                       lambda f: mods.filippov.FilippovAlgebra(a4.arity, a4.dim, f), rng)
    if not mods.filippov.check_fi(copy).ok:
        raise AssertionError("dense copy fails the Filippov identity")
    return copy


def _write(workdir, name, af):
    path = Path(workdir) / f"{name}.alg"
    path.write_text(af.emit())
    return str(path)


def setup_complexes(mods, seed, workdir):
    rng = random.Random(seed)
    cat, co, nc = mods.catalog, mods.cohomology, mods.nary_cohomology
    su3, su4 = cat.su(3), cat.su(4)
    a4, a5, nhw2 = cat.a4(), cat.a5(), cat.nhw(2)
    inp = SimpleNamespace(mods=mods, su3=su3, su4=su4, su3_ad=su3.adjoint_rep(),
                          a4=a4, a5=a5, nhw2=nhw2)
    target = co.Cochain(2, 8, 1, {})
    while target.is_zero():
        gamma = co.Cochain(1, 8, 1, {(1, (i,)): _draw(rng) for i in range(1, 9)})
        target = co.coboundary(su3, None, gamma)
    inp.su3_target = target
    target = nc.NCochain("deformation", 2, 3, 4, 4, {})
    while target.is_zero():
        keys = nc.trivial_keys(a4, 1)
        beta = nc.NCochain("deformation", 1, 3, 4, 4,
                           {k: tuple(rng.randint(-3, 3) for _ in range(4)) for k in keys})
        target = nc.fa_coboundary_deformation(a4, beta)
    inp.a4_target = target
    target = nc.NCochain("trivial", 1, 3, 7, 1, {})
    while target.is_zero():
        gamma = nc.NCochain("trivial", 0, 3, 7, 1,
                            {(z,): (_draw(rng),) for z in range(1, 8)})
        target = nc.fa_coboundary_trivial(nhw2, gamma)
    inp.nhw2_target = target
    return inp


def setup_dense(mods, seed, workdir):
    rng = random.Random(seed)
    cat = mods.catalog
    su3, a4 = cat.su(3), cat.a4()
    inp = SimpleNamespace(mods=mods)
    for k in range(DENSE_COPIES):
        setattr(inp, f"su3_copy{k}", _dense_su3(mods, su3, rng))
    for k in range(DENSE_COPIES):
        setattr(inp, f"a4_copy{k}", _dense_a4(mods, a4, rng))
    return inp


def setup_checks(mods, seed, workdir):
    """Builds the catalog objects, the negative controls and the .alg files.

    The checks workload has no random inputs: the seed only names the run.
    """
    cat, algfile, poisson = mods.catalog, mods.algfile, mods.poisson
    AF = algfile.AlgebraFile
    objs = {
        "su3": cat.su(3), "heisenberg": cat.heisenberg(), "a4": cat.a4(),
        "a13": cat.a13(), "a5": cat.a5(), "nhw2": cat.nhw(2),
        "su3-gla4": cat.su3_gla4(), "nilpotent-leibniz": cat.nilpotent_leibniz(),
    }
    files = {}
    for name, obj in objs.items():
        files[name] = _write(workdir, name, AF.from_object(obj))
    for name in CORRUPTED_FILES:
        files[f"corrupted-{name}"] = _write(workdir, f"corrupted-{name}",
                                            AF.from_object(cat.corrupted(objs[name])))
    af = AF.from_object(objs["su3"])
    af.metric = mods.lie.killing_form(objs["su3"])
    files["su3-killing"] = _write(workdir, "su3-killing", af)
    af = AF.from_object(objs["a13"])
    af.metric = [[Fraction(s if i == j else 0) for j in range(4)]
                 for i, s in enumerate((-1, 1, 1, 1))]
    files["a13-signature"] = _write(workdir, "a13-signature", af)
    su3 = objs["su3"]
    files["lie-su3"] = _write(workdir, "lie-su3",
                              AF.from_object(poisson.lie_poisson_bivector(su3)))
    lin4 = poisson.linear_gps_from_cocycle(su3, cat.su3_five_cocycle())
    files["lin4-su3"] = _write(workdir, "lin4-su3", AF.from_object(lin4))
    files["clifford5"] = str(Path(workdir) / "clifford5.alg")
    files["simple5"] = str(Path(workdir) / "simple5.alg")
    return SimpleNamespace(
        mods=mods, files=files,
        a6=mods.filippov.simple_fa(5, [1] * 6),
        lp_su4=poisson.lie_poisson_bivector(cat.su(4)))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def zbh_consistent(rep):
    """Z/B/H bookkeeping of a report: Z <= C, B <= Z, B^p = rank of the
    previous differential, H = Z - B >= 0."""
    degs = sorted(rep.dims_c)
    for p in degs:
        c, z, b, h = rep.dims_c[p], rep.dims_z[p], rep.dims_b[p], rep.dims_h[p]
        if not (0 <= b <= z <= c and h == z - b):
            return False
        if p > degs[0] and b != rep.dims_c[p - 1] - rep.dims_z[p - 1]:
            return False
    return degs[0] != 0 or rep.dims_b[0] == 0


def _report_outcome(name, rep, sizes, full_complex=False):
    h = [rep.dims_h[p] for p in sorted(rep.dims_h)]
    out = expect(name, h, sizes)
    if out.ok and not zbh_consistent(rep):
        return Outcome(False, h, "Z/B/H dimensions are inconsistent", out.sizes)
    if out.ok and full_complex:
        euler_c = sum((-1) ** p * c for p, c in rep.dims_c.items())
        euler_h = sum((-1) ** p * x for p, x in rep.dims_h.items())
        if euler_c != 0 or euler_h != 0:
            return Outcome(False, h, f"Euler characteristic {euler_c}, {euler_h}", out.sizes)
    return out


def _ce_sizes(mods, alg, rep, dim_v):
    """(rows, cols, rank) per degree; nnz needs the matrices, so only the
    traced run reports it."""
    out = []
    for p in sorted(rep.dims_c):
        rows = len(mods.cohomology.coord_basis(alg.dim, p + 1, dim_v))
        out.append([rows, rep.dims_c[p], rep.dims_c[p] - rep.dims_z[p]])
    return out


def _fa_sizes(mods, fa, kind, rep, dim_v):
    nc = mods.nary_cohomology
    keys = nc.module_keys if kind == "module" else nc.trivial_keys
    out = []
    for p in sorted(rep.dims_c):
        out.append([len(keys(fa, p + 1)) * dim_v, rep.dims_c[p],
                    rep.dims_c[p] - rep.dims_z[p]])
    return out


def ce_job(name, alg_attr, p_max, rep_attr=None, full=False):
    def fn(inp):
        alg = getattr(inp, alg_attr)
        rho = getattr(inp, rep_attr) if rep_attr else None
        rep = inp.mods.cohomology.cohomology_dims(alg, rho, p_max)
        dim_v = rho.dim_v if rho is not None else 1
        return _report_outcome(name, rep, _ce_sizes(inp.mods, alg, rep, dim_v), full)
    return Job(name, fn)


def fa_job(name, fa_attr, kind, p_max):
    def fn(inp):
        fa = getattr(inp, fa_attr)
        rep = inp.mods.nary_cohomology.fa_cohomology_dims(fa, kind, p_max)
        dim_v = 1 if kind == "trivial" else fa.dim
        return _report_outcome(name, rep, _fa_sizes(inp.mods, fa, kind, rep, dim_v))
    return Job(name, fn)


def _solve_su3(inp):
    co = inp.mods.cohomology
    w = co.trivialize_extension(inp.su3, inp.su3_target)
    if w is None:
        return Outcome(False, None, "no witness for a coboundary target")
    cochain = co.Cochain(1, 8, 1, {(1, (i + 1,)): v for i, v in enumerate(w)})
    ok = co.coboundary(inp.su3, None, cochain) == inp.su3_target
    return Outcome(ok, [str(v) for v in w], "" if ok else "delta w != target")


def _solve_a4(inp):
    nc = inp.mods.nary_cohomology
    w = nc.deformation_preimage(inp.a4, inp.a4_target)
    if w is None:
        return Outcome(False, None, "no witness for a coboundary target")
    ok = nc.fa_coboundary_deformation(inp.a4, w).data == inp.a4_target.data
    answer = sorted((repr(k), [str(x) for x in v]) for k, v in w.data.items())
    return Outcome(ok, answer, "" if ok else "delta w != target")


def _solve_nhw2(inp):
    nc = inp.mods.nary_cohomology
    x = nc.trivialize_fa_extension(inp.nhw2, inp.nhw2_target)
    if x is None:
        return Outcome(False, None, "no witness for a coboundary target")
    w = nc.NCochain("trivial", 0, 3, 7, 1, {(z + 1,): (v,) for z, v in enumerate(x)})
    ok = nc.fa_coboundary_trivial(inp.nhw2, w).data == inp.nhw2_target.data
    return Outcome(ok, [str(v) for v in x], "" if ok else "delta w != target")


def run_cli(mods, argv):
    """naryalg.cli.main in-process; returns (exit code, stdout JSON records)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(argv)
    records = []
    for line in out.getvalue().splitlines():
        if line.startswith("{"):
            records.append(json.loads(line))
    return code, records


def _verdicts_match(records, want):
    verdicts = [r["verdict"] for r in records if "verdict" in r]
    if not verdicts:
        return False
    if want == 0:
        return all(v == "pass" for v in verdicts)
    return any(r.get("verdict") == "fail" and "counterexample" in r for r in records)


def cli_job(name, command, file_key, *flags):
    def fn(inp):
        code, records = run_cli(inp.mods, [command, inp.files[file_key], *flags])
        want = KNOWN[name][0]
        ok = code == want and _verdicts_match(records, want)
        return Outcome(ok, code, "" if ok else f"exit {code}, records {records}")
    return Job(name, fn)


def _entry_lines(path):
    return [ln for ln in Path(path).read_text().splitlines() if "->" in ln]


def _generate_clifford(inp):
    f = inp.files
    code1, _ = run_cli(inp.mods, ["generate", "clifford", "--n", "5", "-o", f["clifford5"]])
    code2, _ = run_cli(inp.mods, ["generate", "simple-fa", "--n", "5", "-o", f["simple5"]])
    same = code1 == code2 == 0 and _entry_lines(f["clifford5"]) == _entry_lines(f["simple5"])
    return Outcome(same, code1, "" if same else "clifford entries differ from simple-fa")


def _lib_job(name, call):
    def fn(inp):
        return expect(name, bool(call(inp)))
    return Job(name, fn)


def jobs_complexes():
    return [
        ce_job("ce-su3-p8", "su3", 8, full=True),
        ce_job("ce-su4-p2", "su4", 2),
        ce_job("ce-su3-ad-p1", "su3", 1, rep_attr="su3_ad"),
        fa_job("fa-a4-deformation-p2", "a4", "deformation", 2),
        fa_job("fa-a5-deformation-p1", "a5", "deformation", 1),
        fa_job("fa-nhw2-trivial-p1", "nhw2", "trivial", 1),
        fa_job("fa-a4-module-p1", "a4", "module", 1),
        Job("solve-su3-extension", _solve_su3),
        Job("solve-a4-deformation", _solve_a4),
        Job("solve-nhw2-extension", _solve_nhw2),
    ]


def jobs_dense():
    jobs = []
    for k in range(DENSE_COPIES):
        jobs += [
            ce_job(f"ce-su3-dense{k}-p8", f"su3_copy{k}", 8, full=True),
            fa_job(f"fa-a4-dense{k}-deformation-p1", f"a4_copy{k}", "deformation", 1),
            fa_job(f"fa-a4-dense{k}-trivial-p2", f"a4_copy{k}", "trivial", 2),
        ]
    return jobs


def jobs_checks():
    # the clifford5 file is written by the generate job just before its check
    jobs = [cli_job(f"cli-identity-{n}", "check", n, "--suite", "identity")
            for n in IDENTITY_FILES if n != "clifford5"]
    jobs.append(Job("cli-generate-clifford-5", _generate_clifford))
    jobs.append(cli_job("cli-identity-clifford5", "check", "clifford5", "--suite", "identity"))
    jobs += [cli_job(f"cli-identity-corrupted-{n}", "check", f"corrupted-{n}",
                     "--suite", "identity")
             for n in CORRUPTED_FILES]
    jobs += [
        cli_job("cli-metric-su3-killing", "check", "su3-killing", "--suite", "metric"),
        cli_job("cli-metric-a13-signature", "check", "a13-signature", "--suite", "metric"),
        cli_job("cli-poisson-gps-lie-su3", "poisson", "lie-su3", "--check", "gps"),
        cli_job("cli-poisson-np-lie-su3", "poisson", "lie-su3", "--check", "np"),
        cli_job("cli-poisson-gps-lin4-su3", "poisson", "lin4-su3", "--check", "gps"),
        cli_job("cli-poisson-np-lin4-su3", "poisson", "lin4-su3", "--check", "np"),
        _lib_job("eps-identities-4-4", lambda inp: inp.mods.tensors.eps_identities_check(4, 4).ok),
        _lib_job("fi-ghost-a6", lambda inp: inp.mods.filippov.check_fi(inp.a6, "ghost").ok),
        _lib_job("gps-lie-poisson-su4", lambda inp: inp.mods.poisson.gps_check(inp.lp_su4).ok),
    ]
    return jobs


@dataclass
class Workload:
    setup: object  # setup(mods, seed, workdir) -> inputs
    jobs: object   # jobs() -> [Job]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "complexes": Workload(setup_complexes, jobs_complexes),
    "complexes-dense": Workload(setup_dense, jobs_dense),
    "checks": Workload(setup_checks, jobs_checks),
}
