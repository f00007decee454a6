"""Input handling of the command-line front-end, run in-process."""

import json
import tracemalloc
from itertools import combinations

import pytest

from naryalg import catalog, cli, filippov, lie
from naryalg import cohomology as co
from naryalg import nary_cohomology as nc
from naryalg.algfile import AlgebraFile
from naryalg.catalog import a4, heisenberg
from naryalg.filippov import FARepresentation
from naryalg.poisson import lie_poisson_bivector


@pytest.fixture
def a4_file(tmp_path):
    path = tmp_path / "a4.alg"
    path.write_text(AlgebraFile.from_object(a4()).emit())
    return str(path)


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def test_cohomology_reports_every_degree(a4_file, capsys):
    assert cli.main(["cohomology", a4_file, "--complex", "trivial", "--pmax", "1"]) == 0
    recs = records(capsys.readouterr().out)
    assert [(r["degree"], r["dim_h"]) for r in recs] == [(0, 0), (1, 0)]


def test_cohomology_of_a_non_unimodular_algebra_is_pinned(tmp_path, capsys):
    # r2, [X_1, X_2] = X_2: tr ad_{X_1} = 1, so no degree is read from its
    # Poincare mirror (which would give H = 1, 2, 1)
    path = tmp_path / "r2.alg"
    path.write_text("lie 2 2 rational\n1 2 -> 2 : 1\n")
    assert cli.main(["cohomology", str(path)]) == 0
    assert records(capsys.readouterr().out) == [
        {"degree": 0, "dim_b": 0, "dim_c": 1, "dim_h": 1, "dim_z": 1},
        {"degree": 1, "dim_b": 0, "dim_c": 2, "dim_h": 1, "dim_z": 1},
        {"degree": 2, "dim_b": 1, "dim_c": 1, "dim_h": 0, "dim_z": 1}]


def test_su3_cohomology_through_the_top_degree_is_pinned(tmp_path, capsys):
    path = tmp_path / "su3.alg"
    path.write_text(AlgebraFile.from_object(catalog.su(3)).emit())
    assert cli.main(["cohomology", str(path), "--pmax", "8"]) == 0
    recs = records(capsys.readouterr().out)
    assert [r["dim_h"] for r in recs] == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    assert [r["dim_b"] for r in recs] == [0, 0, 8, 20, 35, 35, 20, 8, 0]
    assert [r["dim_c"] for r in recs] == [1, 8, 28, 56, 70, 56, 28, 8, 1]


@pytest.mark.parametrize("command,text", [
    ("cohomology", "lie 2 40 rational\n1 2 -> 3 : 1\n"),
    ("poisson", "multivector 2 40 rational\n1 2 -> " + "0 " * 39 + "1 : 1\n"),
])
def test_dimension_cap_applies_to_every_command(tmp_path, monkeypatch, capsys, command, text):
    monkeypatch.delenv("NARY_MAX_DIM", raising=False)
    path = tmp_path / "big.alg"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    assert "above the cap 8" in capsys.readouterr().err


def test_dimension_cap_follows_the_environment(a4_file, monkeypatch, capsys):
    monkeypatch.setenv("NARY_MAX_DIM", "3")
    assert cli.main(["cohomology", a4_file, "--complex", "trivial"]) == 2
    assert "dimension 4 above the cap 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "cohomology", "poisson"])
def test_dimension_cap_is_checked_before_the_body_is_read(tmp_path, monkeypatch, capsys,
                                                          command):
    # a metric header once allocated its dim x dim block (68 MB at dim 3000)
    # before the cap was checked
    monkeypatch.delenv("NARY_MAX_DIM", raising=False)
    path = tmp_path / "wide.alg"
    path.write_text("lie 2 3000 rational\nmetric\n")
    tracemalloc.start()
    try:
        assert cli.main([command, str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    err = capsys.readouterr().err
    assert err == "input error: dimension 3000 above the cap 8 (override with NARY_MAX_DIM)\n"


@pytest.mark.parametrize("command", ["cohomology", "check"])
def test_negative_pmax_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "h.alg"
    path.write_text(AlgebraFile.from_object(heisenberg()).emit())
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), "--pmax", "-1"])
    assert exc.value.code == 2
    assert "degree must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["simple-fa", "--n", "0"], "arity n >= 2, got 0"),
    (["simple-fa", "--n", "1"], "arity n >= 2, got 1"),
    (["nhw", "--N", "0"], "N >= 1 blocks, got 0"),
    (["nhw", "--N", "-1"], "N >= 1 blocks, got -1"),
    (["simple-fa", "--signs", "++x+"], "--signs takes only + and -, got '++x+'"),
])
def test_generate_rejects_what_it_cannot_write(tmp_path, capsys, args, message):
    # each of these once wrote a file, exit 0, that `check` then refused
    out = tmp_path / "out.alg"
    assert cli.main(["generate", *args, "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap,args,dim", [
    (None, ["simple-fa", "--n", "9"], 10),
    (None, ["nhw", "--N", "3"], 10),
    ("3", ["simple-fa"], 4),
    ("3", ["clifford", "--n", "3"], 4),
    ("3", ["nhw"], 4),
    ("3", ["gla-from-su"], 8),
])
def test_generate_refuses_a_dimension_above_the_cap(tmp_path, capsys, monkeypatch, cap, args,
                                                     dim):
    # generate once built whatever it was asked for: simple-fa --n 600 took
    # 20 s to write a 601-dimensional file that every reader refuses
    if cap is None:
        monkeypatch.delenv("NARY_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("NARY_MAX_DIM", cap)
    out = tmp_path / "out.alg"
    assert cli.main(["generate", *args, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (f"input error: dimension {dim} above the cap {cap or 8}"
                                       " (override with NARY_MAX_DIM)\n")
    assert not out.exists()


def test_generate_writes_a_dimension_the_cap_allows(tmp_path, monkeypatch):
    out = tmp_path / "out.alg"
    monkeypatch.setenv("NARY_MAX_DIM", "10")
    assert cli.main(["generate", "nhw", "--N", "3", "-o", str(out)]) == 0
    assert out.read_text() == AlgebraFile.from_object(catalog.nhw(3)).emit()
    monkeypatch.setenv("NARY_MAX_DIM", "3")
    assert cli.main(["generate", "heisenberg", "-o", str(out)]) == 0
    assert out.read_text() == AlgebraFile.from_object(heisenberg()).emit()


@pytest.mark.parametrize("where", ["missing/x.alg", ""])
def test_generate_names_an_output_path_it_cannot_open(tmp_path, capsys, where):
    # an output in a missing directory, or a directory itself, once ended in
    # an OSError traceback with exit 1
    out = tmp_path / where
    assert cli.main(["generate", "heisenberg", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_generate_takes_a_sign_string_that_starts_with_minus(tmp_path, capsys):
    # argparse reads "--signs -+++" as a second option; the help gives the = form
    out = tmp_path / "a13.alg"
    assert cli.main(["generate", "simple-fa", "--n", "3", "--signs=-+++", "-o", str(out)]) == 0
    assert out.read_text() == AlgebraFile.from_object(catalog.a13()).emit()
    with pytest.raises(SystemExit):
        cli.main(["generate", "--help"])
    # the help is wrapped to the terminal, which may break a line at a hyphen
    assert "--signs=-+++" in "".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("complex_kind", ["trivial", "deformation"])
def test_adjoint_rep_rejected_where_it_has_no_meaning(a4_file, capsys, complex_kind):
    assert cli.main(["cohomology", a4_file, "--complex", complex_kind, "--rep", "ad"]) == 2
    out = capsys.readouterr()
    assert f"--rep ad applies to the module complex, not {complex_kind}" in out.err
    assert records(out.out) == []


def test_adjoint_rep_accepted_for_module_complex(a4_file, capsys):
    assert cli.main(["cohomology", a4_file, "--complex", "module", "--rep", "ad",
                     "--pmax", "1"]) == 0
    assert [r["dim_h"] for r in records(capsys.readouterr().out)] == [0, 0]


def test_trivial_module_is_the_default_rep(a4_file, capsys):
    # --rep 0: the one-dimensional module on which every rho(X) is zero
    assert cli.main(["cohomology", a4_file, "--complex", "module", "--pmax", "1"]) == 0
    recs = records(capsys.readouterr().out)
    assert [r["dim_c"] for r in recs] == [1, 6]
    assert [r["dim_h"] for r in recs] == [1, 0]
    assert cli.main(["cohomology", a4_file, "--complex", "module", "--rep", "ad",
                     "--pmax", "1"]) == 0
    assert [r["dim_c"] for r in records(capsys.readouterr().out)] == [4, 24]


@pytest.mark.parametrize("text,where", [
    ("filippov 0 4 rational\n", "line 1, column 10: arity must be positive"),
    ("filippov 5 4 rational\n", "line 1, column 10: arity 5 exceeds dim 4"),
    ("lie 3 4 rational\n", "line 1, column 5: lie files have arity 2"),
    ("leibniz 3 4 rational\n", "line 1, column 9: leibniz files have arity 2"),
    ("gla 3 8 rational\n", "line 1, column 5: gla files need an even arity"),
    ("filippov 3 4 rational\n1 2 3 -> 4 : 1\nmetric\n1 x : 1\n",
     "line 4, column 3: metric indices must be integers, got 'x'"),
    ("filippov 3 4 rational\n    1 2 3 -> 4 : x\n", "line 2, column 17: bad scalar 'x'"),
    # each error points at its own token
    ("  bogus 3 4 rational\n", "line 1, column 3: unknown kind 'bogus'"),
    ("filippov 3 4 complex\n", "line 1, column 14: unknown scalar kind 'complex'"),
    ("filippov 3 4 rational\n1 2 3 -> 4 : 1+2i\n",
     "line 2, column 13: gaussian literal in a rational file"),
    ("filippov 3 4 rational\n1 2 3 -> 4 : 1\nmetric\n1 9 : 1\n",
     "line 4, column 3: metric index 9 out of range"),
    ("filippov 3 4 rational\nmetric\n  1 2 3 : 1\n",
     "line 3, column 7: metric lines are `i j : value`"),
    ("filippov 3 4 rational\nmetric\n  1 : 1\n",
     "line 3, column 5: metric lines are `i j : value`"),
    ("filippov 3 4 rational\n1 2 7 -> 4 : 1\n", "line 2, column 5: lower index 7 out of range"),
    ("filippov 3 4 rational\n1 2 3 -> 9 : 1\n", "line 2, column 10: target index 9 out of range"),
    ("filippov 3 4 rational\n  1 2 3 -> 4 1 : 1\n",
     "line 2, column 14: exactly one target index"),
    ("filippov 3 4 rational\n1 2 3 4 -> 1 : 1\n", "line 2, column 7: expected 3 lower indices"),
    ("filippov 3 4 rational\n1 2 -> 4 : 1\n", "line 2, column 5: expected 3 lower indices"),
    ("filippov 3 4 rational\n1 3 2 -> 4 : 1\n",
     "line 2, column 5: indices must be strictly increasing"),
    ("filippov 3 4 rational\n1 1 2 -> 4 : 1\n",
     "line 2, column 3: indices must be strictly increasing"),
    ("filippov 3 4 rational\n  1 2 3 -> 4 : 1\n  1 2 3 -> 4 : 2\n",
     "line 3, column 3: duplicate entry for (1, 2, 3) -> 4"),
    # a 1-ary bracket has no Filippov identity to check
    ("filippov 1 3 rational\n1 -> 2 : 1\n", "line 1, column 10: filippov files need arity >= 2"),
    # a scalar holds no inner space; it is not read as 12
    ("lie 2 3 rational\n1 2 -> 3 : 1 2\n", "line 2, column 11: bad scalar '1 2'"),
    # nor an exponent (unbounded work) or a digit separator, in either part
    ("lie 2 3 rational\n1 2 -> 3 : 1e1000000\n", "line 2, column 11: bad scalar '1e1000000'"),
    ("lie 2 3 rational\n1 2 -> 3 : 2E3\n", "line 2, column 11: bad scalar '2E3'"),
    ("lie 2 3 rational\n1 2 -> 3 : 1_0\n", "line 2, column 11: bad scalar '1_0'"),
    ("lie 2 3 gaussian\n1 2 -> 3 : 1\nmetric\n1 1 : 1e9+1i\n",
     "line 4, column 6: bad scalar '1e9+1i'"),
    ("lie 2 3 gaussian\n1 2 -> 3 : 1\nmetric\n1 1 : 1+1/2e7i\n",
     "line 4, column 6: bad scalar '1+1/2e7i'"),
    ("lie 2 3 gaussian\n1 2 -> 3 : 1\nmetric\n1 1 : 1_0+1i\n",
     "line 4, column 6: bad scalar '1_0+1i'"),
    ("lie 2 3 gaussian\n1 2 -> 3 : 1\nmetric\n1 1 : 1+1_0i\n",
     "line 4, column 6: bad scalar '1+1_0i'"),
    # a negative exponent once parsed to a Laurent component
    ("multivector 2 3 rational\n1 2 -> 0 -2 1 : 1\n", "line 2, column 10: negative exponent -2"),
    # only metric values may be Gaussian
    ("multivector 1 2 gaussian\n1 -> 0 0 : 1i\n",
     "line 2, column 11: entry values must be real, got '1i'"),
    ("lie 2 3 gaussian\n1 2 -> 3 : 1i\n", "line 2, column 11: entry values must be real, got '1i'"),
    # a metric pair or a metric block given twice: the last value once won,
    # and a second header once reset the block to zeros
    ("lie 2 3 rational\n1 2 -> 3 : 1\nmetric\n1 2 : 3\n  2 1 : 5\n",
     "line 5, column 3: duplicate metric entry for (1, 2)"),
    ("lie 2 3 rational\n1 2 -> 3 : 1\nmetric\n1 2 : 3\n1 2 : 5\n",
     "line 5, column 1: duplicate metric entry for (1, 2)"),
    ("lie 2 3 rational\nmetric\n1 1 : 1\n  metric\n2 2 : 1\n",
     "line 4, column 3: a second metric block"),
])
def test_malformed_file_is_an_input_error_with_its_position(tmp_path, capsys, text, where):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert where in out.err
    assert records(out.out) == [{"error": out.err.split("input error: ", 1)[1].strip()}]


# `check --suite identity` on every catalog file of the benchmark's checks
# workload and on its corrupted copies: exit code and JSON lines, pinned
FI_FORMS = ("derivation", "short", "ghost")
FI_PASS = [f'{{"check": "filippov-identity-{form}", "verdict": "pass"}}' for form in FI_FORMS]


def fi_fail(*witnesses):
    return [f'{{"check": "filippov-identity-{form}", "counterexample": {w}, "verdict": "fail"}}'
            for form, w in zip(FI_FORMS, witnesses)]


GOLDEN_IDENTITY = {
    "su3": (0, ['{"check": "jacobi", "verdict": "pass"}']),
    "heisenberg": (0, ['{"check": "jacobi", "verdict": "pass"}']),
    "a4": (0, FI_PASS),
    "a13": (0, FI_PASS),
    "a5": (0, FI_PASS),
    "nhw2": (0, FI_PASS),
    "su3-gla4": (0, ['{"check": "generalized-jacobi", "verdict": "pass"}']),
    "nilpotent-leibniz": (0, ['{"check": "left-leibniz-identity", "verdict": "pass"}']),
    "clifford5": (0, FI_PASS),
    "corrupted-su3": (1, [
        '{"check": "jacobi", "counterexample": [1, 2, 3, 4], "verdict": "fail"}']),
    "corrupted-a4": (1, fi_fail("[[1, 2], [2, 3, 4], 3]", "[[1, 2, 3, 4], [2], 3]",
                                "[[1, 2], [2, 3, 4], 3]")),
    "corrupted-a5": (1, fi_fail("[[1, 2, 3], [2, 3, 4, 5], 4]", "[[1, 2, 3, 4, 5], [2, 3], 4]",
                                "[[1, 2, 3], [2, 3, 4, 5], 4]")),
    "corrupted-su3-gla4": (1, [
        '{"check": "generalized-jacobi", "counterexample": [[1, 2, 3, 5, 6, 7, 8], 3],'
        ' "verdict": "fail"}']),
}
CATALOG = {"su3": lambda: catalog.su(3), "heisenberg": heisenberg, "a4": a4,
           "a13": catalog.a13, "a5": catalog.a5, "nhw2": lambda: catalog.nhw(2),
           "su3-gla4": catalog.su3_gla4, "nilpotent-leibniz": catalog.nilpotent_leibniz}


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    files = {}
    for name, make in CATALOG.items():
        obj = make()
        files[name] = root / f"{name}.alg"
        files[name].write_text(AlgebraFile.from_object(obj).emit())
        if f"corrupted-{name}" in GOLDEN_IDENTITY:
            files[f"corrupted-{name}"] = root / f"corrupted-{name}.alg"
            files[f"corrupted-{name}"].write_text(
                AlgebraFile.from_object(catalog.corrupted(obj)).emit())
    files["clifford5"] = root / "clifford5.alg"
    assert cli.main(["generate", "clifford", "--n", "5", "-o", str(files["clifford5"])]) == 0
    return files


@pytest.mark.parametrize("name", list(GOLDEN_IDENTITY))
def test_identity_suite_output_is_pinned(catalog_files, capsys, name):
    capsys.readouterr()
    code = cli.main(["check", str(catalog_files[name]), "--suite", "identity"])
    assert (code, capsys.readouterr().out.splitlines()) == GOLDEN_IDENTITY[name]


# `check --suite metric` on metric blocks over Q(i): exit code and JSON lines,
# pinned; nondegeneracy is an exact determinant test, which runs over Q(i)
SU2_GAUSSIAN = "lie 2 3 gaussian\n1 2 -> 3 : 1\n1 3 -> 2 : -1\n2 3 -> 1 : 1\nmetric\n"
A4_GAUSSIAN = ("filippov 3 4 gaussian\n1 2 3 -> 4 : -1\n1 2 4 -> 3 : 1\n1 3 4 -> 2 : -1\n"
               "2 3 4 -> 1 : 1\nmetric\n")
SINGULAR = "1 1 : 1\n1 2 : 1i\n2 2 : -1\n3 3 : 1\n"  # rows 1 and 2 are proportional
GOLDEN_METRIC = {
    "su2-scaled": (SU2_GAUSSIAN + "".join(f"{i} {i} : 1+1i\n" for i in (1, 2, 3)), 0, [
        '{"check": "metric-invariance", "verdict": "pass"}',
        '{"check": "metric-nondegenerate", "verdict": "pass"}']),
    "su2-singular": (SU2_GAUSSIAN + SINGULAR, 1, [
        '{"check": "metric-invariance", "counterexample": [1, 1, 3], "verdict": "fail"}',
        '{"check": "metric-nondegenerate", "verdict": "fail"}']),
    "a4-imaginary": (A4_GAUSSIAN + "".join(f"{i} {i} : 1i\n" for i in (1, 2, 3, 4)), 0, [
        '{"check": "metric-nondegenerate", "verdict": "pass"}',
        '{"check": "metric-invariance", "verdict": "pass"}']),
    "a4-singular": (A4_GAUSSIAN + SINGULAR, 1, [
        '{"check": "metric-nondegenerate", "verdict": "fail"}',
        '{"check": "metric-invariance", "counterexample": [[1, 2], 3, 4], "verdict": "fail"}']),
}


@pytest.mark.parametrize("name", list(GOLDEN_METRIC))
def test_gaussian_metric_verdicts_are_pinned(tmp_path, capsys, name):
    text, code, lines = GOLDEN_METRIC[name]
    path = tmp_path / f"{name}.alg"
    path.write_text(text)
    assert cli.main(["check", str(path), "--suite", "metric"]) == code
    assert capsys.readouterr().out.splitlines() == lines


# omega = e1234 + e3456 on R^6 as a 3-bracket f_{abc}^d = omega_{abcd}, with
# the unit metric: invariant, but the bracket fails the FI, so the lowered
# form of the identity fails too and is reported, not raised
OMEGA = ("filippov 3 6 rational\n1 2 3 -> 4 : 1\n1 2 4 -> 3 : -1\n1 3 4 -> 2 : 1\n"
         "2 3 4 -> 1 : -1\n3 4 5 -> 6 : 1\n3 4 6 -> 5 : -1\n3 5 6 -> 4 : 1\n"
         "4 5 6 -> 3 : -1\nmetric\n" + "".join(f"{i} {i} : 1\n" for i in range(1, 7)))
OMEGA_METRIC = [{"check": "metric-nondegenerate", "verdict": "pass"},
                {"check": "metric-invariance", "counterexample": [[1, 3], [2, 3, 5, 6]],
                 "verdict": "fail"}]


@pytest.mark.parametrize("suite", ["metric", "all"])
def test_a_metric_on_a_bracket_that_fails_the_fi_gives_records(tmp_path, capsys, suite):
    path = tmp_path / "omega.alg"
    path.write_text(OMEGA)
    assert cli.main(["check", str(path), "--suite", suite]) == 1
    captured = capsys.readouterr()
    recs = records(captured.out)
    assert "Traceback" not in captured.out + captured.err
    assert [r for r in recs if r["check"].startswith("metric")] == OMEGA_METRIC
    if suite == "all":
        fi = [r for r in recs if r["check"] == "filippov-identity-derivation"]
        assert fi == [{"check": "filippov-identity-derivation",
                       "counterexample": [[1, 3], [2, 3, 5], 6], "verdict": "fail"}]


def test_a_filippov_complex_too_large_to_assemble_is_refused(a4_file, capsys):
    # delta_9 of A4's trivial complex has 4 * 6^9 = 40.3M rows; the sizes
    # are counted, so the refusal comes before any assembly
    assert cli.main(["cohomology", a4_file, "--complex", "trivial", "--pmax", "9"]) == 2
    assert "C^8 of the trivial complex has 1,119,744 coordinates" in capsys.readouterr().err
    assert cli.main(["check", a4_file, "--suite", "cohomology", "--pmax", "9"]) == 2
    assert records(capsys.readouterr().out) == [
        {"error": "C^8 of the trivial complex has 1,119,744 coordinates, "
                  "above the ceiling of 250,000: lower --pmax"}]
    assert cli.main(["cohomology", a4_file, "--complex", "deformation",
                     "--pmax", "1000000000"]) == 2
    assert "C^7 of the deformation complex has 746,496 coordinates" in capsys.readouterr().err


def complexes(kind):
    """(complex, degrees) for the size tests: su(3) and heisenberg (past its
    top degree) with trivial and adjoint coefficients, or A4 and nhw1 with
    the complex's default module, and for the module complex also the
    one-dimensional module of --rep 0."""
    if kind == "ce":
        return [(co.CEComplex(alg, rho), range(deg)) for alg, deg in
                ((catalog.su(3), 4), (heisenberg(), 6)) for rho in (None, alg.adjoint_rep())]
    out = [(nc.FAComplex(fa, kind), range(4)) for fa in (a4(), catalog.nhw(1))]
    if kind == "module":
        zero = FARepresentation({lab: {} for lab in combinations(range(1, 5), 2)}, 1)
        out.append((nc.FAComplex(a4(), kind, zero), range(4)))
    return out


@pytest.mark.parametrize("kind", ["ce", "trivial", "module", "deformation"])
def test_counted_cochain_sizes_are_the_assembled_ones(kind):
    # the ceiling reads the counted cx.dim(p), so it must be the column
    # count of the coboundary the command would assemble
    for cx, degrees in complexes(kind):
        for p in degrees:
            assert cx.dim(p) == len(cx.coords(p)), (kind, p)
            assert all(c < cx.dim(p) for row in cx.matrix(p) for c in row), (kind, p)
            assert cx.dim(p) or kind == "ce" and p > cx.alg.dim


def test_lie_cohomology_stops_at_the_dimension(tmp_path, capsys):
    # every cochain space above the dimension is zero: heisenberg at --pmax
    # 20 once printed 21 records, and --pmax had no bound
    path = tmp_path / "h.alg"
    path.write_text(AlgebraFile.from_object(heisenberg()).emit())
    for pmax in ("20", "200000"):
        assert cli.main(["cohomology", str(path), "--pmax", pmax]) == 0
        assert records(capsys.readouterr().out) == [
            {"degree": 0, "dim_b": 0, "dim_c": 1, "dim_h": 1, "dim_z": 1},
            {"degree": 1, "dim_b": 0, "dim_c": 3, "dim_h": 2, "dim_z": 2},
            {"degree": 2, "dim_b": 1, "dim_c": 3, "dim_h": 2, "dim_z": 3},
            {"degree": 3, "dim_b": 0, "dim_c": 1, "dim_h": 1, "dim_z": 1}]


@pytest.mark.parametrize("suite", ["identity", "metric", "all"])
def test_check_suites_refuse_a_multivector_file(tmp_path, capsys, suite):
    # these suites once ended in an uncaught ValueError traceback
    path = tmp_path / "lp.alg"
    path.write_text(AlgebraFile.from_object(lie_poisson_bivector(catalog.su(2))).emit())
    assert cli.main(["check", str(path), "--suite", suite]) == 2
    out = capsys.readouterr()
    msg = f"--suite {suite} applies to algebra files: check a multivector file with naryalg poisson"
    assert records(out.out) == [{"error": msg}]
    assert f"input error: {msg}" in out.err
    # the cohomology suite still skips it
    assert cli.main(["check", str(path), "--suite", "cohomology"]) == 0
    assert "cohomology suite not applicable; skipping" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one parser per process: `main` builds it on its first call and reuses it
# ---------------------------------------------------------------------------

def test_main_carries_no_state_from_one_call_to_the_next(a4_file, capsys):
    built = cli._parser()
    assert cli._parser() is built
    calls = [["check", a4_file], ["frobnicate"], ["--help"],
             ["check", a4_file, "--pmax", "-1"], ["check", a4_file]]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [run(argv) for argv in calls]
    assert cli._parser() is built
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, "SystemExit 2", "SystemExit 0",
                                               "SystemExit 2", 0]
    assert shared[0][1].splitlines() == shared[-1][1].splitlines() == FI_PASS


def test_check_all_runs_the_derivation_scan_once(a4_file, monkeypatch, capsys):
    # the derivation and ghost forms of the identity suite and the closure
    # gate of the cohomology suite read one report, memoized on the algebra
    calls = []
    scan = filippov._fi_derivation

    def counted(fa):
        calls.append(fa)
        return scan(fa)

    monkeypatch.setattr(filippov, "_fi_derivation", counted)
    assert cli.main(["check", a4_file, "--suite", "all"]) == 0
    assert len(calls) == 1
    recs = records(capsys.readouterr().out)
    assert [r["check"] for r in recs if r.get("verdict") == "pass"] == [
        "filippov-identity-derivation", "filippov-identity-short", "filippov-identity-ghost",
        "metric-nondegenerate", "metric-invariance", "cohomology-consistent"]


# ---------------------------------------------------------------------------
# poisson: every check on two constant bivectors and a Lie-Poisson bivector
# ---------------------------------------------------------------------------

PASS = "pass"
POISSON_FILES = {
    "d12": "multivector 2 3 rational\n1 2 -> 0 0 0 : 1\n",
    "d12+d34": "multivector 2 4 rational\n1 2 -> 0 0 0 0 : 1\n3 4 -> 0 0 0 0 : 1\n",
    "lie-su3": AlgebraFile.from_object(lie_poisson_bivector(catalog.su(3))).emit(),
}
NP_RECORDS = [{"check": "differential-condition", "verdict": PASS},
              {"check": "algebraic-condition", "verdict": PASS}]


@pytest.mark.parametrize("name,check,want", [
    ("d12", "gps", [{"check": "self-bracket-zero", "verdict": PASS}]),
    ("d12", "np", NP_RECORDS + [{"decomposable": True}]),
    ("d12", "snb-self", [{"check": "snb-self", "verdict": PASS}]),
    ("d12+d34", "gps", [{"check": "self-bracket-zero", "verdict": PASS}]),
    ("d12+d34", "np", NP_RECORDS + [{"decomposable": False}]),
    ("d12+d34", "snb-self", [{"check": "snb-self", "verdict": PASS}]),
    ("lie-su3", "gps", [{"check": "self-bracket-zero", "verdict": PASS}]),
    ("lie-su3", "np", NP_RECORDS),
    ("lie-su3", "snb-self", [{"check": "snb-self", "verdict": PASS}]),
])
def test_poisson_checks_give_their_records(tmp_path, capsys, name, check, want):
    # a constant bivector is Poisson, and decomposable only as one plane
    path = tmp_path / f"{name}.alg"
    path.write_text(POISSON_FILES[name])
    assert cli.main(["poisson", str(path), "--check", check]) == 0
    out = capsys.readouterr()
    assert records(out.out) == want
    n = sum("check" in r for r in want)
    assert out.err.endswith(f"{n}/{n} checks passed\n")


@pytest.mark.parametrize("check", ["gps", "np", "snb-self"])
def test_a_negative_exponent_is_an_input_error(tmp_path, capsys, check):
    # x1^-1 x3 d1^d2 + x3 d2^d3 once parsed to a Laurent component, and
    # every check passed on it
    path = tmp_path / "laurent.alg"
    path.write_text("multivector 2 3 rational\n1 2 -> -1 0 1 : 1\n2 3 -> 0 0 1 : 1\n")
    assert cli.main(["poisson", str(path), "--check", check]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "input error: line 2, column 8: negative exponent -1\n")


# ---------------------------------------------------------------------------
# cohomology of an algebra that fails its identity: an input error
# ---------------------------------------------------------------------------

FI_WITNESS = "the Filippov identity at ((1, 2), (2, 3, 4), 3)"


@pytest.mark.parametrize("name,flags,message", [
    ("su3", ["--rep", "ad", "--pmax", "1"], "the Jacobi identity at (1, 2, 3, 4)"),
    ("su3", [], "the Jacobi identity at (1, 2, 3, 4)"),
    ("a4", ["--complex", "trivial", "--pmax", "1"], FI_WITNESS),
    ("a4", ["--complex", "deformation", "--pmax", "1"], FI_WITNESS),
    ("a4", ["--complex", "module", "--rep", "ad", "--pmax", "1"], FI_WITNESS),
])
def test_cohomology_of_an_algebra_failing_its_identity_is_an_input_error(
        tmp_path, capsys, name, flags, message):
    # delta does not square to zero there: these runs once printed H^1 = -6
    # (su(3), adjoint), -2, -10 and -4 (A4) with exit 0
    obj = catalog.corrupted(catalog.su(3) if name == "su3" else a4())
    path = tmp_path / f"corrupted-{name}.alg"
    path.write_text(AlgebraFile.from_object(obj).emit())
    assert cli.main(["cohomology", str(path), *flags]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"input error: the algebra fails {message}\n")
    # the check suite still runs the complex, and records its inconsistency
    assert cli.main(["check", str(path), "--suite", "all"]) == 1
    assert {"check": "cohomology-consistent", "verdict": "fail"} in records(
        capsys.readouterr().out)


@pytest.mark.parametrize("argv,code", [(["cohomology"], 0), (["cohomology", "--pmax", "8"], 0),
                                       # the identity metric is not invariant: exit 1
                                       (["check", "--suite", "all"], 1)])
def test_a_command_scans_the_jacobi_identity_once(tmp_path, monkeypatch, capsys, argv, code):
    # the identity gate or suite and the complex's closedness gate read one
    # memoized report: each command once ran the scan twice
    calls = []
    scan = lie.nested_bracket_residuals
    monkeypatch.setattr(lie, "nested_bracket_residuals", lambda *a: calls.append(a) or scan(*a))
    path = tmp_path / "su3.alg"
    path.write_text(AlgebraFile.from_object(catalog.su(3)).emit())
    assert cli.main([argv[0], str(path), *argv[1:]]) == code
    assert len(calls) == 1
    capsys.readouterr()
