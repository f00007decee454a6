"""Input handling of the command-line front-end, run in-process."""

import json

import pytest

from naryalg import cli
from naryalg.algfile import AlgebraFile
from naryalg.catalog import a4, heisenberg


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


@pytest.mark.parametrize("command", ["cohomology", "check"])
def test_negative_pmax_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "h.alg"
    path.write_text(AlgebraFile.from_object(heisenberg()).emit())
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), "--pmax", "-1"])
    assert exc.value.code == 2
    assert "degree must be >= 0" in capsys.readouterr().err


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
])
def test_malformed_file_is_an_input_error_with_its_position(tmp_path, capsys, text, where):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert where in out.err
    assert records(out.out) == [{"error": out.err.split("input error: ", 1)[1].strip()}]
