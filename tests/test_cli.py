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
