"""Self-tests of the benchmark.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import MODULES  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return SimpleNamespace(**{m: importlib.import_module(f"naryalg.{m}") for m in MODULES})


def fingerprint(mods, inp):
    """Bytes that pin down every seeded input of a workload."""
    emit = mods.algfile.AlgebraFile.from_object
    parts = [emit(getattr(inp, name)).emit() for name in sorted(vars(inp)) if "_copy" in name]
    for name in ("su3_target", "a4_target", "nhw2_target"):
        if hasattr(inp, name):
            parts.append(repr(sorted(getattr(inp, name).data.items())))
    return "\n".join(parts).encode()


@pytest.mark.parametrize("workload", ["complexes", "complexes-dense"])
def test_same_seed_gives_identical_inputs(mods, tmp_path, workload):
    setup = workloads.WORKLOADS[workload].setup
    first = fingerprint(mods, setup(mods, 7, tmp_path))
    assert first
    assert fingerprint(mods, setup(mods, 7, tmp_path)) == first


def test_checks_files_are_identical_across_setups(mods, tmp_path):
    setup = workloads.WORKLOADS["checks"].setup
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    setup(mods, 1, a)
    setup(mods, 1, b)
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_other_seed_gives_other_copies_with_same_answers(mods, tmp_path):
    setup = workloads.WORKLOADS["complexes-dense"].setup
    inp1, inp2 = setup(mods, 1, tmp_path), setup(mods, 2, tmp_path)
    assert fingerprint(mods, inp1) != fingerprint(mods, inp2)
    canonical = sum(len(r) for r in mods.catalog.a4().f.values())
    for inp in (inp1, inp2):
        for k in range(workloads.DENSE_COPIES):
            copy = getattr(inp, f"a4_copy{k}")
            nnz = sum(len(r) for r in copy.f.values())
            assert workloads.DENSE_RATIO * canonical <= nnz <= workloads.DENSE_CAP * canonical
    jobs = [j for j in workloads.jobs_dense() if j.name.startswith("fa-a4-dense0")]
    assert len(jobs) == 2
    for job in jobs:
        first, second = job.fn(inp1), job.fn(inp2)
        assert first.ok and second.ok, (first.detail, second.detail)
        assert first.answer == second.answer == workloads.KNOWN[job.name][0]


def test_planted_wrong_answer_counts_as_failed(mods, tmp_path, monkeypatch):
    inp = workloads.WORKLOADS["complexes"].setup(mods, 1, tmp_path)
    job = next(j for j in workloads.jobs_complexes() if j.name == "fa-a4-module-p1")
    assert job.fn(inp).ok
    monkeypatch.setitem(workloads.KNOWN, job.name, ([0, 1], "planted wrong answer"))
    out = job.fn(inp)
    assert not out.ok and "expected [0, 1]" in out.detail
    events = [{"event": "pass"},
              {"event": "job", "name": job.name, "ok": out.ok, "s": 0.1},
              {"event": "job", "name": "ce-su4-p2", "ok": True, "s": 0.1},
              {"event": "pass_end"}, {"event": "done"}]
    attempted, failed, failures, _, finished = run.tally(events, ["a", "b"], "ok")
    assert (attempted, failed, finished) == (2, 1, True)
    assert failures[0]["job"] == job.name


def test_negative_control_that_passes_is_a_failure(mods, tmp_path):
    inp = workloads.WORKLOADS["checks"].setup(mods, 1, tmp_path)
    name = "cli-identity-corrupted-su3"
    job = next(j for j in workloads.jobs_checks() if j.name == name)
    assert job.fn(inp).ok
    inp.files["corrupted-su3"] = inp.files["su3"]
    assert not job.fn(inp).ok


def _snapshot():
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "naryalg" or key.startswith("naryalg."):
            for attr, val in vars(mod).items():
                snap[(key, attr)] = val
                if isinstance(val, type) and val.__module__ == key:
                    for cattr, cval in vars(val).items():
                        snap[(key, attr, cattr)] = cval
    return snap


def test_wrap_and_unwrap_leave_library_identical(mods):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.absent
        assert mods.cohomology.sort_sign is not before[("naryalg.cohomology", "sort_sign")]
        assert mods.cohomology.sort_sign is mods.tensors.sort_sign
        rep = mods.cohomology.cohomology_dims(mods.catalog.su(2), None, 3)
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [rep.dims_h[p] for p in range(4)] == [1, 0, 0, 1]
    m = tracer.metrics(1)
    assert m["cohomology.assemble_calls"] == 4
    assert m["linalg.rank_sum"] == 3
    assert m["tensors.sort_sign_calls"] > 0 and m["lie.c_row_calls"] > 0
    assert m["cohomology.assemble_s"] > 0


def test_missing_target_is_reported_absent(mods, monkeypatch):
    monkeypatch.delattr(mods.cohomology, "coboundary_matrix")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["cohomology.coboundary_matrix"]
        assert tracer.metrics(1)["cohomology.assemble_s"] == 0
    finally:
        tracer.restore()


def test_run_limit_counts_unfinished_jobs_as_failed(monkeypatch, capsys):
    workdirs = set(BENCH.glob(".work-*"))
    monkeypatch.setattr(run, "LIMIT_S", 1)
    assert run.main(["--workload", "complexes", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] >= len(workloads.jobs_complexes())
    assert set(BENCH.glob(".work-*")) == workdirs


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert set(workloads.KNOWN) == {j.name for w in workloads.WORKLOADS.values()
                                    for j in w.jobs()}
