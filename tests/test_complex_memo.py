"""The tables `CEComplex` and `FAComplex` memoize on their algebra: a
complex on memoized tables gives the matrices, coordinates, dimensions and
mirrors of one built on a new copy of the algebra; the default size and the
complex's own size read one table set; the memo keeps tables, the Jacobi
verdict and the FI report alone, never a key or coordinate list; a
given rho, a scaled copy of the algebra and a construction that raises
keep nothing; the memo lives and dies with the algebra object, not with an
equal one; and a copy (`BracketTensor.copy`) reads the entries of its
origin's memo that no reader can change, so one su(3) Killing form is
inverted for the catalog's kept algebra and every copy of it."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import linalg
from naryalg.catalog import a4, a5, heisenberg, nhw, su
from naryalg.cohomology import CEComplex, coboundary_matrix, cohomology_dims
from naryalg.filippov import FARepresentation, adjoint_fa_representation, check_fi
from naryalg.lie import LieAlgebra, inverse_killing_form
from naryalg.nary_cohomology import (FAComplex, NCochain, fa_coboundary_trivial,
                                     fa_cohomology_dims, trivialize_fa_extension)
from naryalg.tensors import IdentityReport

KINDS = ("trivial", "module", "deformation")


def fresh(alg):
    """A new algebra of alg's class on a copy of its constants."""
    return type(alg).from_table(alg.arity, alg.dim, {key: dict(row) for key, row in alg.c.items()})


def r2():
    """The non-unimodular two-dimensional algebra [X_1, X_2] = X_2."""
    return LieAlgebra.from_entries(2, [((1, 2, 2), Fraction(1))])


def memo(obj):
    return vars(obj).get("_memo", {})


def rows(matrix):
    """The rows with their entries in order."""
    return [list(row.items()) for row in matrix]


def read_only(table):
    """Whether table is built of tuples alone, down to ints and None: no
    dict, so no table keyed by tuples, and nothing a reader could change."""
    if isinstance(table, tuple):
        return all(map(read_only, table))
    return table is None or type(table) is int


LIE = {"su2": lambda: su(2), "su3": lambda: su(3), "heisenberg": heisenberg, "r2": r2}
FILIPPOV = {"a4": a4, "a5": a5, "nhw1": lambda: nhw(1), "nhw2": lambda: nhw(2)}


# ---------------------------------------------------------------------------
# parity with a complex built on a new copy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim_v", [1, 2])
@pytest.mark.parametrize("name", sorted(LIE))
def test_a_memoized_ce_complex_is_a_fresh_one(name, dim_v):
    alg = LIE[name]()
    cohomology_dims(alg, None, alg.dim, dim_v)  # builds the memo and ranks on it
    cx = CEComplex(alg, None, dim_v)
    new = CEComplex(fresh(alg), None, dim_v)
    assert cx.ialg is CEComplex(alg).ialg and new.ialg is not cx.ialg
    assert (cx.d, cx.unimodular) == (new.d, new.unimodular)
    for p in range(alg.dim + 1):
        assert rows(cx.matrix(p)) == rows(new.matrix(p)), p
        assert cx.coords(p) == new.coords(p)
        assert (cx.dim(p), cx.mirror(p)) == (new.dim(p), new.mirror(p))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_a_memoized_fa_complex_is_a_fresh_one(name, kind):
    fa = FILIPPOV[name]()
    p_max = 2 if name == "a4" else 1
    fa_cohomology_dims(fa, kind, p_max)
    cx = FAComplex(fa, kind)
    new = FAComplex(fresh(fa), kind)
    assert cx.left is FAComplex(fa, kind).left and new.left is not cx.left
    assert (cx.d, cx.size) == (new.d, new.size)
    for p in range(p_max + 1):
        assert rows(cx.matrix(p)) == rows(new.matrix(p)), p
        assert cx.coords(p) == new.coords(p)
        assert (cx.dim(p), cx.mirror(p)) == (new.dim(p), new.mirror(p))


# ---------------------------------------------------------------------------
# what is shared and what is not
# ---------------------------------------------------------------------------

def test_the_default_size_is_the_complexs_own():
    alg, fa = fresh(su(3)), a4()
    assert CEComplex(alg).ialg is CEComplex(alg, None, 1).ialg is CEComplex(alg, None, 2).ialg
    for kind, own in (("trivial", 1), ("module", 4), ("deformation", 4)):
        assert FAComplex(fa, kind).left is FAComplex(fa, kind, size=own).left
    assert FAComplex(fa, "trivial", size=4).left is not FAComplex(fa, "trivial").left


def test_the_three_kinds_share_one_table_set():
    fa = nhw(1)
    brackets = {id(FAComplex(fa, kind).bracket) for kind in KINDS}
    assert len(brackets) == 1


def test_the_extension_solve_and_check_share_one_table_set():
    # trivialize_fa_extension asks for size None, fa_coboundary_trivial for 1
    fa = nhw(2)
    gamma = NCochain("trivial", 0, 3, 7, 1, {(z,): (z,) for z in range(1, 8)})
    assert trivialize_fa_extension(fa, fa_coboundary_trivial(fa, gamma)) is not None
    assert set(memo(fa)) == {"fundamental", ("trivial", 1)}


def test_the_memo_keeps_tables_and_no_lists():
    # the key and coordinate lists belong to one complex: a caller that
    # changes them changes no later complex; the placement table is one of
    # the algebra's tables, shared, and read-only (nested tuples)
    alg, fa = fresh(su(3)), a4()
    cohomology_dims(alg, None, 8, 2)
    for kind in KINDS:
        fa_cohomology_dims(fa, kind, 2)
    assert set(memo(alg)) == {"ce"}
    # and the FI report whose verdict gates `complex_dims`'s complement ranking
    assert set(memo(fa)) == {"fundamental", ("trivial", 1), ("module", 4), ("deformation", 4),
                             "fi"}
    assert memo(fa)["fi"] == IdentityReport(True) and memo(alg)["ce"][3] is True
    one, two = FAComplex(fa, "deformation"), FAComplex(fa, "deformation")
    assert one.keys(2) == two.keys(2) and one.keys(2) is not two.keys(2)
    assert one.place is two.place and read_only(one.place)
    src = coboundary_matrix(alg, None, 2, 1)[1]
    want = list(src)
    src.reverse()
    assert coboundary_matrix(alg, None, 2, 1)[1] == CEComplex(alg).coords(2) == want


@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_each_fa_memo_entry_holds_int_tables_alone(name):
    # the blocks by number, never the tuple-keyed `fundamental_tables`
    fa = FILIPPOV[name]()
    for kind in KINDS:
        fa_cohomology_dims(fa, kind, 1)
    blocks, *tables = memo(fa)["fundamental"]
    assert blocks == tuple(combinations(range(1, fa.dim + 1), fa.arity - 1))
    assert len(tables) == 4 and all(map(read_only, tables))
    for kind in KINDS:
        entry = memo(fa)[kind, FAComplex(fa, kind).size]
        assert len(entry) == 6 and read_only(entry)
        assert entry[1] is tables[0]  # every kind reads the one bracket
        if kind != "module":
            assert entry[4:] == tuple(tables[2:])  # and the one placement


def test_a_given_rho_builds_its_tables_per_call():
    fa, alg = a4(), fresh(su(3))
    rho, ad = adjoint_fa_representation(fa), alg.adjoint_rep()
    assert FAComplex(fa, "module", rho).left is not FAComplex(fa, "module", rho).left
    assert CEComplex(alg, ad).ialg is not CEComplex(alg, ad).ialg
    assert memo(fa) == memo(alg) == {}


def test_copies_leave_the_memo_behind():
    # a scaled copy that took the memo would read the tables of C, not D C
    alg = fresh(su(3))
    cx = CEComplex(alg)
    d, ialg = alg.integer_scaled()
    assert d == 2 and memo(alg) and not memo(ialg) and not memo(alg.scaled(4))
    assert CEComplex(ialg).ialg is not cx.ialg and CEComplex(ialg).d == 1


def test_a_construction_that_raises_stores_nothing():
    fa = a4()
    no_module = FARepresentation({lab: {(0, 0): 1} if lab == (1, 2) else {}
                                  for lab in combinations(range(1, 5), 2)}, 1)
    for call, match in ((lambda: FAComplex(fa, "deformaton"), "unknown complex kind"),
                        (lambda: FAComplex(fa, "deformation", size=3), "dim_v 3"),
                        (lambda: FAComplex(fa, "module", size=1), "dim_v 1"),
                        (lambda: FAComplex(fa, "module", no_module), "representation")):
        with pytest.raises(ValueError, match=match):
            call()
        assert memo(fa) == {}
    assert FAComplex(fa, "deformation").left is FAComplex(fa, "deformation", size=4).left


def test_the_memo_lives_and_dies_with_its_algebra():
    one, two = a4(), a4()
    assert one == two
    assert FAComplex(one, "trivial").left is not FAComplex(two, "trivial").left
    ref = weakref.ref(one)
    FAComplex(one, "deformation")
    del one
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# a copy reads the immutable entries of its origin's memo
# ---------------------------------------------------------------------------

def test_a_copy_reads_the_immutable_entries_of_its_origin(monkeypatch):
    calls = []
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda a: calls.append(a) or inverse(a))
    alg = fresh(su(3))
    before = alg.copy()
    kinv = inverse_killing_form(alg)
    after, grandchild = alg.copy(), before.copy()
    assert all(inverse_killing_form(x) is kinv for x in (before, after, grandchild))
    assert len(calls) == 1 and "kinv" in memo(before)
    # the CE tables hold the scaled algebra, a tensor: each copy builds its own
    assert CEComplex(before).ialg is not CEComplex(alg).ialg
    # a scaled copy has other constants and reads nothing: kinv(2 C) = kinv(C) / 4
    assert inverse_killing_form(before.scaled(2)) == tuple(
        tuple(v / 4 for v in row) for row in kinv)
    assert len(calls) == 2
    # the FI report and the FA tables are immutable, so an FA copy reads them
    fa = a4()
    report, left = check_fi(fa), FAComplex(fa, "deformation").left
    copy = fa.copy()
    assert check_fi(copy) is report and FAComplex(copy, "deformation").left is left


def test_a_copy_reads_no_entry_that_a_reader_could_change():
    alg = fresh(su(3))
    alg.memoized("rows", lambda: {(1, 2): {3: 1}})
    alg.memoized("pair", lambda: (1, [2]))
    copy = alg.copy()
    assert copy.memoized("rows", dict) == {} and copy.memoized("pair", tuple) == ()


SRC = Path(__file__).resolve().parent.parent / "src"
CHECKS_SETUP = """
from naryalg import catalog, linalg, poisson
calls = []
inverse = linalg.inverse
linalg.inverse = lambda a: calls.append(a) or inverse(a)
su3 = catalog.su(3)
catalog.su3_gla4()
poisson.linear_gps_from_cocycle(su3, catalog.su3_five_cocycle())
print(len(calls))
"""


def test_the_checks_objects_invert_one_killing_form():
    # a fresh process, as the su(3) objects are built once per process: a
    # copy of su(3) taken before the catalog inverts the Killing form of its
    # kept algebra for su3_gla4 reads that inverse when it needs its own
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", CHECKS_SETUP], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["1"]
