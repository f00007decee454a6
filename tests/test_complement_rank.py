"""`cohomology.complex_dims` ranks each degree on a complement of the
previous image (`linalg.complement_rank`): its dimensions equal those of
per-degree `linalg.rank` on Jacobi tables and on every Filippov complex; on
each ranked pair delta_p delta_{p-1} = 0 exactly, and the coordinates that
a degree pins complement the image of delta_p; and only a closed complex
pins, so tables that fail their identity rank in full, and forcing the
complement on one of them changes H."""

import random

import dense_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cohomology_duality import r2, shear_copy
from test_filippov import omega_bracket
from test_nary_cohomology import fa_shear_copy

from naryalg import linalg
from naryalg.catalog import a4, a5, a13, corrupted, heisenberg, nhw, su
from naryalg.cohomology import CEComplex, CohomologyReport, complex_dims
from naryalg.filippov import check_fi, direct_sum
from naryalg.nary_cohomology import KINDS, FAComplex, LeibnizAlgebra, LeibnizComplex

LIE = {"su2": lambda: su(2), "su3": lambda: su(3), "heisenberg": heisenberg, "r2": r2}
# p_max 2 where C^3 is small enough for a unit test, else 1
FILIPPOV = {"a4": (a4, 2), "a5": (a5, 2), "nhw1": (lambda: nhw(1), 2),
            "nhw2": (lambda: nhw(2), 1), "a4+a13": (lambda: direct_sum(a4(), a13()), 1),
            "a4-shear": (lambda: fa_shear_copy(a4(), random.Random(5)), 2)}


def full_ranks(cx, p_max):
    """The report of every degree 0..p_max ranked in full by `linalg.rank`."""
    return CohomologyReport.from_ranks({p: cx.dim(p) for p in range(p_max + 1)},
                                       {p: linalg.rank(cx.matrix(p)) for p in range(p_max + 1)})


# ---------------------------------------------------------------------------
# parity with per-degree ranks
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(LIE)), st.integers(0, 2 ** 16), st.sampled_from((1, 2)))
def test_jacobi_tables_rank_as_per_degree_rank(name, seed, dim_v):
    alg = shear_copy(LIE[name](), random.Random(seed), steps=6)
    cx = CEComplex(alg, None, dim_v)
    assert cx.closed
    assert complex_dims(cx, alg.dim) == full_ranks(cx, alg.dim)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_filippov_complexes_rank_as_per_degree_rank(name, kind):
    make, p_max = FILIPPOV[name]
    cx = FAComplex(make(), kind)
    assert cx.closed
    assert complex_dims(cx, p_max) == full_ranks(cx, p_max)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(KINDS))
def test_shear_copies_of_a4_rank_as_per_degree_rank(seed, kind):
    cx = FAComplex(fa_shear_copy(a4(), random.Random(seed)), kind)
    assert complex_dims(cx, 2) == full_ranks(cx, 2)


# ---------------------------------------------------------------------------
# each ranked pair: delta^2 = 0, and the pinned coordinates complement the image
# ---------------------------------------------------------------------------

def squares_to_zero(rows, below):
    """Whether every row of D delta_p, dotted with the rows of D delta_{p-1}
    (one per coordinate of C^p), gives zero: D^2 delta_p delta_{p-1} = 0."""
    for row in rows:
        out = {}
        for c, v in row.items():
            for b, w in below[c].items():
                out[b] = out.get(b, 0) + v * w
        if any(out.values()):
            return False
    return True


def complements_the_image(rows, leads, size):
    """Whether the unit vectors of C^{p+1} outside leads and the columns of
    delta_p (its image) together span C^{p+1}, and leads number rank delta_p."""
    cols = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols.setdefault(c, {})[i] = v
    units = [{i: 1} for i in range(size) if i not in leads]
    return (linalg.rank(units + list(cols.values())) == size
            and len(leads) == linalg.rank(rows))


def pinned_pairs(cx, p_max):
    """The chain `complex_dims` runs on a closed complex without mirror:
    (p, rank, leads) per degree, each degree pinned by the leads of the last."""
    pinned, out = set(), []
    for p in range(p_max + 1):
        rank, leads = linalg.complement_rank(cx.matrix(p), pinned)
        out.append((p, rank, leads))
        pinned = leads
    return out


COMPLEXES = {
    **{f"ce-{name}": (lambda make=make: CEComplex(make()), 3) for name, make in LIE.items()},
    "ce-su3-shear-v2": (lambda: CEComplex(shear_copy(su(3), random.Random(3)), None, 2), 3),
    **{f"fa-{kind}-{name}": (lambda make=make, kind=kind: FAComplex(make(), kind), 1)
       for name, (make, _) in FILIPPOV.items() for kind in KINDS},
    "fa-deformation-a4-p2": (lambda: FAComplex(a4(), "deformation"), 2)}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_each_pair_squares_to_zero_and_its_leads_complement_the_image(name):
    make, p_max = COMPLEXES[name]
    cx = make()
    for p, rank, leads in pinned_pairs(cx, p_max):
        rows = cx.matrix(p)
        assert rank == linalg.rank(rows), p
        assert complements_the_image(rows, leads, cx.dim(p + 1)), p
        if p:
            assert squares_to_zero(rows, cx.matrix(p - 1)), p


def test_the_leads_are_row_indices_numbered_shortest_row_first():
    # rows of lengths 2, 1, 0, 1: the two one-entry rows take the first
    # numbers, and the empty row none; the image is spanned by e_1 + e_3 and
    # e_0 + e_3 (the columns), whose echelon leads are rows 1 and 3
    rows = [{0: 1, 1: 1}, {0: 1}, {}, {1: 1}]
    assert linalg.complement_rank(rows, set()) == (2, {1, 3})
    assert linalg.complement_rank(rows, {0}) == (1, {3})
    assert linalg.complement_rank([{}, {}], set()) == (0, set())


# ---------------------------------------------------------------------------
# the gate: only a closed complex pins
# ---------------------------------------------------------------------------

def test_corrupted_su3_ranks_in_full():
    alg = corrupted(su(3))
    assert not CEComplex(alg).closed
    assert complex_dims(CEComplex(alg), 8) == ref.cohomology_dims_all_degrees(alg, None, 8)


@pytest.mark.parametrize("kind", KINDS)
def test_corrupted_a4_ranks_in_full(kind):
    fa = corrupted(a4())
    cx = FAComplex(fa, kind)
    assert not cx.closed
    want = CohomologyReport.from_ranks(
        {p: cx.dim(p) for p in range(3)},
        {p: linalg.rank(ref.fa_rows(fa, kind, p)[1]) for p in range(3)})
    assert complex_dims(cx, 2) == want


def test_the_gate_carries_weight_on_a_table_that_fails_the_fi():
    class Forced(FAComplex):
        closed = True

    fa = omega_bracket()
    assert not check_fi(fa).ok and not FAComplex(fa, "trivial").closed
    full = complex_dims(FAComplex(fa, "trivial"), 2)
    assert full == full_ranks(FAComplex(fa, "trivial"), 2)
    assert complex_dims(Forced(fa, "trivial"), 2).dims_h != full.dims_h


def test_closure_of_each_complex():
    alg, fa = su(3), a4()
    assert CEComplex(alg).closed and not CEComplex(alg, alg.adjoint_rep()).closed
    assert CEComplex(corrupted(alg), None, 2).closed is False
    assert FAComplex(fa, "module").closed and not FAComplex(corrupted(fa), "deformation").closed
    zero, r2_table = [{}, {}], {(1, 2): {2: 1}, (2, 1): {2: -1}}
    assert LeibnizComplex(LeibnizAlgebra(2, r2_table), zero, zero, 1).closed
    # [X_1, X_1] = X_2, [X_2, X_1] = X_1: the left identity fails at (1, 1, 1)
    fails = LeibnizAlgebra(2, {(1, 1): {2: 1}, (2, 1): {1: 1}})
    assert not fails.check_left_identity().ok and not LeibnizComplex(fails, zero, zero, 1).closed
