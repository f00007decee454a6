import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from naryalg import cohomology as co
from naryalg import linalg
from naryalg import nary_cohomology as nc
from naryalg.catalog import a4, nhw, su
from naryalg.filippov import adjoint_fa_representation
from naryalg.scalars import GaussianRational, is_zero


def rand_matrix(rng, n, m):
    return [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(n)]


def test_rank_and_nullspace_consistency():
    rng = random.Random(0)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, n, m)
        r = linalg.rank(dense.sparse(a))
        ns = dense.nullspace(a)
        assert r + len(ns) == m
        for v in ns:
            out = [sum(a[i][j] * v[j] for j in range(m)) for i in range(n)]
            assert all(x == 0 for x in out)


def test_solve_consistent_and_inconsistent():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert linalg.solve(rows, 2, [Fraction(3), Fraction(6)]) == [3, 0]
    assert linalg.solve(rows, 2, [Fraction(3), Fraction(7)]) is None
    # no rows: every right side is zero, so any x solves; x = 0
    assert linalg.solve([], 2, []) == [0, 0]


def test_solve_returns_exact_solution():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = rand_matrix(rng, n, m)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        b = [sum(a[i][j] * x[j] for j in range(m)) for i in range(n)]
        sol = linalg.solve(dense.sparse(a), m, b)
        assert sol is not None
        out = [sum(a[i][j] * sol[j] for j in range(m)) for i in range(n)]
        assert out == b


def test_inverse_roundtrip():
    rng = random.Random(2)
    found = 0
    while found < 10:
        a = rand_matrix(rng, 3, 3)
        if linalg.det(a) == 0:
            continue
        found += 1
        assert dense.mat_mul(a, linalg.inverse(a)) == linalg.identity(3)
    assert linalg.inverse([]) == []


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[Fraction(0)]])


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
        assert linalg.det(dense.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_signature_diagonal():
    m = [[Fraction(x) if i == j else Fraction(0) for j, x in enumerate((2, -3, 0, 5))]
         for i in range(4)]
    assert linalg.signature(m) == (2, 1, 1)


def test_signature_offdiagonal_block():
    # ((0,1),(1,0)) has eigenvalues +-1
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert linalg.signature(m) == (1, 1, 0)


def test_signature_congruence_invariance():
    rng = random.Random(4)
    base = [[Fraction(2), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(3)]]
    sig = linalg.signature(base)
    for _ in range(5):
        s = rand_matrix(rng, 3, 3)
        if linalg.det(s) == 0:
            continue
        m = dense.mat_mul(dense.transpose(s), dense.mat_mul(base, s))
        assert linalg.signature(m) == sig


def test_gaussian_matrix_ops():
    i = GaussianRational(0, 1)
    a = {(0, 0): i, (0, 1): GaussianRational(1), (1, 1): -i}
    # a^2 = -1: the off-diagonal entries i - i cancel and are not stored
    assert linalg.sp_mul(a, a) == linalg.sp_scale(-1, linalg.sp_identity(2))
    assert linalg.sp_trace(a, linalg.sp_identity(2)) == 0
    assert linalg.sp_commutator(a, a) == {}


def random_sparse(rng, size, gaussian):
    """A random size x size sparse matrix, and its dense twin."""
    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return GaussianRational(re, rng.choice([0, 1, -1])) if gaussian else re
    m = [[entry() for _ in range(size)] for _ in range(size)]
    return dense.to_map(m), m


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_sparse_kernel_matches_dense(seed, gaussian):
    rng = random.Random(seed)
    size = rng.randint(1, 5)
    (a, da), (b, db) = random_sparse(rng, size, gaussian), random_sparse(rng, size, gaussian)
    c = Fraction(rng.randint(-3, 3), 2)
    for got, want in [(linalg.sp_mul(a, b), dense.mat_mul(da, db)),
                      (linalg.sp_commutator(a, b), dense.commutator(da, db)),
                      (linalg.sp_sum([(1, linalg.sp_mul(a, b)), (1, linalg.sp_mul(b, a))]),
                       dense.anticommutator(da, db)),
                      (linalg.sp_scale(c, a), dense.mat_scale(c, da)),
                      (linalg.sp_sum([(c, a), (1, b), (-c, a)]), db),
                      (linalg.sp_identity(size), linalg.identity(size))]:
        assert all(not is_zero(v) for v in got.values())
        assert got == dense.to_map(want)
        assert dense.to_dense(got, size) == want
    assert linalg.sp_trace(a, b) == dense.trace(dense.mat_mul(da, db))


# ---------------------------------------------------------------------------
# the eliminator against dense Gauss-Jordan
# ---------------------------------------------------------------------------

# about two entries in three are zero, as in the coboundary matrices
ENTRIES = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def sparse_systems(draw):
    """(a, b): a dense matrix with some rows that are combinations of others
    (rank deficient), shuffled, and a right side that is either a . x for a
    drawn x (consistent) or drawn freely (mostly inconsistent)."""
    m = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(a) - 1))
        j = draw(st.integers(0, len(a) - 1))
        c = draw(st.integers(-2, 2))
        a.append([x + c * y for x, y in zip(a[i], a[j])])
    a = draw(st.permutations(a))
    if draw(st.booleans()):
        x = draw(st.lists(ENTRIES, min_size=m, max_size=m))
        b = [sum((r[j] * x[j] for j in range(m)), Fraction(0)) for r in a]
    else:
        b = draw(st.lists(ENTRIES, min_size=len(a), max_size=len(a)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_elimination_matches_dense(system):
    a, b = system
    rows = dense.sparse(a)
    before = [dict(r) for r in rows]
    # the row space fixes the leading columns: they are the lexicographically
    # first independent columns, the pivots of Gauss-Jordan, so the ranks
    # agree and the solutions with zero non-pivot coordinates are one vector
    assert linalg.rank(rows) == dense.rank(a)
    assert linalg.solve(rows, len(a[0]), b) == dense.solve(a, b)
    assert rows == before


def test_echelon_leads_in_rref_pivot_columns():
    rng = random.Random(6)
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        a.append([x - y for x, y in zip(a[0], a[-1])])
        basis = linalg.echelon(dense.sparse(a))
        assert sorted(basis) == dense.rref(a)[1]
        assert all(min(row) == lead and row[lead] == 1 for lead, row in basis.items())


# ---------------------------------------------------------------------------
# the fraction-free eliminator against the Fraction elimination it replaced
# ---------------------------------------------------------------------------

def reference_echelon(rows):
    """Leading-column elimination in `Fraction`s, shortest rows first: each
    basis row is scaled to 1 at its lead and a row leading there loses
    row[lead] times it.  The slow definition `echelon` must reproduce."""
    basis = {}
    for row in sorted(rows, key=len):
        row = dict(row)
        while row:
            lead = min(row)
            prow = basis.get(lead)
            if prow is None:
                inv = Fraction(1) / row[lead]
                basis[lead] = {c: v * inv for c, v in row.items()}
                break
            f = row[lead]
            for c, v in prow.items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    del row[c]
    return basis


def reference_solve(rows, ncols, rhs):
    """Back substitution on the reference basis, non-pivot coordinates zero."""
    aug = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
    basis = reference_echelon(aug)
    if ncols in basis:
        return None
    x = [Fraction(0)] * ncols
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        x[lead] = row.get(ncols, Fraction(0)) - sum(
            (v * x[c] for c, v in row.items() if lead < c < ncols), Fraction(0))
    return x


def assert_integer_basis(basis):
    """Every row holds ints only, with content 1, and leads at its key."""
    for lead, row in basis.items():
        assert min(row) == lead
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1


def assert_matches_reference(rows):
    before = [dict(r) for r in rows]
    want = reference_echelon(rows)
    basis = linalg.integer_echelon(rows)
    assert sorted(basis) == sorted(want)
    assert_integer_basis(basis)
    got = linalg.echelon(rows)
    assert got == want
    assert all(type(v) is Fraction for row in got.values() for v in row.values())
    assert linalg.rank(rows) == len(want)
    assert rows == before


COBOUNDARY_CASES = ([("su3", "trivial", p) for p in range(9)]
                    + [("su3", "adjoint", p) for p in range(2)]
                    + [(name, kind, p) for name in ("a4", "nhw1")
                       for kind in ("trivial", "module", "deformation") for p in range(3)])


@pytest.mark.parametrize("name,kind,p", COBOUNDARY_CASES)
def test_echelon_matches_fraction_reference_on_coboundary_matrices(name, kind, p):
    if name == "su3":
        alg = su(3)
        rho, dim_v = (alg.adjoint_rep(), alg.dim) if kind == "adjoint" else (None, 1)
        rows = co.CEComplex(alg, rho, dim_v).matrix(p)
    else:
        fa = a4() if name == "a4" else nhw(1)
        rho = adjoint_fa_representation(fa) if kind == "module" else None
        rows = nc.FAComplex(fa, kind, rho).matrix(p)
    assert_matches_reference(rows)


# values: small and large integers and fractions, some with large
# denominators, and zeros, mixed in one row
VALUES = st.one_of(
    st.just(0), st.just(Fraction(0)),
    st.integers(-3, 3), st.integers(-10**12, 10**12),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)))


@st.composite
def sparse_rows(draw):
    """Rows over at most 8 columns, with rational combinations of earlier
    rows appended (rows that reduce to zero), shuffled."""
    m = draw(st.integers(1, 8))
    dense = draw(st.lists(st.lists(VALUES, min_size=m, max_size=m), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(dense) - 1))
        j = draw(st.integers(0, len(dense) - 1))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=10**6))
        dense.append([x + c * y for x, y in zip(dense[i], dense[j])])
    dense = draw(st.permutations(dense))
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    rhs = draw(st.lists(VALUES, min_size=len(rows), max_size=len(rows)))
    return rows, m, rhs


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_echelon_matches_fraction_reference_on_random_rows(system):
    rows, m, rhs = system
    assert_matches_reference(rows)
    for row in rows:
        prim = linalg.primitive_row(row)
        assert_integer_basis({min(prim): prim} if prim else {})
        # a positive multiple of the row: equal ratios, equal signs
        if prim:
            c = next(iter(row))
            scale = Fraction(prim[c]) / row[c]
            assert scale > 0 and all(prim[k] == scale * v for k, v in row.items())
    before = [dict(r) for r in rows]
    got = linalg.solve(rows, m, rhs)
    assert got == reference_solve(rows, m, rhs)
    assert got is None or all(type(x) is Fraction for x in got)
    assert rows == before


def test_rows_that_reduce_to_zero_leave_no_basis_row():
    rows = [{0: Fraction(1, 3), 2: 5}, {0: 2, 2: 30}, {1: Fraction(7, 10**9)},
            {1: -14, 3: 0}, {}]
    basis = linalg.integer_echelon(rows)
    assert basis == {0: {0: 1, 2: 15}, 1: {1: 1}}
    assert linalg.echelon(rows) == {0: {0: 1, 2: 15}, 1: {1: 1}}
    assert linalg.solve(rows, 4, [1, 6, 0, 0, 0]) == [3, 0, 0, 0]
    assert linalg.solve(rows, 4, [1, 5, 0, 0, 0]) is None
    # the empty row reads 0 = 1
    assert linalg.solve(rows, 4, [1, 6, 0, 0, 1]) is None


# ---------------------------------------------------------------------------
# rank on the transpose of tall matrices
# ---------------------------------------------------------------------------

def transpose_rows(rows):
    out = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            out.setdefault(c, {})[i] = v
    return list(out.values())


def echelon_input(rows):
    """(linalg.rank(rows), the rows `rank` handed to `integer_echelon`)."""
    fed, right = [], linalg.integer_echelon

    def spy(given):
        fed.extend(given)
        return right(fed)

    linalg.integer_echelon = spy
    try:
        return linalg.rank(rows), fed
    finally:
        linalg.integer_echelon = right


@st.composite
def shaped_matrices(draw):
    """A dense matrix drawn tall (rows more than twice the columns), wide or
    near square, with zero rows and copies of its rows mixed in."""
    m = draw(st.integers(1, 5))
    lo, hi = {"tall": (2 * m + 1, 4 * m), "wide": (1, m), "square": (m, 2 * m)}[
        draw(st.sampled_from(("tall", "wide", "square")))]
    a = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=lo, max_size=hi))
    a += [[Fraction(0)] * m] * draw(st.integers(0, 3))
    a += [list(a[draw(st.integers(0, len(a) - 1))]) for _ in range(draw(st.integers(0, 3)))]
    return draw(st.permutations(a))


@settings(max_examples=200, deadline=None)
@given(shaped_matrices())
def test_rank_is_the_rank_of_the_transpose(a):
    rows = dense.sparse(a)
    nonzero = [row for row in rows if row]
    ncols = len(set().union(*nonzero))
    got, fed = echelon_input(rows)
    assert got == linalg.rank(transpose_rows(rows)) == dense.rank(a)
    # the nonzero rows, or the nonzero columns when the rows outnumber them
    # more than twice
    assert len(fed) == (ncols if len(nonzero) > 2 * ncols else len(nonzero))


def test_rank_transposes_past_twice_the_columns_only():
    # 7 nonzero rows over 3 columns are ranked on the transpose, 6 are not;
    # the empty rows count toward neither
    base = [{0: 1, 1: 2}, {1: 1, 2: -1}, {0: 1, 1: 3, 2: -1}]
    for copies, transposed in ((6, False), (7, True)):
        rows = [dict(base[i % 3]) for i in range(copies)] + [{}] * 9
        got, fed = echelon_input(rows)
        assert got == 2
        assert len(fed) == (3 if transposed else copies)
        assert sorted(map(len, fed)) == (sorted(map(len, transpose_rows(rows))) if transposed
                                         else sorted(map(len, rows[:copies])))


def test_empty_rows_are_dropped_before_elimination(monkeypatch):
    seen = []
    right = linalg.primitive_row

    def counted(row):
        seen.append(row)
        return right(row)

    monkeypatch.setattr(linalg, "primitive_row", counted)
    assert linalg.integer_echelon([{}, {0: 2}, {}, {0: 1, 1: 1}, {}]) == {0: {0: 1}, 1: {1: 1}}
    assert all(seen) and len(seen) == 2
