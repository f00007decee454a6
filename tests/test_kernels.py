"""Differential tests of the fast sign, identity-scan and multibracket kernels
against their slow definitions: a brute-force inversion count, the
determinant of the delta matrix, the per-s Filippov identity loops, the
epsilon scan with one `gen_kronecker` call per symbol, the n!-term
permutation sum and one multibracket per subset, and the multibracket
against the ordered products of anticommuting matrices; and work guards
that count kernel calls, not time."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

import dense_reference as dense
from naryalg import filippov, linalg, nary_cohomology, poisson, tensors
from naryalg.catalog import a4, a5, corrupted, nhw, su
from naryalg.claims import append_center, multibracket
from naryalg.filippov import FilippovAlgebra, check_fi, clifford_realization, simple_fa
from naryalg.poly import Poly
from naryalg.scalars import GaussianRational
from naryalg.tensors import (AntisymTensor, IdentityReport, eps_identities_check, gen_kronecker,
                             perm_sign, shuffle_splits, sort_sign)


def inversion_sign(t):
    """0 on a repeated entry, else (-1)^(number of inverted pairs)."""
    if len(set(t)) != len(t):
        return 0
    inv = sum(1 for i in range(len(t)) for j in range(i + 1, len(t)) if t[i] > t[j])
    return (-1) ** inv


# ---------------------------------------------------------------------------
# sign kernels
# ---------------------------------------------------------------------------

def test_perm_and_sort_sign_match_the_inversion_count():
    for k in range(6):
        for t in product(range(1, 7), repeat=k):
            want = inversion_sign(t)
            got = perm_sign(t)
            assert got == want and type(got) is int, t
            assert perm_sign(list(t)) == want
            assert sort_sign(t) == ((tuple(sorted(t)), want) if want else (t, 0))


def delta_det(upper, lower):
    return linalg.det([[Fraction(int(u == l)) for l in lower] for u in upper])


def test_gen_kronecker_is_the_delta_determinant():
    pairs = [(u, l) for n in range(4)
             for u in product(range(1, 5), repeat=n)
             for l in product(range(1, 5), repeat=n)]
    rng = random.Random(11)
    for n in (4, 5):
        for _ in range(1500):
            u = tuple(rng.randint(1, 6) for _ in range(n))
            l = list(u) if rng.random() < 0.7 else [rng.randint(1, 6) for _ in range(n)]
            rng.shuffle(l)
            pairs.append((u, tuple(l)))
    for upper, lower in pairs:
        got = gen_kronecker(upper, lower)
        assert type(got) is int
        if upper:
            assert got == delta_det(upper, lower), (upper, lower)
        else:
            assert got == 1


# ---------------------------------------------------------------------------
# the epsilon scan: one memoized gen_kronecker call per symbol as the
# reference
# ---------------------------------------------------------------------------

class KroneckerMemo(dict):
    def __missing__(self, key):
        v = self[key] = gen_kronecker(*key)
        return v


def eps_identities_by_kronecker(n, d):
    rng = range(1, d + 1)
    memo = KroneckerMemo()
    pairs = [(s, t, (-1) ** (s + t + 1), tuple(k for k in range(n) if k not in (s, t)))
             for s in range(n) for t in range(s + 1, n)]
    for upper in product(rng, repeat=n):
        head, tail, top, bottom = upper[0], upper[1:], upper[:2], upper[2:]
        for lower in product(rng, repeat=n):
            lhs = gen_kronecker(upper, lower)
            tot = 0
            for s in range(n):
                if head == lower[s]:
                    tot += (-1) ** s * memo[tail, lower[:s] + lower[s + 1:]]
            if tot != lhs:
                return IdentityReport(False, (upper, lower, "first-row"))
            if n >= 2:
                tot2 = 0
                for s, t, sign, rest in pairs:
                    sub = memo[top, (lower[s], lower[t])]
                    if sub:
                        tot2 += sign * sub * memo[bottom, tuple(lower[k] for k in rest)]
                if tot2 != lhs:
                    return IdentityReport(False, (upper, lower, "pair-resolution"))
    return IdentityReport(True)


EPS_SHAPES = [(n, d) for d in range(1, 6) for n in range(1, min(d, 4) + 1)]


@pytest.mark.parametrize("n,d", EPS_SHAPES)
def test_eps_scan_matches_the_kronecker_loop(n, d):
    got = eps_identities_check(n, d)
    assert (got.ok, got.witness) == (True, None)
    want = eps_identities_by_kronecker(n, d)
    assert (got.ok, got.witness) == (want.ok, want.witness)


def sign_ignoring_inversions(seq):
    """A broken sign kernel: 1 on every repeat-free tuple."""
    return 0 if len(set(seq)) < len(seq) else 1


@pytest.mark.parametrize("n,d", EPS_SHAPES)
def test_eps_scan_reads_the_sign_kernel(monkeypatch, n, d):
    # negative control: with the kernel broken, both scans must fail at the
    # same entry; a length-1 row has no inversion, so n = 1 still passes
    monkeypatch.setattr(tensors, "perm_sign", sign_ignoring_inversions)
    got = eps_identities_check(n, d)
    want = eps_identities_by_kronecker(n, d)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    assert got.ok == (n == 1)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4), (4, 4), (3, 5)])
def test_eps_scan_finds_a_sign_broken_on_one_late_tuple(monkeypatch, n, d):
    # negative control: the kernel is wrong only on the last repeat-free
    # tuple in `product` order; both scans first fail at it as the lower of
    # its sorted upper, deep in both scans
    late = tuple(range(d, d - n, -1))
    right = tensors.perm_sign
    monkeypatch.setattr(tensors, "perm_sign",
                        lambda seq: -right(seq) if tuple(seq) == late else right(seq))
    got = eps_identities_check(n, d)
    want = eps_identities_by_kronecker(n, d)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    assert got.witness == (tuple(sorted(late)), late, "first-row")


def test_eps_tables_sort_each_distinct_tuple_once(monkeypatch):
    calls = {}
    right = tensors.sort_sign

    def counted(seq):
        calls[seq] = calls.get(seq, 0) + 1
        return right(seq)

    monkeypatch.setattr(tensors, "sort_sign", counted)
    tensors._eps_tables(4, 4)
    assert len(calls) == 336 and max(calls.values()) == 1


# ---------------------------------------------------------------------------
# the Filippov identity: per-s loops as the reference
# ---------------------------------------------------------------------------

def fi_derivation_per_s(fa):
    n, d = fa.arity, fa.dim
    for a_idx in combinations(range(1, d + 1), n - 1):
        for b_idx in combinations(range(1, d + 1), n):
            b_row = fa.f.get(b_idx, {})
            for s in range(1, d + 1):
                lhs = Fraction(0)
                for l, v in b_row.items():
                    lhs += v * fa.f_get(a_idx + (l,), s)
                rhs = Fraction(0)
                for k in range(n):
                    for l, v in fa.f_row(a_idx + (b_idx[k],)).items():
                        rhs += v * fa.f_get(b_idx[:k] + (l,) + b_idx[k + 1:], s)
                if lhs != rhs:
                    return False, (a_idx, b_idx, s)
    return True, None


def fi_short_per_s(fa):
    n, d = fa.arity, fa.dim
    for u in combinations(range(1, d + 1), n + 1):
        for spect in combinations(range(1, d + 1), n - 2):
            for s in range(1, d + 1):
                tot = Fraction(0)
                for (a_blk, b1_blk), sign in shuffle_splits(u, [n, 1]):
                    for l, v in fa.f.get(a_blk, {}).items():
                        tot += sign * v * fa.f_get(b1_blk + spect + (l,), s)
                if tot != 0:
                    return False, (u, spect, s)
    return True, None


def fi_ghost_per_s(fa):
    n, d = fa.arity, fa.dim
    fact = 1
    for q in range(2, n):
        fact *= q
    for b_idx in combinations(range(1, d + 1), n - 1):
        for c_idx in combinations(range(1, d + 1), n):
            for s in range(1, d + 1):
                lhs = Fraction(0)
                for l, v in fa.f.get(c_idx, {}).items():
                    lhs += v * fa.f_get(b_idx + (l,), s)
                rhs = Fraction(0)
                for p in permutations(range(n)):
                    sgn = inversion_sign(p)
                    first = c_idx[p[0]]
                    rest = tuple(c_idx[i] for i in p[1:])
                    for l, v in fa.f_row(b_idx + (first,)).items():
                        rhs += sgn * v * fa.f_get(rest + (l,), s)
                rhs = rhs * Fraction((-1) ** (n - 1), fact)
                if lhs != rhs:
                    return False, (b_idx, c_idx, s)
    return True, None


REFERENCE = {"derivation": fi_derivation_per_s, "short": fi_short_per_s,
             "ghost": fi_ghost_per_s}


def planted(fa, seed):
    """fa with one structure constant moved by a seeded nonzero amount."""
    rng = random.Random(seed)
    keys = list(combinations(range(1, fa.dim + 1), fa.arity))
    idx, b = rng.choice(keys), rng.randint(1, fa.dim)
    f = {k: dict(row) for k, row in fa.f.items()}
    row = f.setdefault(idx, {})
    row[b] = row.get(b, 0) + rng.choice([-2, -1, 1, 3])
    return FilippovAlgebra(fa.arity, fa.dim, f)


ALGEBRAS = {
    "a4": a4, "a5": a5, "a6": lambda: simple_fa(5, [1] * 6),
    "nhw1": lambda: nhw(1), "nhw2": lambda: nhw(2),
    "a1,4": lambda: simple_fa(4, [-1, 1, 1, 1, 1]),
    "corrupted-a4": lambda: corrupted(a4()), "corrupted-a5": lambda: corrupted(a5()),
    "planted-a4-1": lambda: planted(a4(), 1), "planted-a4-2": lambda: planted(a4(), 2),
    "planted-a5-3": lambda: planted(a5(), 3), "planted-nhw1-5": lambda: planted(nhw(1), 5),
    # sparse rows: the derivation scan visits only the pairs near a stored key
    "corrupted-nhw2": lambda: corrupted(nhw(2)), "a4+center": lambda: append_center(a4()),
    # its only failing pairs have a stored b that holds no x with a + (x,)
    # stored: [e1, [e3, e4]] = e2, while [e1, e3] = [e1, e4] = 0
    "planted-stored-b": lambda: FilippovAlgebra(2, 4, {(3, 4): {2: 1}, (1, 2): {2: 1}}),
}


@pytest.mark.parametrize("form", sorted(REFERENCE))
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_fi_forms_match_the_per_s_loops(name, form):
    fa = ALGEBRAS[name]()
    rep = check_fi(fa, form)
    assert (rep.ok, rep.witness) == REFERENCE[form](fa)
    if name.startswith(("corrupted", "planted")):
        assert not rep.ok


# ---------------------------------------------------------------------------
# the matrix multibracket
# ---------------------------------------------------------------------------

def multibracket_by_permutations(mats):
    """The n!-term permutation sum on dense matrices."""
    size = len(mats[0])
    acc = linalg.zeros(size, size)
    for p in permutations(range(len(mats))):
        prod = mats[p[0]]
        for i in p[1:]:
            prod = dense.mat_mul(prod, mats[i])
        acc = dense.mat_add(acc, dense.mat_scale(inversion_sign(p), prod))
    return acc


def random_matrix(rng, size, gaussian):
    def entry():
        if rng.random() < 0.5:
            return GaussianRational(0) if gaussian else Fraction(0)
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if gaussian:
            return GaussianRational(re, rng.choice([0, 0, 1, -1, Fraction(1, 2)]))
        return re
    return [[entry() for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("kinds", ["rational", "gaussian", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multibracket_matches_the_permutation_sum(n, kinds):
    rng = random.Random(100 * n + len(kinds))
    for _ in range(6):
        size = rng.randint(1, 4)
        gaussian = [kinds == "gaussian" or (kinds == "mixed" and rng.random() < 0.5)
                    for _ in range(n)]
        mats = [random_matrix(rng, size, g) for g in gaussian]
        sparse = [dense.to_map(m) for m in mats]
        got = multibracket(sparse)
        assert got == dense.to_map(multibracket_by_permutations(mats))
        # Gaussian values come back when some input value is Gaussian
        some = any(isinstance(v, GaussianRational) for m in sparse for v in m.values())
        assert all(isinstance(v, GaussianRational) == some for v in got.values())


def test_multibracket_of_every_subset_matches_the_permutation_sum():
    rng = random.Random(16)
    for kinds in ("rational", "gaussian", "mixed"):
        for _ in range(4):
            n, size = rng.randint(2, 5), rng.randint(1, 4)
            gaussian = [kinds == "gaussian" or (kinds == "mixed" and i % 2 == 1)
                        for i in range(n)]
            dense_mats = [random_matrix(rng, size, g) for g in gaussian]
            if kinds == "mixed":
                dense_mats[1][0][0] = GaussianRational(1, 1)
            mats = [dense.to_map(m) for m in dense_mats]
            for s in (s for k in range(1, n + 1) for s in combinations(range(n), k)):
                got = multibracket([mats[i] for i in s])
                assert got == dense.to_map(multibracket_by_permutations(
                    [dense_mats[i] for i in s])), s
                # the value type follows the subset's own matrices
                some = any(isinstance(v, GaussianRational) for i in s for v in mats[i].values())
                assert all(isinstance(v, GaussianRational) == some for v in got.values())
                if not some:
                    assert all(type(v) is Fraction for v in got.values())


def zi_gammas_with(d):
    """The d ℤ[i] gammas and, as matrix d, the top gamma g_1 .. g_d (d = 6)
    or the chirality (d = 4)."""
    gam, size = filippov._zi_gammas(d)
    if d == 4:
        return gam + [filippov._chirality(gam, size)]
    top = gam[0]
    for g in gam[1:]:
        top = linalg.zi_mul(top, g)
    return gam + [top]


@pytest.mark.parametrize("d", [4, 6])
def test_anticommuting_brackets_match_the_multibracket_on_every_subset(d):
    # the weight-one bracket of each subset, in increasing and in reversed
    # order, is 1/k! times the permutation-sum multibracket
    mats = zi_gammas_with(d)
    wrapped = [linalg.zi_wrap(m) for m in mats]
    tuples = list(dict.fromkeys(t for k in range(1, d + 2)
                                for s in combinations(range(d + 1), k) for t in (s, s[::-1])))
    got = filippov.anticommuting_brackets(mats, tuples, known=d)
    assert list(got) == tuples
    for t in tuples:
        want = multibracket([wrapped[i] for i in t])
        assert linalg.zi_wrap(got[t], factorial(len(t))) == want, t
        assert got[t]


def test_anticommuting_brackets_vanish_on_a_repeated_index():
    mats = zi_gammas_with(6)
    tuples = [(0, 0), (6, 6), (1, 2, 1), (6, 3, 4, 6), (0, 1, 2, 3, 4, 5, 0)]
    got = filippov.anticommuting_brackets(mats, tuples, known=6)
    assert got == dict.fromkeys(tuples, {})
    assert all(multibracket([linalg.zi_wrap(mats[i]) for i in t]) == {} for t in tuples)


@pytest.mark.parametrize("known", [0, 4])
def test_anticommuting_brackets_raise_on_a_commuting_pair(known):
    # the identity commutes with every gamma: the lemma's precondition fails
    mats = zi_gammas_with(4)[:4] + [linalg.zi_identity(4)]
    with pytest.raises(ValueError, match="do not anticommute"):
        filippov.anticommuting_brackets(mats, [(0, 4)], known=known)
    with pytest.raises(ValueError, match="do not anticommute"):
        filippov.anticommuting_brackets(mats[:1] + mats[4:], [(0,)])


def clifford_products(n):
    """The ℤ[i] products clifford_realization(n) makes beyond the gammas:
    the top gamma (n odd, n products) or the chirality (n
    even, n - 1 and its square), two per anticommutator of that matrix with
    each of the n + n % 2 gammas, and the n + 1 weight-one brackets, each
    the ordered product of n matrices and, for n odd, the top slot."""
    d = n + n % 2
    return n + 2 * d + (n + 1) * (n - 1 + n % 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_clifford_realization_makes_one_ordered_product_per_bracket(monkeypatch, n):
    calls = [0]
    right = linalg.zi_mul

    def counted(a, b):
        calls[0] += 1
        return right(a, b)

    monkeypatch.setattr(linalg, "zi_mul", counted)
    filippov._zi_gammas(n + n % 2)
    construction = calls[0]
    calls[0] = 0
    assert clifford_realization(n)[1].ok
    assert calls[0] - construction == clifford_products(n)


def test_gps_self_bracket_scatters_once(monkeypatch):
    # one scatter for [Lambda, Lambda], one for the coordinates condition;
    # an odd-order self-bracket cancels without a scatter
    calls = [0]
    right = poisson._scatter

    def counted(*args):
        calls[0] += 1
        return right(*args)

    monkeypatch.setattr(poisson, "_scatter", counted)
    assert poisson.gps_check(poisson.lie_poisson_bivector(su(3))).ok
    assert calls[0] == 2
    calls[0] = 0
    for n in (1, 3):
        odd = AntisymTensor(n, 3, {tuple(range(1, n + 1)): Poly(3, {(0, 1, 1): Fraction(2)})},
                            Poly.zero(3))
        assert poisson.schouten_bracket(odd, odd).is_zero()
    assert calls[0] == 0


# ---------------------------------------------------------------------------
# the Filippov complexes: one table set per call, and per algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["trivial", "module", "deformation"])
def test_fa_cohomology_builds_one_table_set_per_call(monkeypatch, kind):
    calls = [0]
    right = nary_cohomology.fundamental_tables

    def counted(fa):
        calls[0] += 1
        return right(fa)

    monkeypatch.setattr(nary_cohomology, "fundamental_tables", counted)
    for p_max in range(4):
        calls[0] = 0
        nary_cohomology.fa_cohomology_dims(a4(), kind, p_max)
        assert calls[0] == 1, p_max


def test_fa_cohomology_builds_one_table_set_per_algebra(monkeypatch):
    calls = [0]
    right = nary_cohomology.fundamental_tables

    def counted(fa):
        calls[0] += 1
        return right(fa)

    monkeypatch.setattr(nary_cohomology, "fundamental_tables", counted)
    for built in (1, 2):  # a second algebra builds its own tables once more
        fa = a4()
        for kind in ("trivial", "module", "deformation"):
            for p_max in range(4):
                nary_cohomology.fa_cohomology_dims(fa, kind, p_max)
                assert calls[0] == built, (kind, p_max)
