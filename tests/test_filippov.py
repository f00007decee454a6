import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import dense_reference as dense
from naryalg import filippov, linalg
from naryalg.catalog import a4, a5, a13, corrupted, nhw
from naryalg.claims import (_kernel, _minimal_polynomial, ad_of_sum, append_center,
                            candidate_constants_antisymmetric, clifford_double_commutator,
                            compose_matches_commutator,
                            derivation_space_dim, direct_sum, gauge_algebra, inder_lie_algebra,
                            kasymov_bilinear_nondegenerate, kasymov_form,
                            orthogonal_relations_hold, ray_equal, semisimplicity_check,
                            subordinate, trace_extension_bracket, trace_extension_structure,
                            vector_product)
from naryalg.filippov import (FI_FORMS, FilippovAlgebra, adjoint_fa_representation,
                              check_fa_representation, check_fi, check_metric_fa,
                              clifford_realization, fundamental_compose, gamma_matrices,
                              lowered_form, simple_fa)
from naryalg.lie import check_jacobi, killing_form
from naryalg.nary_cohomology import fa_cohomology_dims
from naryalg.tensors import AntisymTensor, IdentityReport, gen_kronecker, sort_sign


def basis_vec(i, d):
    return [Fraction(1 if j == i else 0) for j in range(1, d + 1)]


# ---------------------------------------------------------------------------
# the characteristic identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("form", FI_FORMS)
def test_euclidean_three_algebra_passes_all_forms(form):
    assert check_fi(a4(), form).ok


@pytest.mark.parametrize("form", FI_FORMS)
def test_abelian_passes(form):
    assert check_fi(FilippovAlgebra(3, 5, {}), form).ok


def test_random_tensor_fails_all_forms_together():
    rng = random.Random(0)
    for _ in range(10):
        f = {idx: {b: Fraction(rng.randint(-3, 3)) for b in range(1, 6)
                   if rng.random() < 0.6}
             for idx in combinations(range(1, 6), 3)}
        fa = FilippovAlgebra(3, 5, f)
        verdicts = {form: check_fi(fa, form).ok for form in FI_FORMS}
        assert len(set(verdicts.values())) == 1


def test_violation_carries_a_witness():
    bad = FilippovAlgebra(3, 5, {(1, 2, 3): {4: Fraction(1)},
                                 (1, 4, 5): {2: Fraction(1)}})
    rep = check_fi(bad)
    assert not rep.ok and rep.witness is not None


def test_the_short_form_scans_on_every_call(monkeypatch):
    # the independent form is never read from the memo of the derivation scan
    calls = []
    scan = filippov._fi_short

    def counted(fa):
        calls.append(fa)
        return scan(fa)

    monkeypatch.setattr(filippov, "_fi_short", counted)
    fa = a4()
    assert [check_fi(fa, "short") for _ in range(3)] == [IdentityReport(True)] * 3
    assert len(calls) == 3


@pytest.mark.parametrize("make", [lambda: corrupted(a4()), lambda: corrupted(a5()),
                                  lambda: omega_bracket()], ids=["corrupted-a4", "corrupted-a5",
                                                                 "omega"])
def test_memoized_reports_equal_the_reference_scans(make):
    # `corrupted` has run check_fi on its output, omega has not: both passes
    # read one memoized derivation report and run a new short scan
    fa = make()
    for _ in range(2):
        reports = {form: check_fi(fa, form) for form in FI_FORMS}
        assert reports == {form: dense.FI_REFERENCE[form](fa) for form in FI_FORMS}
        assert not reports["short"].ok and reports["ghost"] is reports["derivation"]
    before = (reports["derivation"].ok, reports["derivation"].witness)
    with pytest.raises(AttributeError):  # no reader changes what the next one reads
        reports["derivation"].ok = True
    assert (check_fi(fa).ok, check_fi(fa).witness) == before == (False, before[1])


# ---------------------------------------------------------------------------
# simple algebras
# ---------------------------------------------------------------------------

def test_a4_bracket_values():
    fa = a4()
    out = fa.bracket([basis_vec(1, 4), basis_vec(3, 4), basis_vec(4, 4)])
    assert out == [Fraction(0), Fraction(-1), Fraction(0), Fraction(0)]


@pytest.mark.parametrize("n,signs", [(3, (1, 1, 1, 1)), (4, (1, 1, 1, 1, 1)),
                                     (5, (1, 1, 1, 1, 1, 1)),
                                     (3, (-1, 1, 1, 1))])
def test_simple_family_satisfies_identity(n, signs):
    fa = simple_fa(n, signs)
    assert fa.dim == n + 1
    assert check_fi(fa).ok


def test_all_plus_signs_bring_an_identity_metric():
    fa = a4()
    assert fa.metric == linalg.identity(4)
    assert invariant_metric(fa, fa.metric)


def test_sign_validation():
    with pytest.raises(ValueError):
        simple_fa(3, (1, 1, 1))


# ---------------------------------------------------------------------------
# vector product
# ---------------------------------------------------------------------------

def test_vector_product_on_basis():
    out = vector_product([basis_vec(1, 4), basis_vec(3, 4), basis_vec(4, 4)])
    assert out == [Fraction(0), Fraction(-1), Fraction(0), Fraction(0)]


def test_vector_product_repeated_argument_vanishes():
    v = [Fraction(1), Fraction(2), Fraction(0), Fraction(-1)]
    assert vector_product([v, v, basis_vec(2, 4)]) == [Fraction(0)] * 4


def test_vector_product_agrees_with_structure_constants():
    rng = random.Random(1)
    fa = a4()
    for _ in range(10):
        vs = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        assert vector_product(vs) == fa.bracket(vs)


# ---------------------------------------------------------------------------
# fundamental objects
# ---------------------------------------------------------------------------

def test_composition_realizes_matrix_commutator():
    fa = a4()
    for x in combinations(range(1, 5), 2):
        for y in combinations(range(1, 5), 2):
            assert compose_matches_commutator(fa, x, y)


def test_self_composition_acts_trivially():
    fa = a4()
    assert ad_of_sum(fa, fundamental_compose(fa, (1, 2), (1, 2))) == {}


def test_composition_antisymmetric_only_after_ad():
    # the adjoint map of a simple algebra is injective, so the distinction
    # between -X.Y and Y.X needs an algebra with central directions
    fa = nhw(2)
    xy = fundamental_compose(fa, (1, 3), (5, 6))
    yx = fundamental_compose(fa, (5, 6), (1, 3))
    # as formal sums they are not opposite ...
    assert xy != AntisymTensor(fa.arity - 1, fa.dim, {k: -v for k, v in yx.items()})
    # ... while the induced derivations are exactly opposite
    assert ad_of_sum(fa, xy) == linalg.sp_scale(-1, ad_of_sum(fa, yx))


def test_composition_opposite_after_ad_on_simple():
    fa = a4()
    for x in combinations(range(1, 5), 2):
        for y in combinations(range(1, 5), 2):
            xy = ad_of_sum(fa, fundamental_compose(fa, x, y))
            yx = ad_of_sum(fa, fundamental_compose(fa, y, x))
            assert xy == linalg.sp_scale(-1, yx)


# ---------------------------------------------------------------------------
# inner derivations
# ---------------------------------------------------------------------------

def test_inder_dimension_of_simple_algebras():
    assert inder_lie_algebra(a4()).lie.dim == 6
    assert inder_lie_algebra(a5()).lie.dim == 10


def test_inder_trivial_for_abelian():
    assert inder_lie_algebra(FilippovAlgebra(3, 4, {})).lie.dim == 0


def test_inder_constants_satisfy_jacobi():
    ind = inder_lie_algebra(a4())
    assert check_jacobi(ind.lie).ok


def test_orthogonal_relations():
    assert orthogonal_relations_hold(a4())
    assert orthogonal_relations_hold(a5())


def test_candidate_constants_already_antisymmetric_for_simple():
    assert candidate_constants_antisymmetric(a4())


def test_all_derivations_inner_for_simple():
    assert derivation_space_dim(a4()) == 6
    assert derivation_space_dim(a5()) == 10


# ---------------------------------------------------------------------------
# Kasymov form and semisimplicity
# ---------------------------------------------------------------------------

def test_kasymov_su2_proportional_to_minus_identity():
    fa = simple_fa(2, (1, 1, 1))
    _, mat = kasymov_form(fa)
    assert mat == [[-2 * x for x in row] for row in linalg.identity(3)]


def test_kasymov_a4_diagonal_nonzero():
    labels, mat = kasymov_form(a4())
    assert all(mat[i][i] != 0 for i in range(len(labels)))
    assert all(mat[i][j] == 0 for i in range(6) for j in range(6) if i != j)


def test_kasymov_abelian_zero():
    _, mat = kasymov_form(FilippovAlgebra(3, 4, {}))
    assert mat == linalg.zeros(6, 6)


def test_semisimplicity_criterion():
    assert semisimplicity_check(a4())
    assert not semisimplicity_check(append_center(a4()))


def test_direct_sum_semisimple_but_naive_form_degenerate():
    both = direct_sum(a4(), a4())
    assert check_fi(both).ok
    assert semisimplicity_check(both)
    assert not kasymov_bilinear_nondegenerate(both)


# ---------------------------------------------------------------------------
# the spans, ranks and nondegeneracy above against dense Gauss-Jordan: each
# reference is the computation as first written, on `dense_reference`
# ---------------------------------------------------------------------------

def reference_inder(fa):
    """(basis labels, projection, Lie constants): a greedy basis that keeps
    an ad matrix when it raises the dense rank, and dense coordinate solves."""
    d = fa.dim
    labels = list(combinations(range(1, d + 1), fa.arity - 1))
    vecs = {lab: [x for row in dense.fa_ad_matrix(fa, lab) for x in row] for lab in labels}
    basis_labels, basis_rows = [], []
    for lab in labels:
        if dense.rank(basis_rows + [vecs[lab]]) > len(basis_rows):
            basis_rows.append(vecs[lab])
            basis_labels.append(lab)
    span_t = dense.transpose(basis_rows) if basis_rows else []

    def coords(v):
        return dense.solve(span_t, v) if basis_rows else []

    projection = {lab: coords(vecs[lab]) for lab in labels}
    mats = [dense.fa_ad_matrix(fa, lab) for lab in basis_labels]
    entries = {}
    for i, j in combinations(range(len(mats)), 2):
        co = coords([x for row in dense.commutator(mats[i], mats[j]) for x in row])
        entries.update({(i + 1, j + 1, t + 1): v for t, v in enumerate(co) if v})
    return basis_labels, projection, entries


def reference_semisimple(fa):
    d, n = fa.dim, fa.arity
    rows = []
    for fill in combinations(range(1, d + 1), n - 2):
        for lb in combinations(range(1, d + 1), n - 1):
            rows.append([sum((v * fa.f_get((z,) + fill + (l,), c)
                              for c in range(1, d + 1) for l, v in fa.f_row(lb + (c,)).items()),
                             Fraction(0)) for z in range(1, d + 1)])
    return not dense.nullspace(rows) if rows else d == 0


def reference_derivation_dim(fa):
    d, n = fa.dim, fa.arity
    rows = []
    for idx in combinations(range(1, d + 1), n):
        for b in range(1, d + 1):
            row = [Fraction(0)] * (d * d)
            for l, v in fa.f_row(idx).items():
                row[(b - 1) * d + l - 1] += v
            for i in range(n):
                for l in range(1, d + 1):
                    row[(l - 1) * d + idx[i] - 1] -= fa.f_get(idx[:i] + (l,) + idx[i + 1:], b)
            rows.append(row)
    return len(dense.nullspace(rows))


DIFFERENTIAL = {"a4": a4, "a5": a5, "nhw1": lambda: nhw(1), "nhw2": lambda: nhw(2),
                **{f"simple{n}": (lambda n=n: simple_fa(n, [1] * (n + 1))) for n in (3, 4, 5)},
                "simple3-lorentzian": lambda: simple_fa(3, (1, 1, 1, -1)),
                "a4+center": lambda: append_center(a4())}


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_spans_and_ranks_match_dense_reference(name):
    fa = DIFFERENTIAL[name]()
    ind = inder_lie_algebra(fa)
    labels, projection, entries = reference_inder(fa)
    assert ind.basis_labels == labels
    assert ind.projection == projection
    assert {idx + (j,): v for idx, j, v in ind.lie.entries()} == entries
    assert semisimplicity_check(fa) == reference_semisimple(fa)
    assert derivation_space_dim(fa) == reference_derivation_dim(fa)
    _, k = kasymov_form(fa)
    assert kasymov_bilinear_nondegenerate(fa) == (dense.rank(k) == len(k))


# the Kasymov form is `lie.trace_form`, the scan that gives the Killing form:
# equal labels and `Fraction` matrix to the loop it replaced
TRACE_FORM = {**DIFFERENTIAL, "simple2": lambda: simple_fa(2, (1, 1, 1)),
              "a4+a13": lambda: direct_sum(a4(), a13())}


@pytest.mark.parametrize("name", list(TRACE_FORM))
def test_kasymov_form_is_the_reference_loop(name):
    fa = TRACE_FORM[name]()
    assert kasymov_form(fa) == dense.kasymov_form_by_rows(fa)


@pytest.mark.parametrize("name,semisimple", [
    ("a4+a4", True), ("a4+a13", True), ("a5+a5", True), ("a4+center", False), ("nhw2", False)])
def test_semisimplicity_on_sums_and_extensions_is_pinned(name, semisimple):
    make = {"a4+a4": lambda: direct_sum(a4(), a4()), "a4+a13": lambda: direct_sum(a4(), a13()),
            "a5+a5": lambda: direct_sum(a5(), a5()), "a4+center": lambda: append_center(a4()),
            "nhw2": lambda: nhw(2)}[name]
    assert semisimplicity_check(make()) is semisimple


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------

def invariant_metric(fa, g):
    """g is an invariant metric of fa: invariant and nondegenerate."""
    return check_metric_fa(fa, g).ok and linalg.nondegenerate(g).ok


def test_a4_metric_and_lowered_form():
    assert invariant_metric(a4(), linalg.identity(4))
    assert lowered_form(a4(), linalg.identity(4)).entries == {(1, 2, 3, 4): Fraction(-1)}


def test_abelian_metric_for_any_inner_product():
    g = linalg.identity(4)
    g[3][3] = Fraction(2)
    assert invariant_metric(FilippovAlgebra(3, 4, {}), g)


def test_stretched_metric_fails():
    g = linalg.identity(4)
    g[3][3] = Fraction(2)
    rep = check_metric_fa(a4(), g)
    assert not rep.ok and rep.witness is not None
    with pytest.raises(ValueError, match="not antisymmetric"):
        lowered_form(a4(), g)


def test_degenerate_metric_rejected():
    # the zero form is invariant but singular: reported, not raised
    rep = check_metric_fa(a4(), linalg.zeros(4, 4))
    assert rep.ok and not linalg.nondegenerate(linalg.zeros(4, 4)).ok
    assert rep.witness is None and lowered_form(a4(), linalg.zeros(4, 4)).entries == {}
    g = linalg.identity(4)
    g[0][1] = Fraction(1)
    with pytest.raises(ValueError, match="symmetric"):
        check_metric_fa(a4(), g)


def omega_bracket():
    """f_{abc}^d = omega_{abcd} of omega = e1234 + e3456 on R^6: the unit
    metric is invariant, but the bracket fails the FI."""
    omega = {(1, 2, 3, 4): 1, (3, 4, 5, 6): 1}
    f = {}
    for abc in combinations(range(1, 7), 3):
        for d in range(1, 7):
            key, s = sort_sign(abc + (d,))
            if s and key in omega:
                f.setdefault(abc, {})[d] = Fraction(s * omega[key])
    return FilippovAlgebra(3, 6, f)


def test_an_invariant_metric_on_a_bracket_that_fails_the_fi_is_reported():
    fa = omega_bracket()
    assert check_fi(fa).witness == ((1, 3), (2, 3, 5), 6)
    rep = check_metric_fa(fa, linalg.identity(6))
    assert not rep.ok and linalg.nondegenerate(linalg.identity(6)).ok
    assert rep.witness == ((1, 3), (2, 3, 5, 6))


def test_subordinated_metric_algebra_stays_metric():
    sub = subordinate(a4(), basis_vec(4, 4))
    assert invariant_metric(sub, linalg.identity(4))


# ---------------------------------------------------------------------------
# the BLG gauge algebra
# ---------------------------------------------------------------------------

def w_so3():
    """W(so(3)) on u = e1, so(3) = e2..e4 with kappa = delta, v = e5:
    [u, x, y] = [x, y] and [x, y, z] = -kappa([x, y], z) v, with the metric
    <u, v> = 1 and kappa on e2..e4 (Gomis-Milanesi-Russo arXiv:0805.1012)."""
    f = {(1, 2, 3): {4: Fraction(1)}, (1, 2, 4): {3: Fraction(-1)},
         (1, 3, 4): {2: Fraction(1)}, (2, 3, 4): {5: Fraction(-1)}}
    g = linalg.zeros(5, 5)
    g[0][4] = g[4][0] = g[1][1] = g[2][2] = g[3][3] = Fraction(1)
    return FilippovAlgebra(3, 5, f), g


def a13_metric():
    g = linalg.identity(4)
    g[0][0] = Fraction(-1)
    return g


GAUGE = {"a4": lambda: (a4(), linalg.identity(4)),
         "a13": lambda: (a13(), a13_metric()),
         "a4+a4": lambda: (direct_sum(a4(), a4()), linalg.identity(8)),
         "w_so3": w_so3}


@pytest.mark.parametrize("name,dim_inder,signature,levels", [
    # pinned: the four rows below were computed, not derived
    ("a4", 6, (3, 3, 0), {Fraction(-1, 2): 3, Fraction(1, 2): 3}),
    ("a13", 6, (3, 3, 0), {}),
    ("a4+a4", 12, (6, 6, 0), {Fraction(-1, 2): 6, Fraction(1, 2): 6}),
    ("w_so3", 6, (3, 3, 0), None),
])
def test_gauge_algebra_is_pinned(name, dim_inder, signature, levels):
    ga = gauge_algebra(*GAUGE[name]())
    assert len(ga.inder.basis_labels) == dim_inder
    assert ga.k2_signature == signature
    assert ga.ill_defined_at is None
    assert ga.k1_invariant and ga.k2_invariant
    if levels is None:
        assert ga.levels is None and linalg.det(ga.k1) == 0
    else:
        assert {lam: len(basis) for lam, basis in ga.levels.items()} == levels


def test_gauge_algebra_of_an_abelian_algebra_has_no_level():
    # Inder = 0: the empty J has the minimal polynomial 1, so no eigenvalue
    assert _minimal_polynomial([]) == []
    ga = gauge_algebra(FilippovAlgebra(3, 4, {}), linalg.identity(4))
    assert ga.inder.basis_labels == [] and ga.k1 == [] and ga.k2 == []
    assert ga.levels == {} and ga.k2_signature == (0, 0, 0)
    assert _kernel([]) == []


@pytest.mark.parametrize("seed", range(12))
def test_kernel_is_the_dense_nullspace(seed):
    # square matrices of rank below their size, as J - lambda I is
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, n - 1))]
    m = [[sum(rng.randint(-2, 2) * row[j] for row in rows) for j in range(n)]
         for _ in range(n)] if rows else linalg.zeros(n, n)
    assert _kernel(m) == dense.nullspace(m)


def restrict(k, basis):
    return [[sum(u[i] * k[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))
             for v in basis] for u in basis]


@pytest.mark.parametrize("name", ["a4", "a13", "a4+a4"])
def test_levels_are_eigenspaces_where_k2_is_lambda_k1(name):
    ga = gauge_algebra(*GAUGE[name]())
    j = dense.mat_mul(linalg.inverse(ga.k1), ga.k2)
    for lam, basis in ga.levels.items():
        assert linalg.rank([{t: x for t, x in enumerate(u) if x} for u in basis]) == len(basis)
        assert all(dense.mat_mul(j, [[x] for x in u]) == [[lam * x] for x in u] for u in basis)
        assert restrict(ga.k2, basis) == [[lam * x for x in row] for row in restrict(ga.k1, basis)]
        # an ideal: the bracket of the basis with the whole algebra stays inside
        for u in basis:
            for e in linalg.identity(len(j)):
                w = ga.inder.lie.bracket(u, e)
                assert linalg.solve([{t: b[r] for t, b in enumerate(basis) if b[r]}
                                     for r in range(len(w))], len(basis), w) is not None
    if name == "a13":
        # so(3,1) is simple over R: J^2 = -1/4 has no rational eigenvalue
        assert dense.mat_mul(j, j) == [[Fraction(-1, 4) * x for x in row]
                                 for row in linalg.identity(len(j))]


def so4_split_from_gauge_algebra():
    """The nine fields of the A4 so(4) split, read off the gauge algebra:
    the level ideals are the two su(2) blocks."""
    ga = gauge_algebra(a4(), linalg.identity(4))
    labels = ga.inder.basis_labels
    assert labels == list(combinations(range(1, 5), 2))
    r = len(labels)
    # on sorted pairs -(d_{a1b1} d_{a2b2} - d_{b1a2} d_{a1b2}) is -1 on the diagonal
    k1_pattern = ray_equal({(i, j): v for i, row in enumerate(ga.k1) for j, v in enumerate(row)
                            if v}, {(i, i): -1 for i in range(r)})
    eps = {(i, j): gen_kronecker((1, 2, 3, 4), labels[i] + labels[j])
           for i in range(r) for j in range(r)}
    k2_eps = ray_equal({(i, j): v for i, row in enumerate(ga.k2) for j, v in enumerate(row)
                        if v}, {key: v for key, v in eps.items() if v})
    blocks = [ga.levels[lam] for lam in sorted(ga.levels)]
    killing = killing_form(ga.inder.lie)
    commutes = all(not any(ga.inder.lie.bracket(u, v)) for u in blocks[0] for v in blocks[1])
    su2 = all(linalg.signature(restrict(killing, b)) == (0, 3, 0) for b in blocks)

    def scales(k):
        # the block scales lam with k = lam * Killing on each block, or None
        # when k couples the blocks or is off the Killing ray on one
        if any(restrict(k, blocks[0] + blocks[1])[i][j] for i in range(3) for j in range(3, 6)):
            return None
        out = []
        for b in blocks:
            kb, ref = restrict(k, b), restrict(killing, b)
            lam = kb[0][0] / ref[0][0]
            if kb != [[lam * x for x in row] for row in ref]:
                return None
            out.append(lam)
        return out

    s1, s2 = scales(ga.k1), scales(ga.k2)
    assert s1 == [Fraction(1, 2)] * 2 and s2 == [Fraction(-1, 4), Fraction(1, 4)]
    return dense.So4SplitReport(k1_pattern, k2_eps, ga.k2_signature[:2], ga.k1_invariant,
                                ga.k2_invariant, commutes, su2,
                                s1 is not None and s1[0] == s1[1] != 0,
                                s2 is not None and s2[0] == -s2[1] != 0)


def test_so4_split_report_all_green():
    rep = dense.k2_invariant_and_so4_split(a4())
    assert rep.k1_matches_pattern
    assert rep.k2_is_epsilon_ray
    assert rep.k2_signature == (3, 3)
    assert rep.k1_invariant and rep.k2_invariant
    assert rep.split_commutes and rep.split_su2_pattern
    assert rep.k1_sum_of_blocks and rep.k2_difference_of_blocks


def test_so4_split_is_read_off_the_gauge_algebra():
    assert so4_split_from_gauge_algebra() == dense.k2_invariant_and_so4_split(a4())


def stretched():
    g = linalg.identity(4)
    g[3][3] = Fraction(2)
    return g


@pytest.mark.parametrize("fa,g,match", [
    (a5, lambda: linalg.identity(5), "arity 4"),
    (a4, stretched, "not invariant"),
    (a4, lambda: linalg.zeros(4, 4), "singular"),
])
def test_gauge_algebra_rejects_what_has_none(fa, g, match):
    with pytest.raises(ValueError, match=match):
        gauge_algebra(fa(), g())


def test_w_so3_is_pinned():
    # pinned: computed values, not derived
    fa, g = w_so3()
    assert all(check_fi(fa, form).ok for form in FI_FORMS)
    assert invariant_metric(fa, g) and linalg.signature(g) == (4, 1, 0)
    assert derivation_space_dim(fa) == 8
    assert len(inder_lie_algebra(fa).basis_labels) == 6
    assert fa_cohomology_dims(fa, "trivial", 1).dims_h == {0: 1, 1: 0}
    assert fa_cohomology_dims(fa, "deformation", 1).dims_h == {0: 8, 1: 1}


# ---------------------------------------------------------------------------
# subordinated algebras
# ---------------------------------------------------------------------------

def test_subordinate_a4_at_e4_gives_rotation_constants():
    sub = subordinate(a4(), basis_vec(4, 4))
    # [e_a, e_b]' = -eps_{4ab}^c e_c on the first three generators
    assert sub.f == {(1, 2): {3: Fraction(1)}, (1, 3): {2: Fraction(-1)},
                     (2, 3): {1: Fraction(1)}}
    assert check_fi(sub).ok


def test_subordinate_zero_element_abelian():
    sub = subordinate(a4(), [Fraction(0)] * 4)
    assert not sub.f


def test_subordinate_a5():
    sub = subordinate(a5(), basis_vec(5, 5))
    assert sub.arity == 3 and check_fi(sub).ok


# ---------------------------------------------------------------------------
# representations in the fundamental-object sense
# ---------------------------------------------------------------------------

def test_adjoint_satisfies_both_representation_conditions():
    for fa in (a4(), a13(), nhw(1)):
        assert check_fa_representation(fa, adjoint_fa_representation(fa))


def test_broken_representation_detected():
    fa = a4()
    rho = adjoint_fa_representation(fa)
    rho.mats[(1, 2)] = linalg.sp_identity(4)
    rep = check_fa_representation(fa, rho)
    assert not rep.ok and rep.witness == ((1, 2), (1, 3))


# ---------------------------------------------------------------------------
# gamma-matrix realizations
# ---------------------------------------------------------------------------

def test_gamma_matrices_anticommutation():
    for d in (2, 4, 6):
        gam, chi = gamma_matrices(d)
        ident = linalg.sp_identity(2 ** (d // 2))
        assert linalg.sp_mul(chi, chi) == ident
        for a in range(d):
            for b in range(d):
                want = linalg.sp_scale(2, ident) if a == b else {}
                products = [(1, linalg.sp_mul(gam[a], gam[b])), (1, linalg.sp_mul(gam[b], gam[a]))]
                assert linalg.sp_sum(products) == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_clifford_realization_matches_simple_algebra(n):
    induced, rep = clifford_realization(n)
    assert rep.ok and induced.f == simple_fa(n, [1] * (n + 1)).f
    assert check_fi(induced).ok


def test_clifford_double_commutator_identity():
    assert clifford_double_commutator() == IdentityReport(True)


# ---------------------------------------------------------------------------
# trace extensions
# ---------------------------------------------------------------------------

def u2_basis():
    return [{(a, b): Fraction(1)} for a in range(2) for b in range(2)]


def trace2(m):
    return linalg.sp_trace(m, linalg.sp_identity(2))


def commutator_bracket(ms):
    return linalg.sp_commutator(ms[0], ms[1])


commutator_bracket.arity = 2


def three_bracket(ms):
    return trace_extension_bracket(commutator_bracket, trace2, ms)


three_bracket.arity = 3


def test_trace_three_bracket_formula_and_identity():
    rng = random.Random(2)
    a, b, c = ({key: v for key in product(range(2), repeat=2)
                if (v := Fraction(rng.randint(-3, 3)))} for _ in range(3))
    com = linalg.sp_commutator
    rhs = linalg.sp_sum([(trace2(a), com(b, c)), (trace2(b), com(c, a)), (trace2(c), com(a, b))])
    assert three_bracket([a, b, c]) == rhs
    fa = trace_extension_structure(three_bracket, u2_basis())
    assert check_fi(fa).ok


def test_traceless_inputs_bracket_to_zero():
    sl = [{(0, 1): Fraction(1)}, {(1, 0): Fraction(1)},
          {(0, 0): Fraction(1), (1, 1): Fraction(-1)}]
    for a in sl:
        for b in sl:
            for c in sl:
                assert three_bracket([a, b, c]) == {}


def diagonal_bracket(fa):
    """fa's bracket on the diagonal unit matrices E_11, .., E_dd."""
    def bracket(ms):
        vectors = [[m.get((i, i), 0) for i in range(fa.dim)] for m in ms]
        return {(b, b): v for b, v in enumerate(fa.bracket(vectors)) if v}
    bracket.arity = fa.arity
    return bracket


def test_trace_extension_structure_checks_the_identity():
    basis = [{(i, i): Fraction(1)} for i in range(4)]
    assert trace_extension_structure(diagonal_bracket(a4()), basis).f == a4().f
    with pytest.raises(ValueError, match=r"Filippov identity at \(\(1, 2\), \(2, 3, 4\), 3\)"):
        trace_extension_structure(diagonal_bracket(corrupted(a4())), basis)


def test_iterated_trace_extension_still_valid():
    def four_bracket(ms):
        return trace_extension_bracket(three_bracket, trace2, ms)
    four_bracket.arity = 4
    fa = trace_extension_structure(four_bracket, u2_basis())
    assert check_fi(fa).ok
