import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from naryalg.claims import levi_civita
from naryalg.lie import LieAlgebra
from naryalg.tensors import (AntisymTensor, BracketTensor, eps_identities_check, fold_antisym,
                             gen_kronecker, merge_sign, insert_sign, perm_sign, shuffle_splits,
                             sort_blocks, sort_sign)


# ---------------------------------------------------------------------------
# generalized Kronecker symbol
# ---------------------------------------------------------------------------

def test_gen_kronecker_identity_permutation():
    assert gen_kronecker((1, 2), (1, 2)) == 1


def test_gen_kronecker_transposition():
    assert gen_kronecker((1, 2), (2, 1)) == -1


def test_gen_kronecker_not_a_permutation():
    assert gen_kronecker((1, 2, 3), (1, 2, 4)) == 0


def test_gen_kronecker_length_mismatch():
    with pytest.raises(ValueError):
        gen_kronecker((1, 2), (1, 2, 3))


def test_gen_kronecker_is_determinant():
    # brute-force determinant of the delta matrix for random small tuples
    rng = random.Random(0)
    for _ in range(50):
        p = rng.randint(1, 4)
        upper = tuple(rng.randint(1, 4) for _ in range(p))
        lower = tuple(rng.randint(1, 4) for _ in range(p))
        det = Fraction(0)
        for perm in permutations(range(p)):
            term = Fraction(perm_sign(perm))
            for i, j in enumerate(perm):
                term *= 1 if upper[i] == lower[j] else 0
            det += term
        assert gen_kronecker(upper, lower) == det


# ---------------------------------------------------------------------------
# epsilon recursions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(2, 2), (4, 4), (3, 5)])
def test_eps_identities(n, d):
    assert eps_identities_check(n, d).ok


def test_eps_pair_expansion_p2_d3():
    assert dense.eps_pair_expansion_check(2, 3)


@pytest.mark.parametrize("p,d", [(p, d) for d in range(2, 5) for p in range(1, d)])
def test_eps_pair_expansion_agrees_with_the_scan(p, d):
    assert dense.eps_pair_expansion_check(p, d) == eps_identities_check(p + 1, d).ok


def test_eps_desk_scale_guard():
    with pytest.raises(ValueError):
        eps_identities_check(3, 7)


# ---------------------------------------------------------------------------
# antisymmetric storage
# ---------------------------------------------------------------------------

sorted_tuples = st.lists(st.integers(1, 6), min_size=3, max_size=3, unique=True)


@given(sorted_tuples, st.fractions(max_denominator=20))
@settings(max_examples=50)
def test_lookup_respects_permutation_signs(idx, value):
    t = AntisymTensor(3, 6, {tuple(idx): value})
    base = tuple(sorted(idx))
    stored = t.get(base)
    for perm in permutations(base):
        assert t.get(perm) == perm_sign(perm) * stored


def test_repeated_indices_read_zero():
    t = AntisymTensor(3, 4, {(1, 2, 3): Fraction(5)})
    assert t.get((1, 1, 3)) == 0


def test_canonical_no_zero_entries():
    t = AntisymTensor(2, 3, {(1, 2): Fraction(1), (2, 1): Fraction(1)})
    assert t.is_zero()  # the two entries cancel


def test_equality_is_entrywise():
    a = AntisymTensor(2, 3, {(2, 1): Fraction(-1)})
    b = AntisymTensor(2, 3, {(1, 2): Fraction(1)})
    assert a == b


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), (0, 2), (1, 4), (4, 4)])
def test_tensor_rejects_a_key_that_does_not_fit(key):
    # a key of the wrong length, or with an index outside 1..dim, raises
    # even when it repeats an index and would read zero
    with pytest.raises(ValueError, match="does not fit"):
        AntisymTensor(2, 3, {key: Fraction(1)})


@pytest.mark.parametrize("entry", [((1, 9, 4), 1), ((0, 2, 1), 1), ((1, 2, 5), 1),
                                   ((1, 2, 0), 0)])
def test_structure_constants_reject_indices_outside_the_basis(entry):
    # lower indices and targets alike; the dim-4 algebra with a bracket at
    # (1, 9) used to be accepted and passed check_jacobi
    with pytest.raises(ValueError, match="outside 1..4"):
        LieAlgebra.from_entries(4, [entry])
    (i, j, k), v = entry
    with pytest.raises(ValueError, match="outside 1..4"):
        BracketTensor(2, 4, {(i, j): {k: v}})


def test_signed_rows_read_every_index_order():
    # one negated row per stored row, shared by the odd orders; a repeat or
    # an absent tuple reads the empty row
    t = BracketTensor(3, 4, {(1, 2, 3): {4: Fraction(1, 2), 1: Fraction(-3)}})
    for idx in permutations((1, 2, 3)):
        assert t.signed[idx] == t.row(idx)
    assert t.signed[2, 1, 3] is t.signed[1, 3, 2] is t.signed[3, 2, 1]
    assert t.signed[1, 2, 3] is t.c[(1, 2, 3)]
    assert t.signed[1, 1, 3] == t.signed[1, 2, 4] == {}


def test_scaled_copy_reads_its_own_rows():
    # a copy that took the original's cached table would read unscaled rows
    alg = LieAlgebra.from_entries(3, [((1, 2, 3), Fraction(1, 2)), ((2, 3, 1), Fraction(1, 3))])
    assert alg.signed[2, 1] == {3: Fraction(-1, 2)}
    d, ialg = alg.integer_scaled()
    assert d == 6
    assert ialg.signed[2, 1] == {3: -3} and ialg.signed[3, 2] == {1: -2}
    assert all(type(v) is int for row in ialg.c.values() for v in row.values())
    assert alg.signed[2, 1] == {3: Fraction(-1, 2)}
    assert alg.scaled(12).signed[1, 2] == {3: 6}
    # an extra factor joins the denominators in the least common multiple
    assert alg.integer_scaled(4)[0] == 12 and alg.integer_scaled(5)[0] == 30


# ---------------------------------------------------------------------------
# contractions of the Kronecker and Levi-Civita symbols
# ---------------------------------------------------------------------------

def test_contract_eps_with_delta_d3():
    # eps^{ij}_{kl} delta^k_i = sum_i eps^{ij}_{il} = (d - 1) delta^j_l at d = 3
    for j in range(1, 4):
        for l in range(1, 4):
            assert sum(gen_kronecker((i, j), (i, l)) for i in range(1, 4)) == \
                (2 if j == l else 0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_full_self_contraction_of_levi_civita(d):
    # eps stores the one entry (1..d) -> 1, and its signed read squares to 1
    # on each of the d! permutations: eps_{i..} eps_{i..} = d!
    eps = levi_civita(d)
    assert eps.entries == {tuple(range(1, d + 1)): 1}
    assert sum(eps.get(idx) ** 2 for idx in permutations(range(1, d + 1))) == factorial(d)


def test_eps_expansion_relation_p2_d3():
    # the pairwise expansion of the rank-3 symbol recombines exactly
    d = 3
    p = 2
    for upper in product(range(1, d + 1), repeat=p + 1):
        for lower in product(range(1, d + 1), repeat=p + 1):
            tot = Fraction(0)
            for s in range(p + 1):
                for t in range(s + 1, p + 1):
                    sub = gen_kronecker(upper[:2], (lower[s], lower[t]))
                    if sub:
                        rest = tuple(lower[q] for q in range(p + 1) if q not in (s, t))
                        tot += (-1) ** (s + t + 1) * sub * gen_kronecker(upper[2:], rest)
            assert tot == gen_kronecker(upper, lower)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------

def test_shuffle_splits_cover_multinomial():
    m = (1, 2, 3, 4, 5)
    splits = list(shuffle_splits(m, [2, 3]))
    assert len(splits) == 10
    assert all(blocks[0] + blocks[1] and sign in (1, -1) for blocks, sign in splits)


def test_shuffle_signs_match_merge():
    for (a, b), sign in shuffle_splits((1, 2, 3, 4), [2, 2]):
        assert sign == merge_sign(a, b)


def test_sort_sign_zero_on_repeats():
    assert sort_sign((1, 1, 2))[1] == 0


@given(st.sets(st.integers(1, 7), max_size=5), st.integers(1, 7), st.data())
def test_insert_sign_is_sort_sign_of_the_inserted_tuple(members, x, data):
    seq = tuple(sorted(members))
    k = data.draw(st.integers(0, len(seq)))
    key, s = insert_sign(seq, k, x)
    ref_key, ref_s = sort_sign(seq[:k] + (x,) + seq[k:])
    assert s == ref_s and (s == 0 or key == ref_key)


# ---------------------------------------------------------------------------
# sort_blocks and fold_antisym against the loops they replace
# ---------------------------------------------------------------------------

def reference_sort_blocks(blocks):
    """The blockwise canonicaliser of the FA cochains as first written."""
    sign = 1
    out = []
    for blk in blocks:
        sb, s = sort_sign(blk)
        if s == 0:
            return None, 0
        sign *= s
        out.append(sb)
    return tuple(out), sign


def test_sort_blocks_matches_the_blockwise_loop():
    rng = random.Random(7)
    for _ in range(2000):
        blocks = [tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
                  for _ in range(rng.randint(0, 3))]
        key, s = sort_blocks(blocks)
        ref_key, ref_s = reference_sort_blocks(blocks)
        assert s == ref_s
        if s:
            assert key == ref_key
        if len(blocks) == 1:
            one, s1 = sort_sign(blocks[0])
            assert (key, s) == ((one,), s1)


def reference_cocycle_fold(raw):
    """lie.cocycle_from_invariant_poly's check of its raw tensor."""
    ent = {}
    for key, v in raw.items():
        skey, s = sort_sign(key)
        if s == 0:
            raise ArithmeticError(f"constructed tensor not antisymmetric at {key}")
        if skey in ent:
            if ent[skey] != s * v:
                raise ArithmeticError(f"constructed tensor not antisymmetric at {key}")
        else:
            ent[skey] = s * v
    return ent


def reference_metric_fold(raw):
    """filippov.check_metric_fa's check of its lowered constants."""
    ent = {}
    for key, v in raw.items():
        skey, s = sort_sign(key)
        if s == 0:
            if v != 0:
                raise AssertionError("lowered constants not antisymmetric")
            continue
        if ent.setdefault(skey, s * v) != s * v:
            raise AssertionError("lowered constants not antisymmetric")
    return ent


def random_raw_map(rng, rank=3, dim=4):
    """A raw {index tuple: value} map: every permutation of a few random
    antisymmetric entries, then some of them dropped, zeroed or changed, and
    some entries on repeated indices (zero or not) added."""
    raw = {}
    for key in rng.sample(list(combinations(range(1, dim + 1), rank)), rng.randint(0, 3)):
        v = Fraction(rng.choice([-2, -1, 1, 2]))
        perms = list(permutations(key))
        rng.shuffle(perms)
        for p in perms:
            raw[p] = perm_sign(p) * v
    for idx in list(raw):
        roll = rng.random()
        if roll < 0.05:
            del raw[idx]
        elif roll < 0.08:
            raw[idx] = Fraction(0)
        elif roll < 0.1:
            raw[idx] += 1
    for _ in range(rng.choice([0, 0, 0, 1])):
        idx = [rng.randint(1, dim) for _ in range(rank)]
        idx[rng.randrange(1, rank)] = idx[0]
        raw[tuple(idx)] = Fraction(rng.choice([0, 0, 1]))
    return raw


def verdict(fn, raw):
    try:
        return fn(raw), None
    except (ArithmeticError, AssertionError) as exc:
        return None, str(exc)


def test_fold_antisym_matches_the_three_loops():
    rng = random.Random(11)
    seen = set()
    for _ in range(3000):
        raw = random_raw_map(rng)
        ent, bad = fold_antisym(raw)
        ref, err = verdict(reference_cocycle_fold, raw)
        assert ent == ref
        assert err == (None if bad is None else
                       f"constructed tensor not antisymmetric at {bad}")

        # check_metric_fa drops a zero sum on a repeated index first
        ent, _ = fold_antisym({k: v for k, v in raw.items() if v or perm_sign(k)})
        ref, err = verdict(reference_metric_fold, raw)
        assert ent == ref and (err is None) == (ent is not None)
        seen.add((bad is None, ent is not None))
    # all three reachable verdicts occur: everything holds; only a zero sits
    # on a repeated index; a value breaks it
    assert seen == {(True, True), (False, True), (False, False)}
