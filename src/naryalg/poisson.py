"""Antisymmetric multivector fields with polynomial components: the
Schouten-Nijenhuis bracket, generalized-Poisson (even) and Nambu-Poisson
tensor conditions, linear tensors built from Lie-algebra data, and
decomposability of constant tensors.  The graded Jacobi identity, brackets
of functions and the Jacobian (Nambu) brackets are in `claims`.

Everything is exact: conditions on tensors are polynomial identities checked
monomial by monomial, never numerically.

A multivector field of order p on R^m is a rank-p `tensors.AntisymTensor`
with `Poly` components whose `zero` is the zero Poly in m variables.
`schouten_bracket`, `gps_check` and `np_check` read D Lambda, D the least
common multiple of the coefficient denominators, as int term maps keyed by
packed exponents (`poly.pack`), through a signed table
(`AntisymTensor.signed_maps`) whose one shared empty map they recognize by
identity, and build each stored component's gradient once.  The conditions
are homogeneous quadratic in Lambda, so on D Lambda each component is D^2
times its value on Lambda: the same components vanish, and the same least
failing tuple is the witness.

The bracket and the coordinates condition, shuffle sums over the splits of
each sorted kk, are scattered from the pairs (entry J, entry K holding a nu
that J depends on) with K - nu and J disjoint, onto kk = K - nu + J with
that shuffle's sign: the cost follows the nonzero entries, not C(m, p+q-1).
Index sets are bit masks, so a pair costs one test and one parity count.
The Nambu-Poisson scans stop at the first failing tuple of a fixed order;
the differential one loops rho only over the variables of the entries it
differentiates.

Every condition answers with the package's one verdict type,
`tensors.IdentityReport`: `gps_check` with one, `np_check` with the pair
(differential, algebraic), and `plucker_check` with the decomposability
of a constant tensor, whose candidate factors `pivot_factors` builds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .lie import LieAlgebra
from .poly import Poly, add_packed_product, pack, unpack
from .scalars import common_denominator, is_zero
from .tensors import AntisymTensor, BracketTensor, IdentityReport, insert_sign, wedge


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------

def wedge_vectors(vectors, m) -> AntisymTensor:
    """Wedge of constant coordinate vectors (lists of scalars)."""
    out = None
    for v in vectors:
        mv = AntisymTensor(1, m, {(i + 1,): Poly.const(m, c)
                                  for i, c in enumerate(v) if not is_zero(c)}, Poly.zero(m))
        out = mv if out is None else wedge(out, mv)
    return out


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------

def _check_rank(t):
    if t.rank < 1:
        raise ValueError(f"a multivector field of rank {t.rank}: the Schouten bracket "
                         "and the Poisson conditions need rank >= 1")


def _radix(*fields):
    """2 * (the largest exponent) + 1, above every exponent of a product."""
    return 2 * max((k for f in fields for p in f.entries.values() for e in p.terms for k in e),
                   default=0) + 1


def _integer_table(lam, radix):
    """(D, signed table, gradients) of D * lam on integer term maps keyed by
    packed exponents, D the least common multiple of the coefficient
    denominators; the gradients map each stored key to {nu: d_nu of its
    term map} over the variables the map depends on."""
    d = common_denominator([c for p in lam.entries.values() for c in p.terms.values()])
    table = lam.signed_maps(lambda p: {pack(e, radix): c.numerator * (d // c.denominator)
                                       for e, c in p.terms.items()})
    grads = {key: {} for key in table.entries}
    for key, t in table.entries.items():
        for e, c in t.items():
            for nu, x in enumerate(unpack(e, radix, lam.dim)):
                if x:
                    grads[key].setdefault(nu + 1, {})[e - radix ** nu] = c * x
    return d, table, grads


def _key(bits):
    """The sorted key of a bit mask, index i at bit i."""
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def _holders(entries, at_end):
    """nu -> [(bits of rest, sign, term map)] over the stored keys K holding
    nu: rest is K without nu, and the entry at (nu,) + rest, or at rest +
    (nu,) when at_end, is sign times the entry at K."""
    out = {}
    for key, t in entries.items():
        last, bits = len(key) - 1, sum(1 << i for i in key)
        for pos, nu in enumerate(key):
            flips = last - pos if at_end else pos
            out.setdefault(nu, []).append((bits ^ (1 << nu), -1 if flips & 1 else 1, t))
    return out


def _scatter(out, grads, holders, c):
    """out[bits of kk] += c * sign(rest + J -> kk) * H^{nu rest} d_nu F^J
    over the stored keys J of F (grads its gradients), the nu F^J depends
    on, and the holders (rest, sign, map) of nu in H disjoint from J: the
    shuffle sum over the splits (rest, J) of each sorted kk; returns out.
    The sign counts the x in rest above an odd number of indices of J."""
    for j, grad in grads.items():
        jm, odd = sum(1 << i for i in j), 0
        for i in range(0, len(j), 2):  # x in (j[i], j[i+1]]; above j[-1] when i is last
            odd |= (1 << (j[i + 1] + 1) if i + 1 < len(j) else 0) - (1 << (j[i] + 1))
        for nu, dt in grad.items():
            for rm, s, t in holders.get(nu, ()):
                if not rm & jm:
                    terms = out.get(rm | jm)
                    if terms is None:
                        terms = out[rm | jm] = {}
                    add_packed_product(terms, -c * s if (odd & rm).bit_count() & 1 else c * s,
                                       t, dt)
    return out


def _bracket_terms(a, b, p, q):
    """bits of kk -> packed term map (empty where its terms cancel) of
    [A, B]^kk from the integer tables a and b of A (order p), B (order q)."""
    (_, a_table, a_grads), (_, b_table, b_grads) = a, b
    if b is a:
        # the second scatter would repeat the first times (-1)^(p p) = (-1)^p:
        # the first doubles for even p, and the two cancel for odd p
        return {} if p % 2 else _scatter({}, a_grads, _holders(a_table.entries, False), 2)
    a_front = _holders(a_table.entries, False)
    out = _scatter({}, b_grads, a_front, 1)
    # (-1)^p B^{nu bj} d_nu A^{bi}, with the split (bi, bj) read as (bj, bi)
    return _scatter(out, a_grads, _holders(b_table.entries, False), (-1) ** (p * q))


def schouten_bracket(a: AntisymTensor, b: AntisymTensor) -> AntisymTensor:
    """[A, B]^{k_1..k_{p+q-1}} =
        1/(p-1)!q!  eps^{k..}_{i.. j..} A^{nu i..} d_nu B^{j..}
      + (-1)^p / p!(q-1)! eps^{k..}_{i.. j..} B^{nu j..} d_nu A^{i..}

    with the epsilon contractions realized as shuffle sums over sorted
    blocks (sizes p-1, q and p, q-1 respectively), scattered over the pairs
    of entries of D_A A and D_B B and divided by D_A D_B.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    _check_rank(a)
    _check_rank(b)
    m = a.dim
    radix = _radix(a, b)
    at = _integer_table(a, radix)
    bt = at if b is a else _integer_table(b, radix)
    d = at[0] * bt[0]
    comps = {_key(kk): Poly._canonical(m, {unpack(e, radix, m): Fraction(c, d)
                                           for e, c in terms.items()})
             for kk, terms in _bracket_terms(at, bt, a.rank, b.rank).items() if terms}
    return AntisymTensor(a.rank + b.rank - 1, m, dict(sorted(comps.items())), a.zero)


# ---------------------------------------------------------------------------
# generalized Poisson structures (even order)
# ---------------------------------------------------------------------------

def gps_check(lam: AntisymTensor) -> IdentityReport:
    """[Lambda, Lambda] = 0 via the Schouten bracket AND via the coordinates
    condition  w_{s[j_1..j_{2s-1}} d^s w_{j_{2s}..j_{4s-1}]} = 0; the two
    verdicts must agree (they are separate contractions of the integer table
    of D Lambda), and an AssertionError says when they do not.  The witness
    is the least failing j_1..j_{2s-1}."""
    _check_rank(lam)
    if lam.rank % 2:
        raise ValueError("the self-bracket condition is empty for odd order")
    n = lam.rank
    tab = _, table, grads = _integer_table(lam, _radix(lam))
    snb_ok = not any(_bracket_terms(tab, tab, n, n).values())
    coords = _scatter({}, grads, _holders(table.entries, True), 1)
    witness = min((_key(kk) for kk, terms in coords.items() if terms), default=None)
    if snb_ok != (witness is None):
        raise AssertionError("the two self-bracket evaluations disagree")
    return IdentityReport(snb_ok, witness)


def bracket_multivector(bt: BracketTensor) -> AntisymTensor:
    """The linear tensor w^{i_1..i_n} = C_{i_1..i_n}^k x_k of a set of
    structure constants: the Lie-Poisson bivector of a Lie algebra, the
    linear even tensor of a GLA, eta_{a_1..a_n} = f_{a_1..a_n}^b x_b of a
    Filippov algebra."""
    m = bt.dim
    comps = {idx: p for idx, row in bt.c.items()
             if (p := sum((Poly.var(m, k) * v for k, v in row.items()), Poly.zero(m)))}
    return AntisymTensor(bt.arity, m, comps, Poly.zero(m))


lie_poisson_bivector = bracket_multivector


def linear_gps_from_cocycle(alg: LieAlgebra, omega: AntisymTensor) -> AntisymTensor:
    """Linear even tensor with components Omega_{i_1..i_{2m-2}}^sigma
    x_sigma; validated against the self-bracket condition (`gla_from_cocycle`
    raises ValueError on a non-cocycle)."""
    from .gla import gla_from_cocycle
    lam = bracket_multivector(gla_from_cocycle(alg, omega))
    if not gps_check(lam).ok:
        raise AssertionError("linear tensor fails the self-bracket condition")
    return lam


# ---------------------------------------------------------------------------
# Nambu-Poisson conditions
# ---------------------------------------------------------------------------

def np_check(lam: AntisymTensor):
    """(differential, algebraic): the reports of the differential condition

        eta_{i.. rho} d^rho eta_{j_1..j_n}
          - sum_k (-1)^{k-1} (d^rho eta_{i.. j_k}) eta_{rho j..^k..} = 0

    and of the algebraic condition Sigma + P(Sigma) = 0 where

        Sigma_{i.. j..} = eta_{i..} eta_{j..}
                        - sum_k eta_{i_1..i_{n-1} j_k} eta_{j_1.. i_n @k ..j_n}

    and P swaps i_1 with j_1.  For n = 2 the algebraic condition is reported
    vacuously true (it is absent for ordinary Poisson tensors).  Both
    conditions are scanned on the integer table of D eta in a fixed order,
    and the first failing tuple is the witness.  The algebraic scan passes
    over the pairs whose Sigma and P(Sigma) both vanish term by term, so no
    skipped pair could be the witness.  A Sigma_{i j} vanishes so when i_n
    is among the j (the term of j_k = i_n cancels eta_i eta_j, and every
    other term repeats i_n), when its i_2..i_{n-1} repeats an index, and
    when eta_i is zero and no j_k completes i_1..i_{n-1} to a nonzero
    component; P keeps i_2..i_n and j_2..j_n.
    """
    _check_rank(lam)
    n, m = lam.rank, lam.dim
    rng = range(1, m + 1)
    _, table, grads = _integer_table(lam, _radix(lam))
    zero = table.zero

    dw = None
    for it in combinations(rng, n - 1):
        row = [None] + [insert_sign(it, n - 1, x) for x in rng]  # it + (x,): (key, sign)
        for jt in combinations(rng, n):
            terms = {}
            for rho, d in grads.get(jt, {}).items():
                e1 = table[it + (rho,)]
                if e1 is not zero:
                    add_packed_product(terms, 1, e1, d)
            for k in range(n):
                key, s = row[jt[k]]
                if s and key in grads:
                    rest = jt[:k] + jt[k + 1:]
                    for rho, d in grads[key].items():
                        e2 = table[(rho,) + rest]
                        if e2 is not zero:
                            add_packed_product(terms, s if k & 1 else -s, d, e2)
            if terms:
                dw = (it, jt)
                break
        if dw:
            break

    differential = IdentityReport(dw is None, dw)
    if n == 2:
        return differential, IdentityReport(True)

    aw = None
    for it, jt, it2, jt2 in _sigma_pairs(table, n, m):
        terms = {}
        _add_sigma(terms, table, n, it, jt)
        _add_sigma(terms, table, n, it2, jt2)
        if terms:
            aw = (it, jt)
            break
    return differential, IdentityReport(aw is None, aw)


def _add_sigma(terms, table, n, it, jt):
    """terms += Sigma_{it jt} on a term table of an order-n field."""
    zero = table.zero
    x = table[it]
    if x is not zero:
        y = table[jt]
        if y is not zero:
            add_packed_product(terms, 1, x, y)
    head = it[:n - 1]
    pivot = it[n - 1]
    for k in range(n):
        x = table[head + (jt[k],)]
        if x is zero:
            continue
        y = table[jt[:k] + (pivot,) + jt[k + 1:]]
        if y is not zero:
            add_packed_product(terms, -1, x, y)


def _sigma_pairs(table, n, m):
    """(it, jt, P(it), P(jt)) in the scan order of `np_check`, past the pairs
    whose Sigma and P(Sigma) both vanish term by term."""
    rng = range(1, m + 1)
    zero = table.zero

    def heads(it):
        """The j completing it[:n-1] to a nonzero component; it[n-1] is
        among them when eta_it is nonzero."""
        head = it[:n - 1]
        return {j for j in rng if table[head + (j,)] is not zero}

    for it in product(rng, repeat=n):
        if len(set(it[1:n - 1])) < n - 2:
            continue
        pivot = it[n - 1]
        js = heads(it)
        others = [j for j in rng if j != pivot]  # jt[1:], shared with P(jt)
        for j0 in rng:
            it2 = (j0,) + it[1:]
            js2 = heads(it2)
            may1 = j0 != pivot and js
            may2 = it[0] != pivot and js2
            if not (may1 or may2):
                continue
            for rest in product(others, repeat=n - 1):
                jt, jt2 = (j0,) + rest, (it[0],) + rest
                if (may1 and (pivot in js or not js.isdisjoint(jt))
                        or may2 and (pivot in js2 or not js2.isdisjoint(jt2))):
                    yield it, jt, it2, jt2


# ---------------------------------------------------------------------------
# decomposability of constant tensors
# ---------------------------------------------------------------------------

def pivot_factors(n, m, entries):
    """(vectors, scale) of the greedy pivot factorization of a constant
    antisymmetric tensor T: from the least key P with T_P != 0, the vectors
    (w_k)_j = T_{P[:k] j P[k+1:]} and the scale 1 / T_P^{n-1}.  When T is
    decomposable, T is scale times the wedge of the vectors; ([], 0) for
    the zero tensor."""
    if not entries:
        return [], Fraction(0)
    get = AntisymTensor(n, m, entries).get
    pivot = min(entries)
    vectors = [[get(pivot[:k] + (j,) + pivot[k + 1:]) for j in range(1, m + 1)]
               for k in range(n)]
    return vectors, 1 / entries[pivot] ** (n - 1)


def plucker_check(n, m, entries) -> IdentityReport:
    """Decomposability of a constant antisymmetric tensor T: it holds when
    the wedge of T's `pivot_factors`, times their scale, is T.  Otherwise
    a Plucker relation
    sum_k (-1)^k T_{i_1..i_{n-1} j_k} T_{j_0..^k..j_n} = 0 fails, and the
    first violated (i_tuple, j_tuple) is the witness."""
    vectors, scale = pivot_factors(n, m, entries)
    if not entries or {k: scale * p.eval([Fraction(0)] * m)
                       for k, p in wedge_vectors(vectors, m).entries.items()} == entries:
        return IdentityReport(True)
    get = AntisymTensor(n, m, entries).get
    rng = range(1, m + 1)
    for it, jt in product(combinations(rng, n - 1), combinations(rng, n + 1)):
        if sum((-1) ** k * get(it + (jt[k],)) * get(jt[:k] + jt[k + 1:]) for k in range(n + 1)):
            return IdentityReport(False, (it, jt))
    raise AssertionError("pivot factorization failed but no violated relation found")
