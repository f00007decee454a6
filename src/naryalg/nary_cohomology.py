"""Filippov-algebra cohomology as Leibniz cohomology of the fundamental objects.

The fundamental objects X = X_1 ^ .. ^ X_{n-1} of an n-Lie algebra g span a
Leibniz algebra L = wedge^{n-1} g under the bracket
X . Y = sum_k (Y_1, .., [X, Y_k], .., Y_{n-1}) (`lie.fundamental_compose`),
and L acts on g by X . Z = [X_1, .., X_{n-1}, Z] (Daletskii-Takhtajan,
Lett. Math. Phys. 39 (1997) 127).  Every complex of this module is the
Leibniz complex of L with coefficients in a module M with a left action l
and a right action r (Loday-Pirashvili, Math. Ann. 296 (1993) 139):

  (delta w)(X_1..X_{p+1}) = sum_{i<=p} (-1)^{i+1} l_{X_i} w(..^i..)
                          + (-1)^{p+1} r_{X_{p+1}} w(X_1..X_p)
                          + sum_{i<j} (-1)^i w(..^i.., X_i . X_j at j, ..)

One function, `_leibniz_delta`, evaluates it.  The complexes differ only in
their coefficient module and in the keys of their coordinates:

  complex      M      l_X                        r_X                     keys
  trivial      g*     w -> -w(X . -)             -l_X                    trivial_keys
  module       V      rho(X)                     -rho(X)                 module_keys
  deformation  End g  f -> X . f(-) - f(X . -)   -l_X f - (f . X) . (-)  trivial_keys
  binary       given  left[X]                    right[X]                all p-tuples

where (f . X) . Z = sum_k [X_1, .., f(X_k), .., X_{n-1}, Z]; the binary row
is `LeibnizComplex`, a `LeibnizAlgebra` with given action matrices.

A value in g* or End g is a function of one element Z, so a trivial or
deformation p-cochain is a function w(X_1..X_p)(Z) of p fundamental objects
and one solitary element.  Its keys absorb Z into the last block: a key is
(X_1, .., X_{p-1}, X_p ^ Z) with X_p ^ Z a sorted n-tuple.  The 1-cochains
are then the rank-n antisymmetric tensors that the extension problem needs,
since a central extension adds constants f(X_1..X_{n-1}, Z) antisymmetric in
all n arguments; that the coboundary keeps this joint antisymmetry is a
tested property (`claims.jointly_antisymmetric_in_last_slot`).  Module keys are the
p-tuples of sorted blocks.  Signs of unsorted blocks are tracked on reads.

`_leibniz_delta` is the one evaluation of delta: it writes D delta straight
into sparse integer rows {column: int}, one per target coordinate.  Its
tables are index-coded: the B sorted blocks are numbered 0..B-1, a point z
in 1..dim is z - 1 (the plain kinds have the one point 0), and L's bracket
[X][Y], the left and right actions [X][z] and the placement [X][z] of z into
the last block, (number of X ^ z among the N sorted n-tuples, sign) or None,
are tuples indexed by these numbers, a zero entry empty (`fundamental_tables`,
`_fa_actions`).  They hold the constants and module matrices scaled to ints
by their least common denominator D (`cohomology.integer_scaling`).  Columns
are computed: a trivial or deformation coordinate (X_1..X_{p-1}, X_p ^ Z; a),
p >= 1, is column ((X_1 B + .. + X_{p-1}) N + l) size + a, l the number of
its last block; a module or binary key is its block numbers in mixed radix B
(N = B, the identity placement), and (z; a) of degree 0 is z size + a.  The
kernel walks the target points grouped by their first p blocks, works out
what those fix once per group, and builds and hashes no key.  A complex
(`FAComplex`, or `LeibnizComplex` for the binary row) is the one handle that
every call takes: it is built once, and a given rho, a `lie.Representation`
checked when it was built, is not checked again; with rho None,
D and the tables are memoized on the algebra per kind and size, the kinds
sharing one `fundamental_tables`.  It lists its keys once per degree and
keeps no matrix.  `coboundary_matrix(cx, p)` gives D delta_p as (rows, D);
`cohomology.complex_dims` ranks the rows (`cx.matrix`), `fa_coboundary` and
`claims.leibniz_coboundary` (given rational actions, D = 1) apply delta
through `cohomology.apply`, and `deformation_preimage` and
`trivialize_fa_extension` invert it through `cohomology.preimage`, on
coordinates (key, a).  `coboundary_at` (delta at given points) and the
checks built on it in `claims` dot the rows at those points alone with the
coordinates and divide by D.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product
from math import comb
from operator import mul

from . import linalg
from .cohomology import (CohomologyReport, apply, apply_rows, column_vector, complex_dims,
                         integer_scaling, preimage)
from .filippov import FilippovAlgebra, check_fi
from .scalars import ZERO, accumulate, is_zero, rat
from .tensors import FieldEq, IdentityReport, insert_sign, sort_blocks


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

class NCochain(FieldEq):
    """Cochain for one of the three Filippov complexes.

    complex_kind: 'trivial' | 'module' | 'deformation'
    order p; arity n; dim_v target dimension (1 for scalars; the algebra
    dimension for the deformation complex; the module dimension otherwise).

    Coordinate keys: 'module' -> (blocks); 'trivial'/'deformation' with
    p >= 1 -> (blocks[:-1], last) where last is the sorted n-tuple absorbing
    the solitary slot; p = 0 -> single labels.  Values are dense target
    vectors (tuples) of length dim_v.
    """

    _fields = ("complex_kind", "order", "arity", "dim", "dim_v", "data")

    def __init__(self, complex_kind, order, arity, dim, dim_v, data=None):
        clean = {}  # tuples from lists, as in `scalars.common_denominator`
        for key, vec in (data or {}).items():
            vec = tuple([rat(v) for v in vec])
            if all(v == 0 for v in vec):
                continue
            ckey, s = sort_blocks(key) if order else (key, 1)
            if s == 0:
                continue
            vec = tuple([s * v for v in vec])
            if ckey in clean:
                clean[ckey] = tuple([a + b for a, b in zip(clean[ckey], vec)])
                if all(v == 0 for v in clean[ckey]):
                    del clean[ckey]
            else:
                clean[ckey] = vec
        self.complex_kind, self.order, self.arity = complex_kind, order, arity
        self.dim, self.dim_v, self.data = dim, dim_v, clean
        self._zero = (Fraction(0),) * dim_v

    @classmethod
    def _canonical(cls, complex_kind, order, arity, dim, dim_v, data):
        """A cochain on data already in canonical form: keys of sorted
        blocks, `Fraction` vectors of length dim_v, none of them zero.
        Takes the map as it is, without the constructor's pass over it."""
        out = object.__new__(cls)
        vars(out).update(complex_kind=complex_kind, order=order, arity=arity, dim=dim,
                         dim_v=dim_v, data=data, _zero=(Fraction(0),) * dim_v)
        return out

    def value(self, key):
        """Dense target vector at a raw key (blocks may be unsorted); a key
        with no value reads the one zero vector of the cochain."""
        ckey, s = sort_blocks(key) if self.order else (key, 1)
        vec = self.data.get(ckey) if s else None
        if vec is None:
            return self._zero
        return vec if s == 1 else tuple(-v for v in vec)

    def is_zero(self):
        return not self.data


def trivial_keys(fa, p):
    """Canonical coordinate keys of the trivial/deformation cochain spaces."""
    n, d = fa.arity, fa.dim
    rng = range(1, d + 1)
    if p == 0:
        return [(z,) for z in rng]
    blocks = list(combinations(rng, n - 1))
    last = list(combinations(rng, n))
    return [tuple(bs) + (l,) for bs in product(blocks, repeat=p - 1) for l in last]


def module_keys(fa, p):
    n, d = fa.arity, fa.dim
    blocks = list(combinations(range(1, d + 1), n - 1))
    return list(product(blocks, repeat=p))


# ---------------------------------------------------------------------------
# the Leibniz coboundary
# ---------------------------------------------------------------------------

def _leibniz_delta(cx, p, groups):
    """The rows of D delta_p of the complex cx: for each (X_1..X_p, tails)
    of groups and each (X_{p+1}, z) of tails, in order, `cx.size` rows
    {column: int}, row t holding coordinate t of (delta w)(X_1..X_{p+1}) at
    z as a form in the coordinates of w.  Blocks, points, tables and columns
    are those of the module docstring; action[X][z] is ((q, ((t, b, v),
    ..)), ..): coordinate t of X acting on w at z is the sum of v w(q)[b]."""
    bracket, left, right, place, size = cx.bracket, cx.left, cx.right, cx.place, cx.size
    nb, nlast, span = len(bracket), len(cx.split), range(size)
    weight = [nb ** (p - 2 - k) * nlast for k in range(p - 1)]  # of each leading slot
    unplaced = [] if p else [(q, 1) for q in range(len(left[0]) if left else 0)]  # p = 0
    rsgn = 1 if p & 1 else -1
    rows = []
    for head, tails in groups:
        # (-1)^{i+1} l_{X_i}, i <= p (1-based), reads w(X_1..^i..X_{p+1}): per
        # X_i its sign, actions, brackets, the worth of the key's leading
        # blocks, and (worth, weight, X_i . X_j) of each nonzero leading X_j
        lead = []
        for i, x in enumerate(head):
            slots = [(head[j] * weight[j - 1], weight[j - 1], bracket[x][head[j]])
                     for j in range(i + 1, p) if bracket[x][head[j]]]
            lead.append((-1 if i & 1 else 1, left[x], bracket[x],
                         sum(map(mul, head[:i] + head[i + 1:], weight)), slots))
        # (-1)^{p+1} r_{X_{p+1}} reads w(X_1..X_p)
        hp, atp = sum(map(mul, head[:-1], weight)), place[head[-1]] if p else unplaced
        for xl, z in tails:
            vec = [{} for _ in span]
            at = place[xl]
            kept = at[z]
            for sgn, lx, bx, h, slots in lead:
                for q, terms in lx[z]:
                    pq = at[q]
                    if pq is not None:
                        base, s = (h + pq[0]) * size, sgn * pq[1]
                        for t, b, v in terms:
                            accumulate(vec[t], base + b, s * v)
                if kept is not None:  # X_i . X_j in a leading slot keeps X_{p+1}
                    for shift, w, pairs in slots:
                        base, s = h + kept[0] - shift, -sgn * kept[1]
                        for y, v in pairs:
                            col, c = (base + y * w) * size, s * v
                            for t in span:
                                accumulate(vec[t], col + t, c)
                for y, v in bx[xl]:  # X_i . X_{p+1} is the last block
                    py = place[y][z]
                    if py is not None:
                        col, c = (h + py[0]) * size, -sgn * py[1] * v
                        for t in span:
                            accumulate(vec[t], col + t, c)
            for q, terms in right[xl][z]:
                pq = atp[q]
                if pq is not None:
                    base, s = (hp + pq[0]) * size, rsgn * pq[1]
                    for t, b, v in terms:
                        accumulate(vec[t], base + b, s * v)
            rows.extend(vec)
    return rows


def _matrix_terms(m, sign=1):
    """The action terms of sign * m, a sparse matrix, on the whole fiber,
    as the one entry of a plain action table."""
    terms = tuple((a, b, sign * v) for (a, b), v in sorted(m.items()))
    return ((0, terms),) if terms else ()


def _plain(nb):
    """(place, split) of a plain complex on nb blocks: a key's last block is
    numbered as itself, and the one point is 0."""
    return tuple(((x, 1),) for x in range(nb)), tuple((x, 0) for x in range(nb))


# ---------------------------------------------------------------------------
# the Filippov complexes
# ---------------------------------------------------------------------------

def fundamental_tables(fa: FilippovAlgebra):
    """(blocks, bracket, action, place, split) of L = wedge^{n-1} g by
    number (module docstring), all tuples: bracket[X][Y] = X . Y =
    sum_k (Y_1, .., X . Y_k, .., Y_{n-1}), action[X][z] = X . z as ((l,
    value), ..), place[X][z] and, per sorted n-tuple L, split[L] = (X, z)
    with X ^ z = L and z last."""
    rng = range(1, fa.dim + 1)
    blocks = tuple(combinations(rng, fa.arity - 1))
    num = {x: i for i, x in enumerate(blocks)}
    action = tuple(tuple(tuple((l - 1, v) for l, v in fa.row(x + (z,)).items()) for z in rng)
                   for x in blocks)
    bracket = []
    for acts in action:
        row = []
        for y in blocks:
            out = {}
            for k, yk in enumerate(y):
                for l, v in acts[yk - 1]:
                    key, s = insert_sign(y[:k] + y[k + 1:], k, l + 1)
                    if s:
                        accumulate(out, num[key], s * v)
            row.append(tuple(out.items()))
        bracket.append(tuple(row))
    lasts = {y: i for i, y in enumerate(combinations(rng, fa.arity))}
    place = tuple(tuple((lasts[key], s) if s else None
                        for key, s in (insert_sign(x, len(x), z) for z in rng)) for x in blocks)
    return (blocks, tuple(bracket), action, place,
            tuple((num[y[:-1]], y[-1] - 1) for y in lasts))


def _fa_tables(fa, kind, rho, size):
    """(D, bracket, left, right, place, split) of the complex `kind` of fa on
    cochains of dimension size: `_fa_actions` on the constants and module
    matrices scaled by D.  rho None is the trivial module, or the adjoint one
    for the module complex, and then the kinds share one `fundamental_tables`
    on fa's memo."""
    default = rho is None
    if kind == "module" and default:
        rho = fa.adjoint_rep()
    mats = {} if rho is None else rho.mats
    d, ifa, imats = integer_scaling(fa, mats.values())
    build = partial(fundamental_tables, ifa)
    tables = fa.memoized("fundamental", build) if default else build()
    return (d, *_fa_actions(ifa, tables, kind, dict(zip(mats, imats)), size))


def _fa_actions(fa, tables, kind, mats, size):
    """(bracket, left, right, place, split) of the complex `kind` on cochains
    of dimension size, from the `fundamental_tables` of fa and, for the
    module complex, the module matrices mats by label, as `_leibniz_delta`
    reads them; an action entry with no term is left out."""
    blocks, bracket, action, place, split = tables
    if kind == "module":
        left = tuple((_matrix_terms(mats[x]),) for x in blocks)
        right = tuple((_matrix_terms(mats[x], -1),) for x in blocks)
        return (bracket, left, right, *_plain(len(blocks)))
    rng, fiber = range(fa.dim), range(size)
    num = {x: i for i, x in enumerate(blocks)}
    left, right = [], []
    for i, x in enumerate(blocks):
        if kind == "deformation":  # X . f(-) and the f(X_k) -> b substitutions, independent of z
            ad = [(l, b, v) for b in rng for l, v in action[i][b]]
            subs = [(y - 1, b, *insert_sign(x[:k] + x[k + 1:], k, b + 1))
                    for k, y in enumerate(x) for b in rng]
        lx, rx = [], []
        for z in rng:
            # -w(X . z) and its negative, on each coordinate of the fiber
            lq = {l: [(t, t, -v) for t in fiber] for l, v in action[i][z]}
            rq = {l: [(t, t, v) for t in fiber] for l, v in action[i][z]}
            if kind == "deformation":
                # X . f(z), and -(f . X) . z = -sum_k [X_1, .., f(X_k), .., X_{n-1}, z]
                lq.setdefault(z, []).extend(ad)
                rq.setdefault(z, []).extend((t, b, -v) for t, b, v in ad)
                for y, b, lab, s in subs:
                    if s:
                        rq.setdefault(y, []).extend((l, b, -s * v) for l, v in action[num[lab]][z])
            lx.append(_frozen(lq))
            rx.append(_frozen(rq))
        left.append(tuple(lx))
        right.append(tuple(rx))
    return bracket, tuple(left), tuple(right), place, split


def _frozen(acts):
    """An action table entry {q: [terms]} as ((q, (terms)), ..), without the
    q that carry no term."""
    return tuple([(q, tuple(terms)) for q, terms in acts.items() if terms])


KINDS = ("trivial", "module", "deformation")
PLAIN = ("module", "binary")  # the kinds whose keys hold no solitary slot Z


class LeibnizComplex:
    """The Leibniz complex of lb with coefficients in Q^size, l_X = left[X - 1]
    and r_X = right[X - 1] (sparse matrices), as `cohomology.complex_dims`,
    `apply` and `preimage` read it: the binary row of the module docstring,
    keyed by all p-tuples of 1..dim, its tables on the rational constants and
    matrices as given (D = 1), the elements numbered from 0 as blocks of a
    plain complex.  Actions that fail `leibniz_rep_conditions` raise
    ValueError: their delta does not square to zero.  The complex is closed
    (`cohomology.complex_dims` pins) when lb satisfies the left identity."""

    kind, d = "binary", 1

    def __init__(self, lb: LeibnizAlgebra, left, right, size):
        wit = leibniz_rep_conditions(lb, left, right)
        if wit is not None:
            raise ValueError(f"actions fail the representation conditions at {wit}")
        rng = range(1, lb.dim + 1)
        self.lb, self.size = lb, size
        self.closed = lb.check_left_identity().ok
        self.keys = cache(lambda p: list(product(rng, repeat=p)))  # of C^p, once per degree
        self.bracket = tuple(tuple(tuple((k - 1, v) for k, v in lb.row(x, y).items())
                                   for y in rng) for x in rng)
        self.left = tuple((_matrix_terms(m),) for m in left)
        self.right = tuple((_matrix_terms(m),) for m in right)
        self.place, self.split = _plain(lb.dim)

    def coords(self, p):
        """The coordinates (key, a) of C^p, in column order."""
        return list(product(self.keys(p), range(self.size)))

    def dim(self, p):
        return self.lb.dim ** p * self.size

    def mirror(self, p):
        return None

    def matrix(self, p):
        """The integer rows of D delta_p (D = 1 here; an `FAComplex` has its own)."""
        return coboundary_matrix(self, p)[0]


class FAComplex(LeibnizComplex):
    """The complex `kind` of fa on cochains of target dimension size: the
    Leibniz complex of L on its own keys, and its tables (`_fa_tables`): D,
    and L's bracket, the complex's left and right actions on the constants
    and module matrices scaled by D, and its placement table, memoized on fa
    when rho is None.  The module complex defaults to the adjoint module;
    the trivial complex takes any size (the trivial module tensored with
    Q^size), the others only their own dim_v.  A given rho is a
    `lie.Representation`, checked when it was built: the complex checks it
    no further."""

    def __init__(self, fa, kind, rho=None, size=None):
        if kind not in KINDS:
            raise ValueError(f"unknown complex kind {kind!r}: expected one of {', '.join(KINDS)}")
        own = 1 if kind == "trivial" else fa.dim  # the deformation and adjoint modules: g
        if kind == "module" and rho is not None:
            own = rho.dim_v
        if size is not None and size != own and kind != "trivial":
            raise _misfit(kind, size, own)
        self.fa, self.kind, self.rho, self.size = fa, kind, rho, size or own
        self.keys = cache(partial(module_keys if kind == "module" else trivial_keys, fa))
        build = partial(_fa_tables, fa, kind, rho, self.size)
        self.d, self.bracket, self.left, self.right, self.place, self.split = (
            build() if rho is not None else fa.memoized((kind, self.size), build))

    @property
    def closed(self):
        """Whether fa passes the memoized `check_fi`, which makes delta square
        to zero (a given rho is a representation, checked when it was built)."""
        return check_fi(self.fa).ok

    def dim(self, p):
        """dim C^p, counted: blocks^p keys for the module complex, else
        blocks^(p-1) C(d, n) (d for p = 0), times size."""
        d, n = self.fa.dim, self.fa.arity
        if self.kind == "module":
            return comb(d, n - 1) ** p * self.size
        return (comb(d, n - 1) ** (p - 1) * comb(d, n) if p else d) * self.size


def _misfit(kind, size, want):
    return ValueError(f"a cochain of dim_v {size} does not fit the {kind} complex (dim_v {want})")


def _flat(data):
    """The nonzero coordinates {(key, a): value} of the vectors {key: vector},
    as the `coords` of a `LeibnizComplex` or `FAComplex` name them."""
    return {(key, a): v for key, vec in data.items() for a, v in enumerate(vec) if v}


def _coords_of(cx, alpha):
    """`_flat` of alpha, a cochain of the `FAComplex` cx; another dim_v raises."""
    if alpha.dim_v != cx.size:
        raise _misfit(cx.kind, alpha.dim_v, cx.size)
    return _flat(alpha.data)


def coboundary_at(cx, alpha: NCochain, points):
    """(delta alpha)(X_1..X_{p+1}, Z) on the `FAComplex` cx at each (raw
    blocks, Z) of points (Z None for the module complex), in order: the
    blocks are sorted here, and their sign applied.  A point of another
    block count, a block not of n - 1 indices in 1..dim or a Z off 1..dim
    raises ValueError."""
    fa, p = cx.fa, alpha.order
    x = column_vector(cx, p, _coords_of(cx, alpha))
    rng = range(1, fa.dim + 1)
    num = {block: i for i, block in enumerate(combinations(rng, fa.arity - 1))}
    plain, groups, signs = cx.kind in PLAIN, [], []
    for blocks, z in points:
        if len(blocks) != p + 1:
            raise ValueError(f"a {p}-cochain's coboundary takes {p + 1} blocks")
        for block in blocks:
            if len(block) != fa.arity - 1 or not all(i in rng for i in block):
                raise ValueError(f"block {block!r} is not {fa.arity - 1} indices in 1..{fa.dim}")
        if not (plain or z in rng):
            raise ValueError(f"point {z!r} outside 1..{fa.dim}")
        xs, s = sort_blocks(blocks)
        signs.append(s)
        if s:
            xs = [num[b] for b in xs]
            groups.append((tuple(xs[:-1]), ((xs[-1], 0 if plain else z - 1),)))
    values = iter(_vectors(apply_rows(_leibniz_delta(cx, p, groups), x, cx.d), cx.size))
    zero = (0,) * cx.size
    return [tuple(s * v for v in next(values)) if s else zero for s in signs]


# ---------------------------------------------------------------------------
# user-facing operators on canonical cochains
# ---------------------------------------------------------------------------

def _vectors(values, size):
    """The values grouped into consecutive tuples of length size."""
    return [tuple(values[i:i + size]) for i in range(0, len(values), size)]


def fa_coboundary(cx, alpha: NCochain) -> NCochain:
    """delta alpha on the `FAComplex` cx, on the canonical keys of C^{p+1}; a
    value that sums no term is the int 0, which becomes the `Fraction` zero."""
    p = alpha.order
    values = [v or ZERO for v in apply(cx, p, _coords_of(cx, alpha))]
    data = {key: vec for key, vec in zip(cx.keys(p + 1), _vectors(values, cx.size)) if any(vec)}
    return NCochain._canonical(cx.kind, p + 1, cx.fa.arity, cx.fa.dim, cx.size, data)


def fa_coboundary_trivial(fa: FilippovAlgebra, alpha: NCochain) -> NCochain:
    return fa_coboundary(FAComplex(fa, "trivial", size=alpha.dim_v), alpha)


def fa_coboundary_deformation(fa: FilippovAlgebra, alpha: NCochain) -> NCochain:
    return fa_coboundary(FAComplex(fa, "deformation", size=alpha.dim_v), alpha)


# ---------------------------------------------------------------------------
# matrices and cohomology dimensions
# ---------------------------------------------------------------------------

def coboundary_matrix(cx, p):
    """delta: C^p -> C^{p+1} of the complex cx (`FAComplex` or
    `LeibnizComplex`) as (rows, D), delta = rows / D: the int rows of D delta
    (`_leibniz_delta` over every key of C^{p+1}), which give its rank, one
    per coordinate of `cx.coords(p + 1)`, columns indexed by `cx.coords(p)`."""
    return _leibniz_delta(cx, p, [(head, cx.split)  # the keys of C^{p+1}, in order
                                  for head in product(range(len(cx.bracket)), repeat=p)]), cx.d


def fa_cohomology_dims(fa: FilippovAlgebra, kind, p_max, rho=None) -> CohomologyReport:
    """Exact Z/B/H dimensions of the chosen complex up to degree p_max, by
    ranks over Q; the module matrices must be rational, and the module
    complex defaults to the adjoint module."""
    return complex_dims(FAComplex(fa, kind, rho), p_max)


# ---------------------------------------------------------------------------
# central extensions and deformation obstructions
# ---------------------------------------------------------------------------


def trivialize_fa_extension(fa: FilippovAlgebra, alpha: NCochain):
    """Solve alpha = delta(beta) over scalar 0-cochains; returns the basis
    change vector or None when the class is non-trivial."""
    cx = FAComplex(fa, "trivial")
    return preimage(cx, alpha.order - 1, _coords_of(cx, alpha))


def deformation_preimage(fa: FilippovAlgebra, target: NCochain):
    """Solve delta(beta) = target over deformation (p-1)-cochains."""
    cx, p = FAComplex(fa, "deformation", size=target.dim_v), target.order - 1
    sol = preimage(cx, p, _flat(target.data))
    if sol is None:
        return None
    return NCochain("deformation", p, fa.arity, fa.dim, cx.size,
                    dict(zip(cx.keys(p), _vectors(sol, cx.size))))


# ---------------------------------------------------------------------------
# Leibniz algebras (binary, non-antisymmetric)
# ---------------------------------------------------------------------------

class LeibnizAlgebra(FieldEq):
    """Bracket tensor B_{ij}^k without symmetry; validity = left identity
    [X,[Y,Z]] = [[X,Y],Z] + [Y,[X,Z]]."""

    _fields = ("dim", "b")

    def __init__(self, dim, b=None):
        clean = {}  # (i, j) -> {k: value}
        for (i, j), row in (b or {}).items():
            row2 = {k: rat(v) for k, v in row.items() if not is_zero(v)}
            if row2:
                clean[(i, j)] = row2
        self.dim, self.b = dim, clean

    def row(self, i, j):
        return self.b.get((i, j), {})

    def check_left_identity(self) -> IdentityReport:
        """The residual at every (x, y, z), over all s at once; the witness
        is the first failing (x, y, z) and its least s."""
        for x, y, z in product(range(1, self.dim + 1), repeat=3):
            res = {}
            for l, v in self.row(y, z).items():
                for s, w in self.row(x, l).items():
                    accumulate(res, s, v * w)
            for l, v in self.row(x, y).items():
                for s, w in self.row(l, z).items():
                    accumulate(res, s, -v * w)
            for l, v in self.row(x, z).items():
                for s, w in self.row(y, l).items():
                    accumulate(res, s, -v * w)
            if res:
                return IdentityReport(False, (x, y, z, min(res)))
        return IdentityReport(True)


def leibniz_rep_conditions(lb: LeibnizAlgebra, left, right):
    """The three compatibility conditions of a (left, right) action pair of
    sparse matrices:

        [l_X, l_Y] = l_{[X,Y]}
        [l_X, r_Y] = r_{[X,Y]}
        r_{[X,Y]}  = r_Y r_X + l_X r_Y

    as exact matrix identities; returns the first violation or None.
    """
    def bracket_mat(mats, i, j):
        return linalg.sp_sum((v, mats[k - 1]) for k, v in lb.row(i, j).items())

    for i in range(1, lb.dim + 1):
        li, ri = left[i - 1], right[i - 1]
        for j in range(1, lb.dim + 1):
            lj, rj = left[j - 1], right[j - 1]
            if linalg.sp_commutator(li, lj) != bracket_mat(left, i, j):
                return ("left-left", i, j)
            if linalg.sp_commutator(li, rj) != bracket_mat(right, i, j):
                return ("left-right", i, j)
            if bracket_mat(right, i, j) != linalg.sp_sum([(1, linalg.sp_mul(rj, ri)),
                                                          (1, linalg.sp_mul(li, rj))]):
                return ("right-compat", i, j)
    return None
