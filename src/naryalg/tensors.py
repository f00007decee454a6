"""Canonical antisymmetric tensors, the structure constants of n-ary
brackets, Levi-Civita machinery, and the contraction kernels shared by every
other module.

Storage convention: an antisymmetric tensor keeps only strictly increasing
index tuples (1-based indices) with nonzero values.  Reading a permuted
tuple applies the sign of the permutation; a tuple with repeats reads zero.
Antisymmetrized sums follow the weight-free convention
[a_1...a_n] = sum_sigma sign(sigma) a_sigma (no 1/n!).

`AntisymTensor` is the one container of this kind.  Its values may be exact
scalars, `scalars.LinearForm`s or `poly.Poly`s: it holds the scalar cocycles
of `lie` and `gla`, the V-valued cochains of `cohomology` (whose values are
sparse target vectors), the formal sums of fundamental objects and ghost
monomials, and the multivector fields of `poisson`.  Its one constructor
folds a raw map onto sorted keys; sums and multiples stay canonical; every
read goes through one signed table per tensor, filled on first read
(`signed_maps` gives such a table over the entries mapped to sparse maps,
the term maps of `poisson`), and `wedge` is the one shuffle wedge.

`BracketTensor` applies the convention to structure constants
C_{i_1..i_n}^j, antisymmetric in the lower block: it is the one storage of
Lie, generalized Lie and Filippov algebras, which differ only in their
characteristic identity.  The same signed table, with whole rows {j: value}
as its entries, serves the identity scans; `integer_scaled` gives the copy
holding D C as ints, D the least common denominator of the constants;
`memoized` keeps what later layers build on one algebra object, and a
`copy` starts with an empty memo.  `row`, `get`, `signed` and `ad_matrix`
are the readers of every arity: a Lie algebra reads them with pairs and
the one-label ad map ad_{(i,)}.

The sign kernels (`perm_sign`, `sort_sign`, `merge_sign`, `gen_kronecker`)
give their signs as plain ints in {-1, 0, 1}: they count inversions and never
build a `Fraction`, so a sign multiplies any exact scalar without a
conversion.  `sort_blocks` sorts each block of a blockwise-antisymmetric key
(a cochain on fundamental objects) and multiplies the signs; `sort_sign` is
its one-block case, and `insert_sign` places one more index into a sorted
tuple by bisection.  `fold_antisym` folds a raw {index tuple: value} map
onto sorted keys and names the first key that breaks total antisymmetry;
sparse sums go through `scalars.accumulate`.

Contractions of products of blockwise-antisymmetric factors against the
generalized Kronecker symbol collapse to signed sums over ordered block
splits ("shuffles") -- `shuffle_splits` is the hot kernel behind the
generalized-Jacobi, Filippov and cocycle residuals.  Its signs
depend only on the shape (len(m), block sizes) of a sorted tuple m, so it
derives the splits of each shape once, on positions, by the recursion on the
first block, and caches them with one itemgetter per block: a call maps the
cached position blocks onto m and derives no sign.

`nested_bracket_residuals` is the one nested-bracket scan: it decides the
generalized and mixed Jacobi identities (`gla`) and, at arity 2, the Jacobi
identity (`lie.check_jacobi`).

`IdentityReport` is the one verdict type: every check of the package --
the Jacobi, generalized Jacobi, Filippov and left Leibniz identities, the
epsilon identities, metric invariance and nondegeneracy, the self-bracket
and the two Nambu-Poisson conditions, the Plucker relations, the Clifford
realization, representations and invariant polynomials -- returns one (or
a pair), true when `ok`, with its first failing entry as the witness.  A
construction returns its object, never a report.

The package's classes write their own constructors; no class is generated
at import.  `FieldEq` gives the ones that callers compare (the tensors, the
`.alg` file record, cochains and the cohomology reports) equality by a
tuple of named fields, within one class.

The epsilon scan `eps_identities_check` sorts each distinct index tuple once
per call into a table of its (sorted key, sign) and the keyed signs of its
first-row minors and pair splits; the slots of each minor and split, and
their signs, depend on n alone, so they are taken once as getters
(`_block_getter`) through which every tuple reads its pieces.  A Kronecker
symbol of two rows is then the product of their signs when their keys
match, else 0.  An (upper, lower) entry can be nonzero on either side only
where the lower shares the upper's key or holds the minor or split that the
upper's sums read; the lowers are indexed by those keys, and every other
entry, 0 = 0 on both sides, is skipped.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, cached_property
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import itemgetter, neg

from .scalars import ZERO, accumulate, common_denominator, is_zero, rat, scaled_to_ints


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

def perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq` (entries distinct); 0 on repeats.

    Counts inversions over the pairs in one pass and stops at the first
    repeated entry."""
    n = len(seq)
    inv = 0
    for i in range(n - 1):
        x = seq[i]
        for j in range(i + 1, n):
            y = seq[j]
            if y < x:
                inv += 1
            elif y == x:
                return 0
    return -1 if inv & 1 else 1


def sort_sign(seq):
    """(sorted tuple, sign); sign 0 when the tuple has a repeated index."""
    s = perm_sign(seq)
    if s == 0:
        return tuple(seq), 0
    return tuple(sorted(seq)), s


def sort_blocks(blocks):
    """(tuple of sorted blocks, product of their sorting signs); sign 0 when
    any block has a repeated index."""
    sign = 1
    out = []
    for blk in blocks:
        key, s = sort_sign(blk)
        if s == 0:
            return tuple(blocks), 0
        sign *= s
        out.append(key)
    return tuple(out), sign


def insert_sign(seq, k, x):
    """(sorted tuple, sign) of seq[:k] + (x,) + seq[k:], seq strictly increasing:
    one bisection places x; sign 0 when x is already in seq."""
    pos = bisect_left(seq, x)
    if pos < len(seq) and seq[pos] == x:
        return seq, 0
    return seq[:pos] + (x,) + seq[pos:], -1 if (k - pos) & 1 else 1


def fold_antisym(raw):
    """Fold a raw {index tuple: value} map onto sorted keys, entries[key] =
    sign * value: (entries, None), or (None, idx) at the first raw key idx
    that breaks antisymmetry -- a repeated index, or a signed value other
    than the one an earlier permutation gave.  Zero values count like any
    other."""
    ent = {}
    for idx, v in raw.items():
        key, s = sort_sign(idx)
        w = s * v
        if s == 0 or ent.setdefault(key, w) != w:
            return None, idx
    return ent, None


def merge_sign(a, b) -> int:
    """Sign of the concatenation a+b of disjoint sorted tuples vs sorted merge."""
    inv = 0
    for x in a:
        for y in b:
            if y < x:
                inv += 1
    return -1 if inv % 2 else 1


def _shuffle_positions(m, sizes):
    """(blocks, sign) over the ordered partitions of the sorted tuple m, by
    recursion on the first block: the splits `shuffle_splits` caches."""
    if not sizes:
        yield (), 1
        return
    k = sizes[0]
    rest_sizes = sizes[1:]
    idx = range(len(m))
    for chosen in combinations(idx, k):
        block = tuple(m[i] for i in chosen)
        rest = tuple(m[i] for i in idx if i not in chosen)
        s = merge_sign(block, rest)
        for blocks, s2 in _shuffle_positions(rest, rest_sizes):
            yield (block,) + blocks, s * s2


# (len(m), sizes) -> [(one getter per block, sign)]: one entry per shape a
# caller uses, never handed out, so no caller can change it
_SPLITS = {}


@cache
def _block_getter(block):
    """m -> the entries of m at the positions of block, as a tuple; one
    getter per position block, shared by every shape."""
    if len(block) < 2:  # itemgetter of one index gives the entry, not a tuple
        return itemgetter(slice(block[0], block[0] + 1) if block else slice(0, 0))
    return itemgetter(*block)


def shuffle_splits(m, sizes):
    """The (blocks, sign) of the ordered partitions of sorted tuple `m`.

    Each block comes out sorted; `sign` is the parity of the arrangement
    block_1 + block_2 + ... relative to m.  The number of terms is the
    multinomial coefficient; together with in-block antisymmetry this
    reproduces the full Levi-Civita contraction up to the product of the
    block factorials.  The splits of a shape (len(m), sizes) are derived
    once, on the positions 0..len(m)-1, and cached: the signs of a strictly
    increasing m are those of its positions, so a call only maps the
    position blocks onto m's entries.
    """
    shape = (len(m), tuple(sizes))
    splits = _SPLITS.get(shape)
    if splits is None:
        splits = _SPLITS[shape] = [
            (tuple(map(_block_getter, blocks)), sign)
            for blocks, sign in _shuffle_positions(range(shape[0]), shape[1])]
    m = tuple(m)
    return [(tuple([get(m) for get in getters]), sign) for getters, sign in splits]


# ---------------------------------------------------------------------------
# generalized Kronecker symbol
# ---------------------------------------------------------------------------

def gen_kronecker(upper, lower) -> int:
    """det(delta^{u_i}_{l_j}) as a plain int: the product of the sorting
    signs of `upper` and `lower` when `lower` rearranges `upper` (the
    permutation taking one to the other has that sign), zero otherwise."""
    if len(upper) != len(lower):
        raise ValueError("gen_kronecker: tuples must have equal length")
    if sorted(upper) != sorted(lower):
        return 0
    return perm_sign(upper) * perm_sign(lower)


# ---------------------------------------------------------------------------
# canonical antisymmetric tensors
# ---------------------------------------------------------------------------

class _SignedTable(dict):
    """Raw index tuple -> the entry it reads: the stored value, its negation
    (built once per entry by `negate`), or the zero.  A missing tuple is
    sorted once and stored."""

    __slots__ = ("entries", "zero", "negate", "negated")

    def __init__(self, entries, zero, negate=neg):
        super().__init__()
        self.entries = entries
        self.zero = zero
        self.negate = negate
        self.negated = {}  # sorted key -> the negated entry

    def __missing__(self, idx):
        key, s = sort_sign(idx)
        v = self.entries.get(key) if s else None
        if v is None:
            v = self.zero
        elif s < 0:
            w = self.negated.get(key)
            if w is None:
                w = self.negated[key] = self.negate(v)
            v = w
        self[idx] = v
        return v


class FieldEq:
    """Equality of two instances of one class by the attributes named in
    `_fields`, which the repr lists; an instance is then unhashable."""

    _fields = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class AntisymTensor(FieldEq):
    """Fully antisymmetric rank-r tensor on indices 1..dim, sparse canonical:
    `entries` maps sorted index tuples to nonzero values.

    The constructor takes any index order, applies the permutation sign,
    sums duplicates and drops what cancels; it rejects a key whose length is
    not the rank or which holds an index outside 1..dim.  `zero` is what a
    read of an absent entry returns; it is the zero of the value type when
    that is not a number (`Poly.zero(dim)` for multivector fields).  Two
    tensors of one class are equal when their rank, dim and entries are;
    `zero` is not compared.
    """

    _fields = ("rank", "dim", "entries")

    def __init__(self, rank, dim, entries=None, zero=ZERO):
        clean = {}
        for idx, v in (entries or {}).items():
            if len(idx) != rank or (idx and not 1 <= min(idx) <= max(idx) <= dim):
                raise ValueError(f"index tuple {idx} does not fit rank {rank} on 1..{dim}")
            key, s = sort_sign(idx)
            if s:
                accumulate(clean, key, v if s == 1 else -v)
        self.rank, self.dim, self.entries, self.zero = rank, dim, clean, zero

    @classmethod
    def from_function(cls, rank, dim, f):
        ent = {}
        for idx in combinations(range(1, dim + 1), rank):
            v = f(*idx)
            if not is_zero(v):
                ent[idx] = v
        return cls(rank, dim, ent)

    @cached_property
    def signed(self) -> _SignedTable:
        """The signed read table, built on the first read.  It hands out the
        stored values and one negation per entry; nothing mutates a tensor
        or its values after construction, so the table never goes stale."""
        return _SignedTable(self.entries, self.zero)

    def signed_maps(self, f) -> _SignedTable:
        """The signed read table of the entries mapped through f, which
        gives each entry as a sparse map {key: number}: one negated map per
        entry, and one shared empty map on a repeat or an absent tuple.
        Readers must not change the maps it hands out."""
        return _SignedTable({k: f(v) for k, v in self.entries.items()}, {}, _negated_row)

    def get(self, idx):
        """The signed entry at any index order; `zero` on a repeat."""
        return self.signed[tuple(idx)]

    def is_zero(self) -> bool:
        return not self.entries

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def _with(self, entries):
        """This tensor (its class and attributes, the read table aside) on
        another canonical entry map: sums and nonzero multiples of canonical
        maps are canonical, so they skip the constructor's fold."""
        out = object.__new__(type(self))
        vars(out).update({k: v for k, v in vars(self).items() if k != "signed"},
                         entries=entries)
        return out

    def copy(self):
        """A copy with an entry map of its own, which a caller may change
        without changing this tensor; it skips the constructor."""
        return self._with(dict(self.entries))

    def __add__(self, other):
        if type(other) is not type(self) or (self.rank, self.dim) != (other.rank, other.dim):
            raise ValueError("shape mismatch")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            accumulate(ent, k, v)
        return self._with(ent)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if is_zero(c):
            return self._with({})
        return self._with({k: v * c for k, v in self.entries.items()})


def wedge(a: AntisymTensor, b: AntisymTensor) -> AntisymTensor:
    """Weight-free shuffle wedge: (a ^ b)_M = sum_{I+J=M} sign(I, J) a_I b_J
    over the splits of M into sorted blocks."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    ent = {}
    for ka, va in a.entries.items():
        for kb, vb in b.entries.items():
            if not set(ka) & set(kb):
                accumulate(ent, tuple(sorted(ka + kb)), va * vb * merge_sign(ka, kb))
    return AntisymTensor(a.rank + b.rank, a.dim, ent, a.zero)


# ---------------------------------------------------------------------------
# structure constants of n-ary brackets
# ---------------------------------------------------------------------------

class BracketTensor(FieldEq):
    """Structure constants C_{i_1..i_n}^j of an n-ary bracket on basis
    1..dim, antisymmetric in the lower indices.

    `c` maps sorted n-tuples to rows {j: nonzero value}.  The constructor
    accepts any index order and applies its permutation sign, drops zeros,
    and rejects indices outside 1..dim, nonzero rows on repeated indices and
    inconsistent duplicates.
    `metric` is an invariant metric g_ij when one is attached (the `.alg`
    metric block).  Subclasses add the mathematics of one identity and name
    their `.alg` kind.

    `row` sorts its tuple on every read.  The identity scans read `signed`
    instead, a table from raw lower-index tuples to signed rows that sorts
    each tuple once, on its first read; they read it on the copy of
    `integer_scaled`, so their sums run on ints.  Two tensors of one class
    are equal when their arity, dim, constants and metric are.
    """

    _fields = ("arity", "dim", "c", "metric")
    kind = None

    def __init__(self, arity, dim, c=None, metric=None):
        clean = {}
        for idx, row in (c or {}).items():
            if len(idx) != arity:
                raise ValueError(f"expected {arity} lower indices at {idx}")
            if not all(1 <= i <= dim for i in (*idx, *row)):
                raise ValueError(f"index outside 1..{dim} at {idx} -> {sorted(row)}")
            key, s = sort_sign(idx)
            if s == 0:
                if any(not is_zero(v) for v in row.values()):
                    raise ValueError("repeated lower indices must read zero")
                continue
            row2 = {j: rat(v) if s == 1 else -rat(v) for j, v in row.items() if not is_zero(v)}
            if not row2:
                continue
            if key in clean and clean[key] != row2:
                raise ValueError(f"inconsistent antisymmetry at {idx}")
            clean[key] = row2
        self.arity, self.dim, self.c, self.metric = arity, dim, clean, metric

    @classmethod
    def from_table(cls, arity, dim, c):
        """An instance of this class from the fields every kind shares
        (`LieAlgebra` itself is built without the arity)."""
        return cls(arity, dim, c)

    def row(self, idx):
        """{j: C_idx^j} at any index order, signed; empty on repeats."""
        key, s = sort_sign(idx)
        if s == 0:
            return {}
        row = self.c.get(key, {})
        return row if s == 1 else {j: -v for j, v in row.items()}

    def get(self, idx, j):
        return self.row(idx).get(j, Fraction(0))

    def ad_matrix(self, labels):
        """(ad_{x_1..x_{n-1}})^l_b = C_{x_1..x_{n-1} b}^l as a sparse dim x dim
        matrix, at any order of the n-1 labels (one label at arity 2)."""
        key, s = sort_sign(labels)
        if s == 0:
            return {}
        return {(l - 1, b - 1): s * v for b in range(1, self.dim + 1)
                for l, v in self.row(key + (b,)).items()}

    @cached_property
    def signed(self) -> _SignedTable:
        """The signed row table: any lower-index tuple -> {j: C_idx^j}, one
        negated row per stored row, and one shared empty row on a repeat or
        an absent tuple.  Readers must not change the rows it hands out."""
        return _SignedTable(self.c, {}, _negated_row)

    def entries(self):
        """(sorted index tuple, j, value) for every nonzero constant."""
        for idx, row in self.c.items():
            for j, v in row.items():
                yield idx, j, v

    def _with(self, c):
        """This tensor (its class and attributes) on the table c, without a
        `signed` table or a memo; it skips the constructor."""
        out = object.__new__(type(self))
        vars(out).update({k: v for k, v in vars(self).items() if k not in ("signed", "_memo")})
        out.c = c
        return out

    def copy(self):
        """A copy with rows and metric rows of its own, which a caller may
        change without changing this tensor, and an empty memo."""
        out = self._with({key: dict(row) for key, row in self.c.items()})
        if self.metric is not None:
            out.metric = [list(row) for row in self.metric]
        return out

    def scaled(self, factor):
        """A shallow copy whose table holds factor * C as plain ints; factor
        must be a multiple of every denominator of C.  The copy skips the
        constructor, which would turn the ints back into `Fraction`s."""
        return self._with({key: scaled_to_ints(row, factor) for key, row in self.c.items()})

    def memoized(self, key, build):
        """build() kept under key on this tensor object from its first call
        (a raise keeps nothing); nothing mutates a tensor, so it never goes
        stale."""
        memo = vars(self).setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def integer_scaled(self, d=1):
        """(D, the `scaled` copy holding D * C): D is the least common
        multiple of d and of the denominators of the constants."""
        d = lcm(d, common_denominator([v for _, _, v in self.entries()]))
        return d, self.scaled(d)


def _negated_row(row):
    return {j: -v for j, v in row.items()}


# ---------------------------------------------------------------------------
# identity reports and the nested-bracket residual
# ---------------------------------------------------------------------------

class IdentityReport:
    """The verdict of an identity check and its first failing entry, true
    when `ok`.  It cannot be changed, since a memoized report is shared by
    every caller; it is hashable, and equal to the reports of the same
    verdict and witness."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not IdentityReport:
            return NotImplemented
        return (self.ok, self.witness) == (other.ok, other.witness)

    def __hash__(self):
        return hash((self.ok, self.witness))

    def __bool__(self):
        return self.ok


def nested_bracket_residuals(c1: dict, c2: dict, dim: int) -> dict:
    """Sparse accumulation of the shuffle-antisymmetrized nesting

        R_M^s = sum_{A+B=M} sign sum_l c1_A^l c2_{B l}^s

    over sorted tuples M; only nonzero residuals are returned, in the value
    type of the tables.  Used for the GJI (c1 = c2), the mixed identity, and
    the Jacobi identity, whose residual is R up to sign.  Index sets are
    bitmasks while the sums run.
    """
    by_member = {}  # l -> [(mask of B, sign moving l to the end, row)]
    for idx, row in c2.items():
        mask = sum(1 << i for i in idx)
        for pos, l in enumerate(idx):
            move = -1 if (len(idx) - 1 - pos) & 1 else 1
            by_member.setdefault(l, []).append((mask & ~(1 << l), move, row))
    res = {}
    for a_idx, row1 in c1.items():
        a_mask = sum(1 << i for i in a_idx)
        below = [(1 << x) - 1 for x in a_idx]
        for l, v1 in row1.items():
            for b_mask, move, row2 in by_member.get(l, ()):
                if a_mask & b_mask:
                    continue
                inv = 0
                for lo in below:
                    inv += (b_mask & lo).bit_count()
                coeff = -move * v1 if inv & 1 else move * v1
                key_m = a_mask | b_mask
                for s, v2 in row2.items():
                    accumulate(res, (key_m, s), coeff * v2)
    return {(tuple(i for i in range(1, dim + 1) if key_m >> i & 1), s): v
            for (key_m, s), v in res.items()}


# ---------------------------------------------------------------------------
# Levi-Civita recursion identities
# ---------------------------------------------------------------------------

def _eps_tables(n, d):
    """Per-tuple tables of the epsilon scan over {1..d}^n, in `product`
    order: (tuple, sort_sign of the tuple, its sort_sign-keyed pieces as an
    upper index row, its first-row minors, its pair splits) -- everything the
    scan reads, each distinct sub-tuple sorted once per call.

    As an upper row the pieces are the sort_sign of the tail u[1:], of the
    top pair u[:2] and of the bottom u[2:].  As a lower row, `minors` maps a
    value v to [(sign, minor key)] over the slots s with l[s] = v, sign =
    (-1)^s times the minor's sorting sign; `splits` maps the sorted key of a
    pair (l[s], l[t]) to [(sign, rest key)], sign = (-1)^(s+t+1) times the
    sorting signs of the pair and of the rest.  Entries whose sorting sign
    is 0 would only add zero and are left out.  The slots of every minor,
    pair and rest, and the signs (-1)^s and (-1)^(s+t+1), are fixed by n:
    they are taken once, as one getter per slot block, and each tuple reads
    its pieces through them, each sorted through the per-call memo."""
    signed = cache(lambda seq: sort_sign(seq))  # sort_sign read at call time
    slots = range(n)

    def without(*out):
        return _block_getter(tuple(k for k in slots if k not in out))

    minor_slots = [(s, (-1) ** s, without(s)) for s in slots]
    split_slots = [(_block_getter((s, t)), without(s, t), (-1) ** (s + t + 1))
                   for s in slots for t in range(s + 1, n)]
    tables = []
    for tup in product(range(1, d + 1), repeat=n):
        minors = {}
        for s, sign, minor in minor_slots:
            key, msign = signed(minor(tup))
            if msign:
                minors.setdefault(tup[s], []).append((sign * msign, key))
        splits = {}
        for pair, rest, sign in split_slots:
            pkey, psign = signed(pair(tup))
            rkey, rsign = signed(rest(tup))
            if psign and rsign:
                splits.setdefault(pkey, []).append((sign * psign * rsign, rkey))
        pieces = (signed(tup[1:]), signed(tup[:2]), signed(tup[2:]))
        tables.append((tup, signed(tup), pieces, minors, splits))
    return tables


def eps_identities_check(n: int, d: int) -> IdentityReport:
    """Entrywise check of the two epsilon recursions: the first-row expansion
    eps^{i..}_{j..} = sum_s (-1)^{s+1} delta^{i1}_{js} eps^{i2..}_{j..^s..}
    and the pairwise resolution
    eps^{i..}_{j..} = sum_{t>s} (-1)^{s+t+1} eps^{i1 i2}_{js jt} eps^{i3..}_{rest}.

    A generalized Kronecker symbol of two rows is the product of their
    sorting signs when their `sort_sign` keys agree, else 0 (`gen_kronecker`
    by another route), so the scan reads every sign from tables built once
    per tuple (`_eps_tables`) and calls no kernel per (upper, lower) pair.
    It skips the entries where both sides read 0 = 0: the left side needs
    equal keys with a nonzero sign, the first-row sum a minor of the lower
    at (u_1, key of u[1:]), the pair sum a split at (key of u[:2], key of
    u[2:]).  The lowers are indexed by these keys once, and each upper scans
    the union of its three position lists in `product` order, so the first
    failing entry is the one the full nested scan finds.
    """
    if not (1 <= n <= d <= 6):
        raise ValueError("eps_identities_check: desk-scale bounds 1 <= n <= d <= 6")
    tables = _eps_tables(n, d)
    by_key, by_minor, by_split = {}, {}, {}
    for pos, (_, (lkey, lsign), _, minors, splits) in enumerate(tables):
        if lsign:
            by_key.setdefault(lkey, []).append(pos)
        for index, terms in ((by_minor, minors), (by_split, splits)):
            for first, entries in terms.items():
                for _, key in entries:
                    index.setdefault((first, key), []).append(pos)
    for upper, (ukey, usign), pieces, _, _ in tables:
        head = upper[0]
        (tkey, tsign), (topkey, topsign), (bkey, bsign) = pieces
        near = set(by_key.get(ukey, ()))
        near.update(by_minor.get((head, tkey), ()), by_split.get((topkey, bkey), ()))
        for pos in sorted(near):
            lower, (lkey, lsign), _, minors, splits = tables[pos]
            lhs = usign * lsign if ukey == lkey else 0
            tot = 0
            for sign, key in minors.get(head, ()):
                if key == tkey:
                    tot += sign * tsign
            if tot != lhs:
                return IdentityReport(False, (upper, lower, "first-row"))
            if n >= 2:
                tot2 = 0
                for sign, key in splits.get(topkey, ()):
                    if key == bkey:
                        tot2 += sign * topsign * bsign
                if tot2 != lhs:
                    return IdentityReport(False, (upper, lower, "pair-resolution"))
    return IdentityReport(True)
