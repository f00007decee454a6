"""Parity of the one antisymmetric container with the four it replaced.

Random raw maps -- shuffled index orders, repeated indices, duplicates that
cancel -- with `Fraction`, `LinearForm` and `Poly` values go both into the
references of `dense_reference` (the CE `Cochain`, `PolyMultivector`,
`Multivector` and the two wedges as first written) and into
`tensors.AntisymTensor` and the `Cochain` built on it.  Both sides must give
the same canonical entries, the same signed read at every index tuple, and
the same sums, differences, multiples, equality verdicts and wedges.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import dense_reference as ref
from naryalg.cohomology import Cochain
from naryalg.poly import Poly
from naryalg.scalars import LinearForm
from naryalg.tensors import AntisymTensor, wedge

DIM = 4
fractions = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4)).map(Fraction)
forms = st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool),
                        max_size=3).map(LinearForm)
polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * DIM), fractions,
                        max_size=3).map(lambda t: Poly(DIM, t))


@st.composite
def raw_maps(draw, rank, values):
    """{index tuple: value} on 1..DIM in any order, repeats included, and a
    transposed copy of some keys that cancels their entry."""
    keys = st.lists(st.integers(1, DIM), min_size=rank, max_size=rank).map(tuple)
    raw = draw(st.dictionaries(keys, values, max_size=6))
    for idx, v in list(raw.items()):
        if rank >= 2 and idx[0] != idx[1] and draw(st.booleans()):
            raw.setdefault((idx[1], idx[0]) + idx[2:], v)
    return raw


def reads(rank):
    return list(product(range(1, DIM + 1), repeat=rank))


@st.composite
def cochain_pairs(draw, values):
    """Two raw (A, index tuple) maps of one order and target dimension."""
    rank = draw(st.integers(0, 3))
    dim_v = draw(st.integers(1, 2))
    pair = []
    for _ in range(2):
        layers = [draw(raw_maps(rank, values)) for _ in range(dim_v)]
        pair.append({(a, idx): v for a, layer in enumerate(layers, 1)
                     for idx, v in layer.items()})
    return rank, dim_v, pair


@given(st.one_of(cochain_pairs(fractions), cochain_pairs(forms)), fractions)
@settings(max_examples=120, deadline=None)
def test_cochain_matches_the_reference(case, c):
    rank, dim_v, (raw1, raw2) = case
    old = [ref.Cochain(rank, DIM, dim_v, raw) for raw in (raw1, raw2)]
    new = [Cochain(rank, DIM, dim_v, raw) for raw in (raw1, raw2)]
    for o, n in zip(old, new):
        assert n.data == o.data
        assert n.is_zero() == o.is_zero()
        for idx in reads(rank):
            assert n.value(idx) == o.value(idx)
            assert all(n.get(a, idx) == o.get(a, idx) for a in range(1, dim_v + 1))
    assert (new[0] + new[1]).data == (old[0] + old[1]).data
    assert (new[0] - new[1]).data == (old[0] - old[1]).data
    assert new[0].scale(c).data == old[0].scale(c).data
    assert (new[0] == new[1]) == (old[0] == old[1])
    assert new[0] - new[0] == Cochain(rank, DIM, dim_v, {})


@st.composite
def poly_pairs(draw):
    ranks = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    return [(r, draw(raw_maps(r, polys))) for r in ranks]


@given(poly_pairs(), fractions)
@settings(max_examples=120, deadline=None)
def test_poly_tensor_matches_the_reference_multivector(pair, c):
    old = [ref.PolyMultivector(r, DIM, raw) for r, raw in pair]
    new = [AntisymTensor(r, DIM, raw, Poly.zero(DIM)) for r, raw in pair]
    for o, n in zip(old, new):
        assert n.entries == o.comps and n.is_zero() == o.is_zero()
        for idx in reads(n.rank):
            assert n.get(idx) == o.get(idx)
    (a, b), (oa, ob) = new, old
    assert wedge(a, b).entries == ref.wedge(oa, ob).comps
    assert a.scale(c).entries == oa.scale(c).comps
    assert (a + a.scale(c)).entries == (oa + oa.scale(c)).comps
    assert (a - a.scale(c)).entries == (oa - oa.scale(c)).comps
    if a.rank == b.rank:
        assert (a + b).entries == (oa + ob).comps
        assert (a == b) == (oa == ob)


@st.composite
def scalar_pairs(draw, values):
    rank = draw(st.integers(0, 3))
    return rank, draw(raw_maps(rank, values)), draw(raw_maps(rank, values))


@given(st.one_of(scalar_pairs(fractions), scalar_pairs(forms)))
@settings(max_examples=120, deadline=None)
def test_tensor_matches_the_reference_exterior_algebra(case):
    rank, raw1, raw2 = case
    a, b = AntisymTensor(rank, DIM, raw1), AntisymTensor(rank, DIM, raw2)
    oa, ob = ref.Multivector(DIM, raw1), ref.Multivector(DIM, raw2)
    assert a.entries == dict(oa) and b.entries == dict(ob)
    assert a.is_zero() == oa.is_zero()
    total = ref.Multivector(DIM, oa)
    for k, v in ob.items():
        total.add(k, v)
    assert (a + b).entries == dict(total)
    assert (a == b) == (dict(oa) == dict(ob))


@given(scalar_pairs(fractions), scalar_pairs(fractions))
@settings(max_examples=120, deadline=None)
def test_wedge_matches_the_reference_wedge(left, right):
    a = AntisymTensor(left[0], DIM, left[1])
    b = AntisymTensor(right[0], DIM, right[2])
    assert wedge(a, b) == ref.wedge_antisym(a, b)
