"""The one stored form of exact integer matrices, at its edges.

`yangian.linalg.stored_ints` keeps an integer array as read-only int64 when
every |entry| is below 2^53, else as read-only Python ints, with its largest
|entry|.  These tests draw entries at 0, at and around +-2^53, at 2^63 and
past float64's range (2^1024), run them through every `RatMatrix`
operation, the Fock operator matrices (filled in int64 under their own
bound) and through module construction, tensor products, coefficient
pairs, entrywise equality and the module-map certificate, and compare each
with an object-only reference in `reference`: equal values, the dtype the
storage rule gives those values, and equal witnesses for a tampered map.
int64 array arithmetic wraps silently past 2^63, so the explicit examples
include a product that wraps, (2^53 - 1) 2^11, unless it is lifted.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yangian.fock import FockSpace, apply_word
from yangian.intertwine import _verify_intertwiner
from yangian.linalg import Poly, RatMatrix
from yangian.modules import YangianModule, coefficient_pairs, tensor_module

from reference import (
    _convolve,
    assert_stored,
    cleared_pairs,
    lowest_terms,
    module_ints,
    pair_witness,
    ref_rref,
    same_action,
    storage_rule,
    tensor_ints,
)

LIMIT = 2 ** 53
EDGES = (0, 1, -1, LIMIT - 1, -(LIMIT - 1), LIMIT, -LIMIT, LIMIT + 1,
         2 ** 63 - 1, -2 ** 63, 2 ** 63, 2 ** 1030, -2 ** 1030 - 1)
edge_ints = st.one_of(st.sampled_from(EDGES), st.integers(-9, 9),
                      st.integers(-2 ** 70, 2 ** 70))
# 2^11 times an entry of 2^53 - 1 passes 2^63
dens = st.sampled_from((1, 3, 2 ** 11, 2 ** 64 + 13))
edge_fractions = st.builds(Fraction, edge_ints, dens)
WRAP = [[LIMIT - 1]]


@st.composite
def edge_matrices(draw, rows=None, cols=None):
    r = rows or draw(st.integers(1, 3))
    c = cols or draw(st.integers(1, 3))
    return [[draw(edge_fractions) for _ in range(c)] for _ in range(r)]


@st.composite
def matrix_triples(draw):
    a = draw(edge_matrices())
    return a, draw(edge_matrices(len(a), len(a[0]))), draw(edge_matrices(len(a[0])))


def assert_matrix(got, want):
    """got is the matrix of Fractions want, in lowest terms and in the
    stored form that the storage rule gives its numerators."""
    nums, den = lowest_terms(want)
    assert got.den == den and got.data.tolist() == nums
    assert got.data.dtype == storage_rule(nums)[0]
    assert_stored(got.data, got.top)


@settings(max_examples=150, deadline=None)
@given(matrix_triples(), edge_fractions)
@example((WRAP, [[Fraction(1, 2 ** 11)]], [[Fraction(2 ** 11)]]),
         Fraction(2 ** 11))
@example(([[Fraction(2 ** 1030), Fraction(-LIMIT)]],
          [[Fraction(LIMIT), Fraction(1, 3)]], [[Fraction(0)], [Fraction(0)]]),
         Fraction(0))
def test_ratmatrix_operations_keep_the_storage_rule(triple, scalar):
    a, b, c = triple
    ma, mb, mc = RatMatrix(a), RatMatrix(b), RatMatrix(c)
    rows, cols = len(a), len(a[0])
    cases = [
        (ma, a),
        (ma + mb, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (ma - mb, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (-ma, [[-x for x in p] for p in a]),
        (ma * scalar, [[x * scalar for x in p] for p in a]),
        (scalar * ma, [[x * scalar for x in p] for p in a]),
        (ma * mc, [[sum((p[t] * c[t][j] for t in range(cols)), Fraction(0))
                    for j in range(len(c[0]))] for p in a]),
        (ma.kron(mc), [[a[i][j] * c[k][l] for j in range(cols)
                        for l in range(len(c[0]))]
                       for i in range(rows) for k in range(len(c))]),
        (ma.transpose(), [list(r) for r in zip(*a)]),
        (ma[rows - 1:, :], a[rows - 1:]),
        (ma[:, [cols - 1, 0]], [[r[-1], r[0]] for r in a]),
    ]
    for got, want in cases:
        assert_matrix(got, want)
    assert ma[rows - 1, 0] == a[rows - 1][0]
    assert type(ma[0, 0]) is Fraction
    assert (ma == mb) == (a == b) and ma == RatMatrix(a)
    assert ma.is_zero() == (not any(map(any, a)))


@settings(max_examples=100, deadline=None)
@given(edge_matrices())
@example([[Fraction(LIMIT - 1), Fraction(1, 2 ** 11)],
          [Fraction(2 ** 63), Fraction(2 ** 1030)]])
def test_elimination_keeps_the_storage_rule(a):
    ma = RatMatrix(a)
    red, pivots = ref_rref(a)
    got, got_pivots = ma.rref()
    assert got_pivots == pivots
    assert_matrix(got, red)
    free = [f for f in range(len(a[0])) if f not in pivots]
    assert_matrix(ma.nullspace(), [
        [Fraction(int(f == row)) if row in free
         else -red[pivots.index(row)][f] for f in free]
        for row in range(len(a[0]))])


# one-block words: x_0 d_1 (largest coefficient the degree), d_1 x_1 (one
# more) and x_0 x_0 d_1 d_1 (a product of two exponents)
WORDS = ((("x", 0, 0), ("d", 0, 1)), (("d", 0, 1), ("x", 0, 1)),
         (("x", 0, 0), ("x", 0, 0), ("d", 0, 1), ("d", 0, 1)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(((1, 2, 3), (-1, 3, 2))),
       st.lists(st.tuples(edge_ints, st.sampled_from(WORDS)), max_size=3))
# entries of exactly +-2^53 from coefficients +-1: Python ints
@example((-1, 3, 2), [(LIMIT, WORDS[0])])
# 2^61 times the coefficient 4 reaches 2^63, past an int64 fill
@example((1, 2, 3), [(2 ** 61, WORDS[1])])
# two terms of 2^62 each sum to +-2^63, which an int64 fill wraps
@example((-1, 3, 2), [(2 ** 62, WORDS[0]), (2 ** 62, WORDS[0])])
def test_operator_matrix_keeps_the_storage_rule(shape, terms):
    theta, n, degree = shape
    space = FockSpace(theta, n, (degree,))
    want = [[0] * space.dim for _ in range(space.dim)]
    for scalar, word in terms:
        for k, b in enumerate(space.basis):
            hit = apply_word(theta, n, word, b)
            if hit is not None:
                want[space.index[hit[1]]][k] += scalar * hit[0]
    got = space.operator_matrix(terms)
    assert got.tolist() == want
    assert_stored(got)


@st.composite
def module_pairs(draw):
    """Raw data (dim, scale, c, low) of two modules of one rank n: the
    denominator u + c, low the u^0 numerators [i][j][r][s], scale I at u^1."""
    n = draw(st.integers(1, 2))

    def one():
        dim = draw(st.integers(1, 2))
        low = [[[[draw(edge_ints) for _ in range(dim)] for _ in range(dim)]
                for _ in range(n)] for _ in range(n)]
        return (dim, draw(st.sampled_from((1, 3, 2 ** 11))),
                draw(st.integers(-3, 3)), low)

    return one(), one()


def build(data):
    _, scale, c, low = data
    return YangianModule(Poly([c, 1]), module_ints(low, scale), scale)


# B times 2^11 would wrap: 1 over scale 1 against scale 2^11
WRAP_PAIR = ((1, 1, 0, [[[[LIMIT - 1]]]]), (1, 2 ** 11, 1, [[[[1]]]]))


@settings(max_examples=80, deadline=None)
@given(module_pairs())
@example(WRAP_PAIR)
def test_module_construction_and_tensor_keep_the_storage_rule(pair):
    for data in pair:
        mod, ints = build(data), module_ints(data[3], data[1])
        g = np.gcd.reduce(np.append(ints.ravel(), data[1]).astype(object))
        want = (ints // g).tolist()
        assert mod.num.tolist() == want and mod.scale == data[1] // g
        assert mod.num.dtype == storage_rule(want)[0]
        assert_stored(mod.num, mod.top)
    a, b = map(build, pair)
    got = tensor_module(a, b)
    num, scale, den = tensor_ints(a, b)
    assert (got.num.tolist(), got.scale, got.den) == (num, scale, den)
    assert got.num.dtype == storage_rule(num)[0]
    assert_stored(got.num, got.top)


@settings(max_examples=80, deadline=None)
@given(module_pairs(), st.integers(-2, 2), edge_ints, st.sampled_from(EDGES[1:]))
@example(WRAP_PAIR, 2, 1, LIMIT - 1)
def test_pairs_equality_and_certificate_match_the_object_reference(
        pair, e, bump, scalar):
    a, b = map(build, pair)
    keys, (bs, top_b), (cs, top_c) = coefficient_pairs(a, b)
    want_keys, want_bs, want_cs = cleared_pairs(a, b)
    assert [tuple(k) for k in keys.tolist()] == want_keys
    for got, top, want in ((bs, top_b, want_bs), (cs, top_c, want_cs)):
        assert got.tolist() == want
        assert got.dtype == storage_rule(np.array(want, dtype=object))[0]
        assert_stored(got, top)
    # a's action over the denominator times u + e, and that with one bump
    same = YangianModule(a.den * Poly([e, 1]), np.array(
        _convolve(a.num.tolist(), [e, 1]), dtype=object), a.scale)
    low = same.num.astype(object)
    low[-1, 0, 0, -1, 0] += bump or 1
    bumped = YangianModule(same.den, low, same.scale)
    for other in (same, bumped, b):
        assert a.equal_entrywise(other) == same_action(a, other)
    assert a.equal_entrywise(same) and not a.equal_entrywise(bumped)
    # scalar I intertwines a with itself; one entry more may break it
    dim = a.dim
    mat = [[Fraction(scalar * (r == s) + bump * (r == dim - 1 and s == 0))
            for s in range(dim)] for r in range(dim)]
    nums, _ = lowest_terms(mat)
    for tgt in (a, same):
        assert _verify_intertwiner(RatMatrix(mat), a, tgt) == pair_witness(
            nums, *cleared_pairs(a, tgt))
    assert _verify_intertwiner(RatMatrix(mat), a, same) is None or bump
