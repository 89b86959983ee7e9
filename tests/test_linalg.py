"""Exactness checks for the rational linear algebra layer."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import yangian
from yangian import linalg
from yangian.linalg import (
    MatPoly,
    Poly,
    RatFunc,
    RatMatrix,
    ZeroTest,
    int_matmul,
    nullspace,
    poly_gcd,
    poly_rational_roots,
    ratfunc_normalize,
    residue_primes,
)

from reference import (
    assert_stored,
    bareiss_gauss_jordan,
    column,
    divisor_rational_roots,
    ref_add,
    ref_divmod,
    ref_eval,
    ref_from_roots,
    ref_gcd,
    ref_monic,
    ref_mul,
    ref_normalize,
    ref_poly,
    ref_rref,
    ref_shift,
)


def rand_frac(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg=5):
    return Poly([rand_frac(rng) for _ in range(rng.randint(0, max_deg) + 1)])


def test_poly_ring_ops_match_evaluation():
    rng = random.Random(101)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        u = rand_frac(rng)
        assert (a + b)(u) == a(u) + b(u)
        assert (a - b)(u) == a(u) - b(u)
        assert (a * b)(u) == a(u) * b(u)


def test_poly_divmod_roundtrip():
    rng = random.Random(102)
    for _ in range(60):
        a = rand_poly(rng, 7)
        b = rand_poly(rng, 4)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_shift_matches_evaluation():
    rng = random.Random(103)
    for _ in range(40):
        p = rand_poly(rng)
        c, u = rand_frac(rng), rand_frac(rng)
        assert p.shift(c)(u) == p(u + c)


def test_poly_gcd_divides_and_is_monic():
    rng = random.Random(104)
    for _ in range(40):
        g = rand_poly(rng, 3)
        if g.is_zero():
            continue
        a = g * rand_poly(rng, 3)
        b = g * rand_poly(rng, 3)
        if a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a, b)
        assert d.lead() == 1
        assert (a % d).is_zero()
        assert (b % d).is_zero()
        # the common factor g divides the gcd
        assert (d % g.monic()).is_zero()


def test_rational_roots_recovered_with_multiplicity():
    rng = random.Random(105)
    for _ in range(30):
        roots = sorted(rand_frac(rng, 5) for _ in range(rng.randint(1, 4)))
        cofactor = Poly([1, 0, 1])  # no rational roots
        p = Poly.from_roots(roots) * cofactor * Fraction(rng.randint(1, 4), 3)
        got, residual = poly_rational_roots(p)
        assert got == roots
        assert residual.monic() == cofactor


def test_rational_roots_zero_root_and_repeats():
    p = Poly.from_roots([0, 0, Fraction(3, 2), Fraction(3, 2), -1])
    got, residual = poly_rational_roots(p)
    assert got == [Fraction(-1), 0, 0, Fraction(3, 2), Fraction(3, 2)]
    assert residual.degree == 0


# polynomials without a rational root
ROOTLESS = (Poly([1, 0, 1]), Poly([-2, 0, 1]), Poly([-2, 0, 0, 1]),
            Poly([-2, 0, 1]) * Poly([-3, 0, 1]) * Poly([-6, 0, 1]))


@st.composite
def split_polynomials(draw):
    """c (u - r_1) ... (u - r_k) h with h from ROOTLESS: roots with
    denominators up to 10^12, small integers and 0, a repeated root and a
    pair r, r + 10^-12.  Returns the polynomial, its sorted roots and h."""
    wide = st.builds(Fraction, st.integers(-10 ** 13, 10 ** 13),
                     st.integers(1, 10 ** 12))
    roots = draw(st.lists(st.one_of(wide, st.integers(-3, 3).map(Fraction)),
                          max_size=4))
    if roots and draw(st.booleans()):
        roots.append(draw(st.sampled_from(roots)))
    if roots and draw(st.booleans()):
        roots.append(draw(st.sampled_from(roots)) + Fraction(1, 10 ** 12))
    h = draw(st.sampled_from(ROOTLESS))
    c = draw(st.builds(Fraction, st.integers(-99, 99).filter(bool),
                       st.integers(1, 99)))
    return Poly.from_roots(roots) * h * c, sorted(roots), h


# the product of the first 50 primes, 2 * 3 * ... * 229
PRIMORIAL_50 = math.prod(p for p in range(2, 230)
                         if all(p % k for k in range(2, p)))
# 304-bit roots, one over 3; 0 is stripped and -P/7 is an integer, so the
# search fails at 2, 3 and 5 and lifts modulo 7
WIDE = [Fraction(0), Fraction(PRIMORIAL_50),
        Fraction(2 * PRIMORIAL_50 + 1, 3), Fraction(-PRIMORIAL_50, 7)]
# P and 2P collide modulo every prime below 233
COLLIDING = [Fraction(0), Fraction(PRIMORIAL_50), Fraction(2 * PRIMORIAL_50),
             Fraction(2 * PRIMORIAL_50 + 1, 3)]


@settings(deadline=None)
@given(split_polynomials())
# the lifting runs modulo 2, and -200 lies past half the root bound
@example((Poly.from_roots([-200]), [Fraction(-200)], Poly([1])))
@example((Poly.from_roots(WIDE) * ROOTLESS[1], sorted(WIDE), ROOTLESS[1]))
@example((Poly.from_roots(COLLIDING) * ROOTLESS[1], sorted(COLLIDING),
          ROOTLESS[1]))
def test_rational_roots_of_split_polynomials(case):
    p, roots, h = case
    got, residual = poly_rational_roots(p)
    assert got == roots
    assert residual.monic() == h.monic()


@st.composite
def integer_polynomials(draw):
    """A nonzero integer polynomial of degree <= 6, low degree first: up
    to three planted linear factors b u - a times a random cofactor, every
    drawn coefficient at most 30 in size."""
    planted = draw(st.lists(st.tuples(st.integers(-30, 30),
                                      st.integers(1, 30)), max_size=3))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=1,
                           max_size=7 - len(planted)).filter(any))
    for a, b in planted:
        coeffs = [x - y for x, y in zip([0] + [b * c for c in coeffs],
                                        [a * c for c in coeffs] + [0])]
    return coeffs


@settings(max_examples=300, deadline=None)
@given(integer_polynomials())
def test_rational_roots_match_the_divisor_reference(coeffs):
    got, residual = poly_rational_roots(Poly(coeffs))
    roots, cofactor = divisor_rational_roots(coeffs)
    assert got == roots
    assert residual.coeffs == cofactor


def test_ratfunc_normal_form():
    u = Poly.x()
    f = RatFunc((u + 1) * (u - 2) * 6, (u - 2) * (u + 3) * 4)
    assert f.den.lead() == 1
    assert f.num == (u + 1) * Fraction(3, 2)
    assert f.den == u + 3
    assert poly_gcd(f.num, f.den).degree == 0


def test_ratfunc_field_ops_match_evaluation():
    rng = random.Random(106)
    for _ in range(40):
        f = RatFunc(rand_poly(rng, 3), Poly([1, 1]) * Poly([2, 1]))
        g = RatFunc(rand_poly(rng, 3), Poly([3, 1]))
        u = Fraction(rng.randint(4, 40), 1)
        assert (f + g)(u) == f(u) + g(u)
        assert (f * g)(u) == f(u) * g(u)
        if not g.is_zero():
            assert (f / g)(u) == f(u) / g(u)
        assert (f - g)(u) == f(u) - g(u)


def test_ratfunc_limit_at_infinity():
    u = Poly.x()
    assert RatFunc(u + 5, u).limit_at_infinity() == 1
    assert RatFunc(Poly([1]), u).limit_at_infinity() == 0
    assert RatFunc(u * u, u).limit_at_infinity() is None
    assert RatFunc(3 * u + 1, 2 * u + 7).limit_at_infinity() == Fraction(3, 2)


def rand_matrix(rng, r, c, span=6):
    return RatMatrix([[rand_frac(rng, span) for _ in range(c)] for _ in range(r)])


def test_inverse_roundtrip():
    rng = random.Random(107)
    done = 0
    while done < 15:
        a = rand_matrix(rng, 5, 5)
        try:
            inv = a.inverse()
        except ValueError:
            continue
        assert a * inv == RatMatrix.identity(5)
        assert inv * a == RatMatrix.identity(5)
        done += 1


def test_rank_and_nullspace_dimensions():
    rng = random.Random(108)
    for _ in range(20):
        r = rng.randint(2, 5)
        k = rng.randint(1, r)
        c = rng.randint(2, 6)
        # rank <= k by construction
        a = rand_matrix(rng, r, k) * rand_matrix(rng, k, c)
        rk = a.rank()
        assert rk <= min(k, c)
        ns = nullspace(a)
        assert ns.ncols == c - rk
        for t in range(ns.ncols):
            assert (a * ns[:, [t]]).is_zero()


def test_nullspace_is_deterministic_and_reduced():
    a = RatMatrix([[1, 2, 3, 4], [0, 0, 1, 1]])
    ns = nullspace(a)
    assert ns.ncols == 2
    # identity block on the free columns (columns 1 and 3)
    assert ns[1, 0] == 1 and ns[3, 0] == 0
    assert ns[1, 1] == 0 and ns[3, 1] == 1
    assert ns == nullspace(a)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(109)
    for _ in range(15):
        a = rand_matrix(rng, 4, 3)
        x = column([rand_frac(rng) for _ in range(3)])
        b = a * x
        got = a.solve(b)
        assert got is not None
        assert a * got == b
    # inconsistent system
    a = RatMatrix([[1, 0], [1, 0]])
    assert a.solve(column([1, 2])) is None


def test_rref_shape_and_idempotence():
    rng = random.Random(110)
    for _ in range(10):
        a = rand_matrix(rng, 4, 6)
        red, pivots = a.rref()
        for r, c in enumerate(pivots):
            assert red[r, c] == 1
            for i in range(a.nrows):
                if i != r:
                    assert red[i, c] == 0
        again, pivots2 = red.rref()
        assert again == red and pivots2 == pivots


def test_kron_acts_on_tensor_vectors():
    rng = random.Random(111)
    a = rand_matrix(rng, 3, 2)
    b = rand_matrix(rng, 2, 4)
    x = [rand_frac(rng) for _ in range(2)]
    y = [rand_frac(rng) for _ in range(4)]
    xy = column([xi * yj for xi in x for yj in y])
    lhs = a.kron(b) * xy
    ax, by = a * column(x), b * column(y)
    rhs = column([ax[i, 0] * by[j, 0] for i in range(ax.nrows)
                  for j in range(by.nrows)])
    assert lhs == rhs


def test_int_matmul_exact_across_fast_and_big_paths():
    # k max|a| max|b| = 2^53 - 2^27 takes the float64 product, 2^53 the
    # Python-int one; with every entry at +-max, the sums reach the bound
    rng = random.Random(112)
    for top in (2 ** 26 - 1, 2 ** 26):
        a = np.array([[rng.choice((-1, 1)) * 2 ** 25 for _ in range(4)]
                      for _ in range(3)], dtype=object)
        b = np.array([[rng.choice((-1, 1)) * top for _ in range(5)]
                      for _ in range(4)], dtype=object)
        got = int_matmul(a, b)
        assert (got == a @ b).all()
        assert all(type(x) is int for x in got.flat)


@pytest.mark.parametrize("a_shape,b_shape,big", [
    ((2, 3), (3, 4), "b"), ((2, 3), (3, 4), "a"), ((3, 0), (0, 4), ""),
    ((0, 3), (3, 4), "b"), ((2, 3), (3, 0), "a")],
    ids=["zero-by-big", "big-by-zero", "empty-inner", "no-rows-by-big",
         "big-by-no-columns"])
def test_int_matmul_zero_or_empty_operand_gives_object_zeros(a_shape, b_shape,
                                                             big):
    # the other operand holds entries past the float64 range, whose cast
    # raises: the product still gives Python-int zeros
    a = np.full(a_shape, 2 ** 1100 if big == "a" else 0, dtype=object)
    b = np.full(b_shape, -2 ** 1100 if big == "b" else 0, dtype=object)
    got = int_matmul(a, b)
    assert got.dtype == object and got.shape == (a_shape[0], b_shape[1])
    assert all(type(x) is int and x == 0 for x in got.flat)


# (k, max|a|, max|b|) with k max|a| max|b| exactly 2^53 - 1, 2^53 and
# 2^53 + 1: 2^53 - 1 = 6361 * 69431 * 20394401, 2^53 + 1 = 3 * 107 *
# 28059810762433
_EXACT_EDGES = [(1, 6361 * 69431, 20394401), (1, 2 ** 26, 2 ** 27),
                (64, 2 ** 23, 2 ** 24), (1, 107, 3 * 28059810762433),
                (3, 107, 28059810762433)]


def _edge_entries(rnd: random.Random, shape, top: int) -> np.ndarray:
    """Integers in [-top, top], mostly +-top so that sums reach the bound,
    with the first entry +-top."""
    size = math.prod(shape)
    flat = [rnd.choice((top, -top, top, -top, 0, rnd.randint(-top, top)))
            for _ in range(size)]
    if flat:
        flat[0] = rnd.choice((top, -top))
    return np.array(flat, dtype=object).reshape(shape)


@st.composite
def matmul_operands(draw):
    """Operands of int_matmul, 2-d or stacked (a's stack broadcast against
    b's), inner dimension k in {0, 1, 3, 64}, with k max|a| max|b| at or
    next to 2^53 - 1, 2^53 or 2^53 + 1: exact where k divides it, else
    the nearest value on either side.  Sometimes one operand is zero and
    the other holds entries of +-2^1100."""
    if draw(st.booleans()):
        k, ma, mb = draw(st.sampled_from(_EXACT_EDGES))
    else:
        k = draw(st.sampled_from((0, 1, 3, 64)))
        target = draw(st.sampled_from((2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1)))
        ma = draw(st.integers(1, 2 ** 27))
        mb = max(1, target // (max(k, 1) * ma) + draw(st.integers(0, 1)))
    if draw(st.booleans()):
        ma, mb = mb, ma
    stack_a = draw(st.sampled_from(((), (2,), (3, 1))))
    stack_b = draw(st.sampled_from(((), (1,), (2,))))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    zero = draw(st.sampled_from((None, None, "a", "b")))
    rnd = draw(st.randoms(use_true_random=False))
    a = _edge_entries(rnd, stack_a + (rows, k),
                      2 ** 1100 if zero == "b" else ma)
    b = _edge_entries(rnd, stack_b + (k, cols),
                      2 ** 1100 if zero == "a" else mb)
    if zero:
        (a if zero == "a" else b)[...] = 0
    return a, b


@settings(max_examples=200, deadline=None)
@given(matmul_operands())
@example((np.full((2, 1), 3 * 107, dtype=object),
          np.full((1, 2), 28059810762433, dtype=object)))
@example((np.full((2, 2, 0), 2 ** 1100, dtype=object),
          np.zeros((2, 0, 3), dtype=object)))
def test_int_matmul_matches_object_matmul_at_the_float64_edge(operands):
    # Python-int operands give Python ints; their int64 casts, where every
    # entry fits, give int64 exactly when k max|a| max|b| < 2^53
    a, b = operands
    want = a @ b
    pairs = [(a, b)]
    if all(abs(x) < 2 ** 63 for x in (*a.flat, *b.flat)):
        pairs.append((a.astype(np.int64), b.astype(np.int64)))
    for left, right in pairs:
        got = int_matmul(left, right)
        bound = a.shape[-1] * max(map(abs, a.flat), default=0) * max(
            map(abs, b.flat), default=0)
        fast = left.dtype == np.int64 and bound < 2 ** 53
        assert got.dtype == (np.int64 if fast else object)
        assert got.shape == want.shape and (got == want).all()
        assert fast or all(type(x) is int for x in got.flat)


@pytest.mark.parametrize("k,ma,mb,int64_out", [
    (1, 6361 * 69431, 20394401, True), (1, 2 ** 26, 2 ** 27, False),
    (64, 2 ** 23, 2 ** 24 - 1, True), (64, 2 ** 23, 2 ** 24, False)],
    ids=["one-under", "one-at", "inner-64-under", "inner-64-at"])
def test_int_matmul_int64_result_only_for_int64_pairs_under_the_gate(
        k, ma, mb, int64_out):
    # k max|a| max|b| just under or at 2^53, every entry +-max so that the
    # sums reach the bound: int64 operands give int64 only under it, and a
    # mixed or object pair gives Python ints either way
    rnd = random.Random(k * ma)
    a = _edge_entries(rnd, (3, k), ma)
    b = _edge_entries(rnd, (k, 2), mb)
    want = a @ b
    for left, right in itertools.product((a, a.astype(np.int64)),
                                         (b, b.astype(np.int64))):
        got = int_matmul(left, right)
        both = left.dtype == right.dtype == np.int64
        assert got.dtype == (np.int64 if both and int64_out else object)
        assert got.shape == want.shape and (got == want).all()
        if got.dtype == object:
            assert all(type(x) is int for x in got.flat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_int_matmul_gate_on_300_digit_entries_raises_no_warning():
    # k max|a| max|b| is about 2^1993, past float64's range although every
    # entry casts: the bound reads inf, fails the gate, and the Python-int
    # product runs without a numpy overflow warning
    a = np.array([[10 ** 300, -3], [7, 10 ** 299]], dtype=object)
    b = np.array([[-(10 ** 300)], [11]], dtype=object)
    got = int_matmul(a, b)
    assert got.dtype == object and (got == a @ b).all()


# The functions that may contract integer arrays themselves: the product
# kernel, and the product of the exact zero test behind the fused checks,
# which keeps float64 partial sums under 2^53 by the bounds it is given.
_OWN_PRODUCTS = {("linalg", "int_matmul"), ("linalg", "product")}
_CONTRACTIONS = {"matmul", "dot", "tensordot", "einsum"}


def _contractions(node, func=None):
    """(function, line) of every @, @= and call of a function or method
    named matmul, dot, tensordot or einsum below node; function is the
    innermost enclosing def, None at module level."""
    for child in ast.iter_child_nodes(node):
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else func)
        if isinstance(child, (ast.BinOp, ast.AugAssign)):
            if isinstance(child.op, ast.MatMult):
                yield func, child.lineno
        elif isinstance(child, ast.Call):
            callee = child.func
            name = (callee.attr if isinstance(callee, ast.Attribute)
                    else getattr(callee, "id", None))
            if name in _CONTRACTIONS:
                yield func, child.lineno
        yield from _contractions(child, inner)


def test_every_integer_contraction_goes_through_int_matmul():
    package = Path(yangian.__file__).parent
    stray = [f"{path.name}:{line} in {func}"
             for path in sorted(package.glob("*.py"))
             for func, line in _contractions(ast.parse(path.read_text()))
             if (path.stem, func) not in _OWN_PRODUCTS]
    assert not stray
    # the rule sees what it looks for
    found = {func for func, _ in _contractions(ast.parse(
        "def f(a, b):\n    a @= b\n    return np.einsum('ij,jk', a, b)\n"
        "def g(a, b):\n    return a.dot(b) @ np.tensordot(a, b)\n"))}
    assert found == {"f", "g"}


def _float64_gates(tree):
    """Every `except OverflowError` handler and `2 ** 53` literal below
    tree, as source text."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "OverflowError" in ast.unparse(node.type):
            yield "except OverflowError"
        elif isinstance(node, ast.BinOp) and ast.unparse(node) == "2 ** 53":
            yield "2 ** 53"


def test_the_float64_limit_and_cast_live_in_linalg():
    # the limit is one constant and the cast one helper, and every float64
    # gate of the package reads both
    package = Path(yangian.__file__).parent
    found = sorted((path.stem, gate) for path in package.glob("*.py")
                   for gate in _float64_gates(ast.parse(path.read_text())))
    assert found == [("linalg", "2 ** 53"), ("linalg", "except OverflowError")]
    assert sorted(_float64_gates(ast.parse(
        "try:\n    x = 2 ** 53\nexcept (ValueError, OverflowError):\n    pass\n"))
    ) == ["2 ** 53", "except OverflowError"]


def is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 4), st.integers(0, 2 ** 300))
def test_residue_primes_certify_bound(inner, bound):
    primes = residue_primes(bound, inner)
    assert primes
    assert len(set(primes)) == len(primes)
    assert primes == sorted(primes, reverse=True)
    for p in primes:
        assert is_prime_by_trial_division(p)
        assert inner * (p - 1) ** 2 < 2 ** 53
    assert math.prod(primes) > bound
    # the fewest: the largest primes, one fewer of them, do not suffice
    assert len(primes) == 1 or math.prod(primes[:-1]) <= bound
    # the largest: no prime between the first one and the float64 limit
    c = primes[0] + 1
    while inner * (c - 1) ** 2 < 2 ** 53:
        assert not is_prime_by_trial_division(c)
        c += 1


# ---------------------------------------------------------------------------
# the exact zero test against Python ints


# X Y12 - X Y1 - X Y2, operands (X, Y12, Y1, Y2): it vanishes for Y12 = Y1 +
# Y2, and a tampered entry of any operand makes it fail where the
# Python-int sum does
_TERMS = ((1, 0, 1), (-1, 0, 2), (-1, 0, 3))


def zero_test_masks(ops, top=None, product=None, scale=1):
    """The nonzero entries of scale times the signed sum of _TERMS by a
    ZeroTest told the largest |entry| top, the inner dimension k, the
    product bound (by default k top^2) and weight 3 scale, and the test."""
    if top is None:
        top = max(max(x.max(), -x.min()) for x in ops)
    inner = ops[0].shape[-1]
    test = ZeroTest(top, inner, product or inner * top * top, 3 * scale)

    def combine(*parts):
        yield scale * sum(c * test.product(parts[i], parts[j])
                          for c, i, j in _TERMS)

    mask, = test.nonzero(combine, *(test.operand(x, top) for x in ops))
    return mask, test


def python_int_sum(ops):
    """The signed sum of _TERMS on Python ints."""
    return sum(c * (ops[i] @ ops[j]) for c, i, j in _TERMS)


def tier(test):
    return ("residues" if test.moduli[0] is not None
            else "two limbs" if test.shift else "one piece")


def dense_sum(bits, tamper=None):
    """Operands of (3, 3, 3) stacks, X and Y1 = Y2 full of 2^bits - 1, with
    delta added at X's flat index at for tamper (at, delta)."""
    x = np.full((3, 3, 3), 2 ** bits - 1, dtype=object)
    ops = [x, 2 * x, x.copy(), x.copy()]
    if tamper:
        ops[0].flat[tamper[0]] += tamper[1]
    return ops


@st.composite
def signed_sums(draw):
    """Stacked Python-int operands (X, Y1 + Y2, Y1, Y2) of up to 2^200, as
    built or with one entry tampered."""
    s, r, k, c = (draw(st.integers(1, 3)) for _ in range(4))
    bits = draw(st.sampled_from((0, 8, 24, 28, 30, 40, 70, 199)))

    def stack(*shape):
        return np.array(draw(st.lists(
            st.integers(-2 ** bits, 2 ** bits), min_size=math.prod(shape),
            max_size=math.prod(shape))), dtype=object).reshape(shape)

    y1, y2 = stack(s, k, c), stack(s, k, c)
    ops = [stack(s, r, k), y1 + y2, y1, y2]
    tamper = draw(st.none() | st.tuples(
        st.integers(0, 3), st.integers(0, 26),
        st.sampled_from((1, -1, 2 ** bits, -3 * 2 ** bits))))
    if tamper:
        i, at, delta = tamper
        ops[i].flat[at % ops[i].size] += delta
    return ops


@settings(max_examples=80, deadline=None)
@given(signed_sums(), st.sampled_from((1, 2 ** 11)))
# all zero, and each tier as built and tampered
@example([np.zeros((2, 2, 2), dtype=object)] * 4, 1)
@example(dense_sum(24), 1)
@example(dense_sum(24, (13, -1)), 1)
@example(dense_sum(28), 1)
@example(dense_sum(28, (26, 1)), 1)
@example(dense_sum(30), 1)
@example(dense_sum(199, (0, 2 ** 150)), 1)
# weight 3 2^11: products of residues must stay below 2^63 / 2^13
@example(dense_sum(199, (5, 1)), 2 ** 11)
def test_zero_test_matches_python_ints(ops, scale):
    mask, _ = zero_test_masks(ops, scale=scale)
    value = python_int_sum(ops)
    assert (mask == (value != 0)).all()
    assert np.argwhere(mask)[:1].tolist() == np.argwhere(value != 0)[:1].tolist()


@pytest.mark.parametrize("bits,want", [(24, "one piece"), (28, "two limbs"),
                                       (30, "residues"), (199, "residues")])
def test_zero_test_takes_each_tier(bits, want):
    # 3 (2^(bits+1))^2 against 2^53 for one piece, and 9 of them against
    # 2^63 for the int64 tier
    mask, test = zero_test_masks(dense_sum(bits))
    assert tier(test) == want and not mask.any()
    assert test.bound == 3 * 3 * (2 ** (bits + 1) - 2) ** 2


def test_zero_test_keeps_values_past_2_53_exact():
    # six products of a = 2^52 + 1, each exact in float64, whose running sum
    # 3 a is not: only in int64 does a + a + a - a - a - a vanish
    a = 2 ** 52 + 1
    test = ZeroTest(a, 1, a, 6)
    x, y = (test.operand(np.array([[v]], dtype=object), a) for v in (1, a))

    def combine(x, y):
        yield sum(c * test.product(x, y) for c in (1, 1, 1, -1, -1, -1))

    mask, = test.nonzero(combine, x, y)
    assert not mask.any()


def test_zero_test_needs_every_residue_prime():
    # the sum is delta, the product of the first three of the four residue
    # primes that its bound 3 delta takes, so only the last prime sees it
    p = residue_primes(2 ** 200, 1)
    delta = p[0] * p[1] * p[2]
    ops = [np.full((1, 1, 1), v, dtype=object) for v in (delta, 1, 0, 0)]
    mask, test = zero_test_masks(ops, delta, delta)
    assert mask.tolist() == [[[True]]]
    assert test.moduli == p[:4]


# ---------------------------------------------------------------------------
# property tests against an in-test Fraction reference


def ref_entries(m):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def ref_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_nullspace(a):
    red, pivots = ref_rref(a)
    cols = len(a[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    # one column per basis vector
    return RatMatrix([[v[r] for v in basis] for r in range(cols)])


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 10007))


@st.composite
def rat_matrices(draw, rows=None, cols=None):
    """A zero, rank-deficient or general rational matrix (1 x 1 included)."""
    r = rows or draw(st.integers(1, 4))
    c = cols or draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("zero", "deficient", "general")))
    if kind == "zero":
        return [[Fraction(0)] * c for _ in range(r)]
    if kind == "deficient":
        k = draw(st.integers(1, max(1, min(r, c) - 1)))
        left = draw(st.lists(st.lists(fractions, min_size=k, max_size=k),
                             min_size=r, max_size=r))
        right = draw(st.lists(st.lists(fractions, min_size=c, max_size=c),
                              min_size=k, max_size=k))
        return ref_matmul(left, right)
    return draw(st.lists(st.lists(fractions, min_size=c, max_size=c),
                         min_size=r, max_size=r))


@st.composite
def matrix_pairs(draw):
    a = draw(rat_matrices())
    b = draw(rat_matrices(len(a), len(a[0])))
    c = draw(rat_matrices(len(a[0])))
    return a, b, c


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(), fractions, st.lists(fractions, min_size=4, max_size=4))
def test_arithmetic_matches_fraction_reference(pair, scalar, vec):
    a, b, c = pair
    ma, mb, mc = RatMatrix(a), RatMatrix(b), RatMatrix(c)
    assert ref_entries(ma) == a
    assert ma[0, 0] == a[0][0]
    rows, cols = len(a), len(a[0])
    cases = [
        (ma + mb, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (ma - mb, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (-ma, [[-x for x in p] for p in a]),
        (ma * scalar, [[x * scalar for x in p] for p in a]),
        (scalar * ma, [[x * scalar for x in p] for p in a]),
        (ma * mc, ref_matmul(a, c)),
        (ma.kron(mc), [[a[i][j] * c[k][l] for j in range(cols)
                        for l in range(len(c[0]))]
                       for i in range(rows) for k in range(len(c))]),
        (ma.transpose(), [list(r) for r in zip(*a)]),
        (ma[rows - 1:, :], a[rows - 1:]),
        (ma[:, [cols - 1, 0]], [[r[-1], r[0]] for r in a]),
    ]
    for got, want in cases:
        assert ref_entries(got) == want
        # equal matrices have equal fields: every result is in lowest terms
        assert got == RatMatrix(want)
    assert (ma + mb) - mb == ma
    assert ma * column(vec[:cols]) == column(
        [sum((x * y for x, y in zip(r, vec)), Fraction(0)) for r in a])
    assert (ma == mb) == (a == b)
    assert ma.is_zero() == all(x == 0 for r in a for x in r)


@settings(max_examples=150, deadline=None)
@given(rat_matrices(), st.lists(fractions, min_size=4, max_size=4))
def test_elimination_matches_fraction_reference(a, rhs):
    ma = RatMatrix(a)
    rows, cols = len(a), len(a[0])
    red, pivots = ref_rref(a)
    got, got_pivots = ma.rref()
    assert got_pivots == pivots
    assert got == RatMatrix(red)
    assert ma.rank() == len(pivots)
    assert nullspace(ma) == ma.nullspace() == ref_nullspace(a)
    b = rhs[:rows]
    aug_red, aug_pivots = ref_rref([r + [x] for r, x in zip(a, b)])
    if cols in aug_pivots:
        assert ma.solve(column(b)) is None
    else:
        want = [Fraction(0)] * cols
        for r, c in enumerate(aug_pivots):
            want[c] = aug_red[r][cols]
        assert ma.solve(column(b)) == column(want)
    if rows == cols:
        eye = [[Fraction(int(i == j)) for j in range(cols)] for i in range(rows)]
        inv_red, inv_pivots = ref_rref([r + e for r, e in zip(a, eye)])
        if inv_pivots[:rows] == list(range(rows)):
            assert ma.inverse() == RatMatrix([r[cols:] for r in inv_red])
        else:
            with pytest.raises(ValueError, match="singular"):
                ma.inverse()


# the first prime of the modular elimination
P1 = 2 ** 31 - 1
wide_ints = st.one_of(st.integers(-9, 9), st.sampled_from([P1, -P1, 2 * P1]),
                      st.integers(-2 ** 70, 2 ** 70))


@st.composite
def integer_matrices(draw):
    """Sparse or low-rank integer matrices up to 6 x 6 (zero included),
    with multiples of the first prime and entries past 2^62."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        # sparse: about one entry in three nonzero
        cell = st.one_of(st.just(0), st.just(0), wide_ints)
        return draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    k = draw(st.integers(0, min(rows, cols)))
    left = draw(st.lists(st.lists(wide_ints, min_size=k, max_size=k),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols,
                                   max_size=cols), min_size=k, max_size=k))
    return [[sum(left[i][t] * right[t][j] for t in range(k))
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
# the first pivot is divisible by the first prime
@example([[P1, 2], [3, 1]])
# the rank drops modulo the first prime
@example([[1, 1], [1, 1 + P1]])
# the pivot moves right modulo the first prime
@example([[P1, 1]])
@example([[2 ** 70 + 1, 3, 2 ** 63], [5, 2 ** 65, 7]])
# rref (1, (2^20 + 1) / 3): one prime reconstructs numerators up to 2^15
@example([[3, 2 ** 20 + 1]])
def test_modular_elimination_matches_bareiss_reference(a):
    ints = np.array(a, dtype=object).reshape(len(a), len(a[0]))
    red, pivots, d = bareiss_gauss_jordan(ints.copy())
    # Bareiss's last pivot may be negative
    g = math.gcd(d, *red.flat) * (1 if d > 0 else -1)
    got, got_pivots, got_d = linalg._modular_rref(ints)
    # the same echelon form in lowest terms, in its stored form
    assert got_pivots == pivots and got_d == d // g
    assert got.shape == red.shape and (got == red // g).all()
    assert_stored(got)
    fractions_a = [[Fraction(x) for x in r] for r in a]
    want, want_pivots = ref_rref(fractions_a)
    ma = RatMatrix(a)
    assert ma.rref() == (RatMatrix(want), want_pivots)
    assert ma.rank() == len(want_pivots)
    assert nullspace(ma) == ref_nullspace(fractions_a)


def test_primes_are_added_until_the_certificate_holds(monkeypatch):
    first = list(itertools.islice(linalg._elimination_primes(), 6))
    assert first[0] == P1
    used = []

    def primes():
        for p in first:
            used.append(p)
            yield p

    monkeypatch.setattr(linalg, "_elimination_primes", primes)
    for a, count in (([[1, 2]], 1),
                     # rank 0 modulo P1; the second prime has the rank
                     ([[P1]], 2),
                     ([[1, 1], [1, 1 + P1]], 2),
                     # a numerator past 2^15 needs a second prime
                     ([[3, 2 ** 20 + 1]], 2),
                     # the pivot moves right modulo P1, and the entry 1 / P1
                     # needs three more primes
                     ([[P1, 1]], 4)):
        used.clear()
        want, want_pivots = ref_rref([[Fraction(x) for x in r] for r in a])
        assert RatMatrix(a).rref() == (RatMatrix(want), want_pivots)
        assert len(used) == count


def test_certificate_rejects_forged_echelon_forms(monkeypatch):
    genuine = linalg._rref_mod
    for a, forged, pivots, want in (
            # A N = 0 holds, but column 0 of N is nonzero at pivot column 1
            ([[1, 1]], [[1, 1]], [1], [[-1], [1]]),
            # echelon shape, but A N != 0
            ([[1, 2]], [[0, 1]], [1], [[-2], [1]])):
        calls = []

        def rref_mod(m, p):
            calls.append(p)
            if len(calls) == 1:
                return np.array(forged, dtype=np.int64), pivots
            return genuine(m, p)

        monkeypatch.setattr(linalg, "_rref_mod", rref_mod)
        assert nullspace(RatMatrix(a)) == RatMatrix(want)
        assert len(calls) == 2


def entry_polys(mp):
    """A MatPoly as its grid of per-entry scalar polynomials."""
    rows, cols = mp.shape
    return [[Poly([mp.coeff(k)[r, s] for k in range(mp.degree + 1)])
             for s in range(cols)] for r in range(rows)]


def from_entry_polys(shape, polys):
    top = max((p.degree for row in polys for p in row), default=-1)
    return MatPoly(shape, [RatMatrix([[p[k] for p in row] for row in polys])
                           for k in range(top + 1)])


@st.composite
def mat_polys(draw, rows=None, cols=None):
    """A matrix polynomial of degree -1 (zero) to 3 with rational coefficients."""
    r = rows or draw(st.integers(1, 3))
    c = cols or draw(st.integers(1, 3))
    deg = draw(st.integers(-1, 3))
    return MatPoly((r, c), [RatMatrix(draw(rat_matrices(r, c)))
                            for _ in range(deg + 1)])


small_polys = st.builds(Poly, st.lists(fractions, max_size=4))


@st.composite
def mat_poly_triples(draw):
    a = draw(mat_polys())
    b = draw(mat_polys(*a.shape))
    return a, b, draw(mat_polys())


@settings(max_examples=100, deadline=None)
@given(mat_poly_triples(), small_polys, fractions)
def test_mat_poly_matches_entrywise_poly_reference(triple, q, u):
    a, b, c = triple
    pa, pb, pc = entry_polys(a), entry_polys(b), entry_polys(c)
    assert from_entry_polys(a.shape, pa) == a
    rc, cc = c.shape
    cases = [
        (a + b, a.shape, [[x + y for x, y in zip(r, t)] for r, t in zip(pa, pb)]),
        (a - b, a.shape, [[x - y for x, y in zip(r, t)] for r, t in zip(pa, pb)]),
        (a * q, a.shape, [[x * q for x in r] for r in pa]),
        (a.shift(u), a.shape, [[x.shift(u) for x in r] for r in pa]),
        (a.kron(c), (a.shape[0] * rc, a.shape[1] * cc),
         [[pa[i][j] * pc[k][l] for j in range(a.shape[1]) for l in range(cc)]
          for i in range(a.shape[0]) for k in range(rc)]),
    ]
    for got, shape, want in cases:
        assert got.shape == shape
        assert entry_polys(got) == want
        # trailing zero coefficients are stripped, so equal values are equal
        assert got == from_entry_polys(shape, want)
    assert ref_entries(a(u)) == [[x(u) for x in r] for r in pa]


def assert_canonical(p, want):
    """p holds the reference coefficients want, in its one canonical form:
    int numerators without a trailing zero over a positive int denominator
    sharing no prime with all of them, and () over 1 for zero."""
    assert p.coeffs == want
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.num)
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    assert p == Poly(want) and hash(p) == hash(Poly(want))


# coefficient tuples: zero, constants, negative leads, non-monic divisors
ref_polys = st.lists(fractions, max_size=5).map(ref_poly)


@st.composite
def common_factor_pairs(draw):
    """(g x, g y) for a drawn g of degree up to 2, so gcds are nontrivial."""
    g = draw(st.lists(fractions, min_size=1, max_size=3).map(ref_poly))
    return ref_mul(g, draw(ref_polys)), ref_mul(g, draw(ref_polys))


@settings(max_examples=200, deadline=None)
@given(ref_polys, ref_polys, common_factor_pairs(), fractions,
       st.lists(fractions, max_size=4))
@example((), (), ((), ()), Fraction(0), [])
@example((Fraction(-3, 4),), (Fraction(2),), ((Fraction(1, 3),), ()),
         Fraction(5, 2), [Fraction(0)])
@example((Fraction(1), Fraction(0), Fraction(-2, 3)),
         (Fraction(5, 7), Fraction(-6, 7)),
         ((Fraction(-2), Fraction(2)), (Fraction(3), Fraction(-3))),
         Fraction(-1, 10007), [Fraction(1, 2), Fraction(1, 2)])
def test_poly_matches_fraction_reference(a, b, pair, u, roots):
    pa, pb = Poly(a), Poly(b)
    assert_canonical(pa, a)
    assert_canonical(pa + pb, ref_add(a, b))
    assert_canonical(pa - pb, ref_add(a, tuple(-c for c in b)))
    assert_canonical(pa * pb, ref_mul(a, b))
    assert_canonical(pa * u, ref_mul(a, ref_poly([u])))
    assert_canonical(pa.shift(u), ref_shift(a, u))
    assert_canonical(pa.monic(), ref_monic(a))
    assert_canonical(Poly.from_roots(roots), ref_from_roots(roots))
    assert pa(u) == ref_eval(a, u)
    if b:
        q, r = pa.divmod(pb)
        want_q, want_r = ref_divmod(a, b)
        assert_canonical(q, want_q)
        assert_canonical(r, want_r)
    else:
        with pytest.raises(ZeroDivisionError):
            pa.divmod(pb)
    for x, y in ((a, b), pair):
        assert_canonical(poly_gcd(Poly(x), Poly(y)), ref_gcd(x, y))
        if y:
            got = ratfunc_normalize(Poly(x), Poly(y))
            for p, want in zip(got, ref_normalize(x, y)):
                assert_canonical(p, want)
