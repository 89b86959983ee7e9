"""Tests for swap intertwiners, their scalars, kernels and quotients."""

import math
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from yangian import intertwine, linalg
from yangian.fock import block_dim
from yangian.intertwine import (
    Intertwiner,
    _cyclic_span,
    _swap_pair,
    NonGenericStepError,
    ResonanceError,
    check_hw_image,
    compose_word,
    hom_intertwiner,
    hom_space,
    inversion_set,
    irreducibility_test,
    is_reduced_word,
    kernel_quotient,
    modules_isomorphic,
    step,
    word_permutation,
    zeta_factor,
    zeta_factors_for_word,
    zeta_product,
)
from yangian.linalg import RatMatrix, _ratmatrix, int_matmul, poly_gcd
from yangian.modules import (
    ModuleParams,
    YangianModule,
    coefficient_pairs,
    distinguished_vector,
    dual_evaluation_module,
    evaluation_module,
    fock_module,
    omega_module,
    omega_prime_module,
    pattern_module,
    permute_pattern,
    prime_form,
    source_pattern,
    tensor_module,
    trivial_module,
)

import reference
from reference import (coefficient, column, entry_matpoly,
                       whole_denominator_hom_space)


def params_for(theta, n, p, q, nu, mu_ints):
    """Generic parameters: integer offsets plus distinct sevenths."""
    m = p + q
    mu = [Fraction(mu_ints[b]) + Fraction(b + 1, 7) for b in range(m)]
    return ModuleParams(theta, n, p, q, mu, nu)


# ---------------------------------------------------------------------------
# words


def test_word_helpers():
    sigma = word_permutation(3, (1, 2, 1))
    assert sigma == [2, 1, 0]
    assert inversion_set(sigma) == [(0, 1), (0, 2), (1, 2)]
    assert is_reduced_word(3, (1, 2, 1))
    assert is_reduced_word(3, (2, 1, 2))
    assert not is_reduced_word(3, (1, 1))
    assert word_permutation(2, ()) == [0, 1]
    with pytest.raises(ValueError):
        word_permutation(3, (3,))


# ---------------------------------------------------------------------------
# elementary steps against the closed forms


STEP_CASES = [
    # theta, n, p, q, nu  (covers all four commuting cases and the
    # anticommuting case split on both sides)
    (1, 2, 0, 2, (2, 1)),        # both plain
    (1, 3, 2, 0, (2, 1)),        # both tilde
    (1, 1, 1, 1, (2, 3)),        # mixed, rank one: nontrivial fraction
    (1, 2, 1, 1, (2, 1)),        # mixed, higher rank: scalar 1
    (-1, 2, 0, 2, (1, 2)),       # plain, complemented degrees ascending
    (-1, 2, 0, 2, (2, 1)),       # plain, other branch (scalar 1)
    (-1, 3, 2, 0, (3, 1)),       # tilde pair
    (-1, 2, 1, 1, (2, 1)),       # mixed, s + t > n
    (-1, 2, 1, 1, (1, 1)),       # mixed, odd-odd degrees: reordering sign
]


@pytest.mark.parametrize("theta,n,p,q,nu", STEP_CASES)
def test_elementary_step_matches_closed_form(theta, n, p, q, nu):
    params = params_for(theta, n, p, q, nu, [0, 2])
    intw = step(params, 1)
    report = check_hw_image(intw, params)
    assert report.ok
    zeta = zeta_factor(params, (0, 1))
    assert report.computed == zeta.value
    # the step's normalization fraction coincides with the closed form
    assert intw.hw_scalar == zeta.value
    assert report.closed_form == zeta.value


def test_step_is_exact_module_map():
    params = params_for(1, 2, 1, 1, (2, 2), [1, -1])
    intw = step(params, 1)
    src, tgt, mat = intw.source, intw.target, intw.matrix
    assert src.den == tgt.den
    for i in range(src.n):
        for j in range(src.n):
            for k in range(src.den.degree + 1):
                assert mat * coefficient(src, i, j, k) == \
                    coefficient(tgt, i, j, k) * mat
    # generic swap is invertible
    mat.inverse()


def test_step_names_the_failing_identity_of_a_tampered_source(monkeypatch):
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    factors = source_pattern(params)
    src = pattern_module(params, factors)
    num = src.num.copy()
    num[0, 1, 0, 0, 0] += src.scale   # P_01(u) + E_00
    tampered = YangianModule(src.den, num, src.scale)
    # the certificate runs on the modules pattern_module returns, so a
    # tampered source fails it even though every pair check passes
    monkeypatch.setattr(
        intertwine, "pattern_module",
        lambda p, fs: tampered if list(fs) == factors else pattern_module(p, fs))
    with pytest.raises(NonGenericStepError,
                       match=r"fails the exact module identity at .* = \(0, 1, 0, 0, 0\)"):
        step(params, 1)


def test_step_rejects_bad_positions_and_unordered_factors():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    with pytest.raises(ValueError):
        step(params, 0)
    with pytest.raises(ValueError):
        step(params, 2)
    swapped = list(reversed(source_pattern(params)))
    with pytest.raises(ValueError, match="non-reduced"):
        step(params, 1, swapped)


def test_step_prime_form_gives_same_matrix():
    for theta in (1, -1):
        params = params_for(theta, 2, 2, 0, (2, 1), [0, 2])
        tilde = step(params, 1)
        prime = step(params, 1, prime_form(source_pattern(params)))
        assert prime.matrix == tilde.matrix
        assert prime.hw_scalar == tilde.hw_scalar
        report = check_hw_image(prime, params)
        assert report.ok


def test_step_resonant_parameters_refused():
    params = ModuleParams(1, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True)
    with pytest.raises(ResonanceError, match="resonant parameters"):
        step(params, 1)


def test_check_hw_image_rejects_scaled_and_non_proportional_images():
    params = params_for(1, 2, 1, 1, (1, 2), [0, 2])
    intw = step(params, 1)
    closed = check_hw_image(intw, params).closed_form
    scaled = check_hw_image(replace(intw, matrix=intw.matrix * 2), params)
    assert not scaled.ok and scaled.computed == 2 * closed
    # one more entry in the column of the source distinguished vector,
    # in a row where the target distinguished vector is zero
    v_src = distinguished_vector(params, intw.source_factors)
    v_tgt = distinguished_vector(params, intw.target_factors)
    s = next(i for i in range(v_src.nrows) if v_src[i, 0])
    r = next(i for i in range(v_tgt.nrows) if not v_tgt[i, 0])
    dim = intw.matrix.nrows
    bump = RatMatrix([[int((i, j) == (r, s)) for j in range(dim)]
                      for i in range(dim)])
    tampered = check_hw_image(replace(intw, matrix=intw.matrix + bump), params)
    assert not tampered.ok and tampered.computed is None


# ---------------------------------------------------------------------------
# word composition


def test_empty_word_is_identity():
    params = params_for(1, 2, 1, 1, (1, 2), [0, 2])
    intw = compose_word(params, ())
    assert intw.matrix == RatMatrix.identity(intw.source.dim)
    assert intw.hw_scalar == 1
    report = check_hw_image(intw, params)
    assert report.ok and report.closed_form == 1


def test_compose_word_rejects_non_reduced():
    params = params_for(1, 2, 1, 2, (1, 1, 1), [0, 2, -2])
    with pytest.raises(ValueError, match="non-reduced"):
        compose_word(params, (1, 1))
    with pytest.raises(ValueError, match="non-reduced"):
        compose_word(params, (1, 2, 1, 2))


def test_composition_is_stepwise_product():
    params = params_for(1, 2, 1, 2, (1, 1, 2), [0, 2, -2])
    whole = compose_word(params, (1, 2))
    first = step(params, 1)
    second = step(params, 2, first.target_factors)
    assert whole.matrix == second.matrix * first.matrix
    assert whole.hw_scalar == first.hw_scalar * second.hw_scalar
    assert whole.target_factors == second.target_factors
    # a mid-word step carries its own single-inversion closed form
    mid = check_hw_image(second, params)
    assert mid.ok
    assert [z.eta for z in mid.factors] == [(0, 2)]


@pytest.mark.parametrize("word", [(), (1,), (1, 2), (1, 2, 1)])
def test_word_builds_two_pattern_modules_and_one_certificate(monkeypatch, word):
    params = params_for(1, 2, 1, 2, (1, 1, 2), [0, 2, -2])
    built, certified = [], []
    verify = intertwine._verify_intertwiner
    monkeypatch.setattr(intertwine, "pattern_module",
                        lambda *args: built.append(args) or pattern_module(*args))
    monkeypatch.setattr(intertwine, "_verify_intertwiner",
                        lambda *args: certified.append(args) or verify(*args))
    intw = compose_word(params, word)
    assert len(built) == 2 and len(certified) == 1
    # the one certificate is on the returned map and its own modules
    mat, src, tgt = certified[0]
    assert mat is intw.matrix and src is intw.source and tgt is intw.target


LONGEST_CASES = [
    (1, 1, (1, 2, 1)),
    (1, 2, (2, 1, 1)),
    (-1, 2, (1, 2, 1)),
    (-1, 1, (2, 1, 2)),
]


@pytest.mark.parametrize("theta,p,nu", LONGEST_CASES)
def test_longest_element_scalar_is_zeta_product(theta, p, nu):
    params = params_for(theta, 2, p, 3 - p, nu, [0, 2, -2])
    intw = compose_word(params, (1, 2, 1))
    assert intw.hw_scalar == zeta_product(params, (1, 2, 1))
    report = check_hw_image(intw, params)
    assert report.ok
    assert len(report.factors) == 3
    assert sorted(z.eta for z in report.factors) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("theta,p", [(1, 0), (1, 2), (-1, 1), (-1, 3)])
def test_braid_relation(theta, p):
    nu = (1, 1, 1) if theta == -1 else (2, 1, 1)
    params = params_for(theta, 2, p, 3 - p, nu, [0, 2, -2])
    left = compose_word(params, (1, 2, 1))
    right = compose_word(params, (2, 1, 2))
    assert left.matrix == right.matrix
    assert left.hw_scalar == right.hw_scalar
    assert left.target_factors == right.target_factors


def _pair_dims_fit(theta, n, nu):
    """Whether every two factors make a pair module of dim at most 12, so
    each letter's reference hom space has at most 144 unknowns."""
    dims = sorted(block_dim(theta, n, d) for d in nu)
    return dims[-1] * dims[-2] <= 12


@st.composite
def swap_words(draw):
    """Generic patterns and a random reduced word: three factors of small
    degree at n = 2 or 3, or four degree-1 factors at n = 2, mu = a / 7."""
    theta = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        n, nu = 2, (1, 1, 1, 1)
    else:
        n = draw(st.sampled_from((2, 3)))
        top = n if theta == -1 else (3 if n == 2 else 1)
        nu = tuple(draw(st.lists(st.integers(1, top), min_size=3, max_size=3)
                        .filter(lambda nu: _pair_dims_fit(theta, n, nu))))
    m = len(nu)
    p = draw(st.integers(0, m))
    # distinct residues mod 7 keep every difference of mu non-integral
    residues = draw(st.permutations(range(1, 7)))[:m]
    mu = [Fraction(7 * draw(st.integers(-2, 2)) + r, 7) for r in residues]
    params = ModuleParams(theta, n, p, m - p, mu, nu)
    # a reduced word for a random permutation: each letter swaps two
    # adjacent factors that the permutation puts in the other order
    slot = draw(st.permutations(range(m)))
    order, word = list(range(m)), []
    while True:
        swaps = [a for a in range(1, m) if slot[order[a - 1]] > slot[order[a]]]
        if not swaps:
            return params, tuple(word)
        a = draw(st.sampled_from(swaps))
        order[a - 1], order[a] = order[a], order[a - 1]
        word.append(a)


@settings(max_examples=40, deadline=None)
@given(swap_words())
# the largest pairs (dim 12 and dim 9) and an odd-odd reordering sign
@example((ModuleParams(1, 2, 1, 2, [Fraction(1, 7), Fraction(-3, 7),
                                    Fraction(12, 7)], (3, 2, 1)), (1, 2, 1)))
@example((ModuleParams(-1, 3, 2, 1, [Fraction(2, 7), Fraction(-8, 7),
                                     Fraction(4, 7)], (1, 3, 1)), (2, 1, 2)))
# four factors of block dims 2, 3, 2, 2: the letters group the rows as
# (left, pair, rest) = (2, 6, 2), (4, 6, 1), (1, 4, 6) and (2, 4, 3)
@example((ModuleParams(1, 2, 2, 2, [Fraction(1, 7), Fraction(3, 7),
                                    Fraction(-2, 7), Fraction(9, 7)],
                       (1, 2, 1, 1)), (2, 3, 1, 2)))
def test_compose_word_matches_hom_space_reference(case):
    params, word = case
    intw = compose_word(params, word)
    assert intw.matrix == reference.swap_word_matrix(params, word)
    assert intw.hw_scalar == zeta_product(params, word)


def test_random_configurations_match_closed_forms():
    rng = random.Random(20260813)
    for _ in range(6):
        theta = rng.choice((1, -1))
        m = rng.choice((2, 3))
        p = rng.randrange(m + 1)
        n = 2
        cap = 2 if theta == 1 else n
        nu = tuple(rng.randint(1, cap) for _ in range(m))
        ints = rng.sample(range(-4, 5), m)
        params = params_for(theta, n, p, m - p, nu, ints)
        word = (1,) if m == 2 else (1, 2, 1)
        intw = compose_word(params, word)
        report = check_hw_image(intw, params)
        assert report.ok, (theta, p, nu, ints)
        assert intw.hw_scalar == zeta_product(params, word)


# ---------------------------------------------------------------------------
# hom spaces and isomorphisms


def test_hom_space_examples():
    z = Fraction(1, 2)
    v = evaluation_module(2, z)
    assert len(hom_space(v, v)) == 1
    assert len(hom_space(v, dual_evaluation_module(2, z))) == 0
    one = fock_module(1, 2, "plain", Fraction(1, 5), 1)
    two = fock_module(1, 2, "plain", Fraction(4, 3), 2)
    assert len(hom_space(tensor_module(one, two), tensor_module(two, one))) == 1


def test_hom_intertwiner_requires_dimension_one():
    v = evaluation_module(2, Fraction(1, 2))
    with pytest.raises(NonGenericStepError):
        hom_intertwiner(v, dual_evaluation_module(2, Fraction(1, 2)))
    intw = hom_intertwiner(v, v)
    assert intw.matrix * Fraction(1, intw.matrix[0, 0]) == RatMatrix.identity(2)


def test_modules_isomorphic_examples():
    z = Fraction(2, 3)
    v = evaluation_module(2, z)
    self_iso = modules_isomorphic(v, v)
    assert self_iso is not None
    # one-block tilde component agrees with a scalar times the prime one
    for theta in (1, -1):
        n, deg = 2, 2
        tilde = fock_module(theta, n, "tilde", z, deg)
        omega = omega_prime_module(n, z) if theta == 1 else omega_module(n, -z)
        prime = fock_module(theta, n, "prime", z, deg)
        prod = tensor_module(omega, prime)
        assert tilde.equal_entrywise(prod)
        assert modules_isomorphic(tilde, prod) is not None
    # scalar factors commute with anything (flip map)
    omega = omega_module(2, Fraction(7, 5))
    left = tensor_module(omega, v)
    right = tensor_module(v, omega)
    assert modules_isomorphic(left, right) is not None
    # genuinely different modules
    assert modules_isomorphic(v, dual_evaluation_module(2, z)) is None


def test_modules_isomorphic_raises_when_undecided():
    # End(C^2 (x) V) is M_2 (x) End(V): its canonical basis has four
    # elements of rank 2 and no invertible one, though the identity is a
    # module map
    c = tensor_module(trivial_module(2, 2), evaluation_module(2, Fraction(1, 3)))
    with pytest.raises(ValueError, match="4-dimensional hom space"):
        modules_isomorphic(c, c)


PARAMS = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4, 3)])


@st.composite
def atom_modules(draw, n):
    """An evaluation, dual, Fock or Omega-twisted Fock module of rank n."""
    kind = draw(st.sampled_from(("eval", "dual", "plain", "tilde", "prime")))
    z = draw(PARAMS)
    if kind == "eval":
        return evaluation_module(n, z)
    if kind == "dual":
        return dual_evaluation_module(n, z)
    mod = fock_module(draw(st.sampled_from((1, -1))), n, kind, z,
                      draw(st.integers(1, n)))
    if draw(st.booleans()):
        omega = draw(st.sampled_from((omega_module, omega_prime_module)))(n, draw(PARAMS))
        mod = tensor_module(omega, mod) if draw(st.booleans()) else tensor_module(mod, omega)
    return mod


@st.composite
def module_pairs(draw):
    """Pairs with equal, coprime and partly shared denominators, d1 d2 <= 36.

    Besides independent draws: a tensor product and itself, a swapped
    tensor pair, a tilde block against the Omega-twisted prime block with
    its action, and a module against copies of itself.
    """
    n = draw(st.integers(1, 2))
    how = draw(st.sampled_from(("independent", "self", "swap", "twist", "copies")))
    if how == "twist":
        theta, z, deg = draw(st.sampled_from((1, -1))), draw(PARAMS), draw(st.integers(1, n))
        omega = omega_prime_module(n, z) if theta == 1 else omega_module(n, -z)
        pair = [fock_module(theta, n, "tilde", z, deg),
                tensor_module(omega, fock_module(theta, n, "prime", z, deg))]
        return pair if draw(st.booleans()) else pair[::-1]
    a, b = draw(atom_modules(n)), draw(atom_modules(n))
    if how == "copies":
        # k copies of a (of dimension at most 3): hom spaces of dimension k, k^2
        k = draw(st.integers(2, min(3, 6 // a.dim)))
        copies = tensor_module(trivial_module(n, k), a)
        return draw(st.sampled_from(((a, copies), (copies, a), (copies, copies))))
    if how == "independent" or a.dim * b.dim > 6:
        return a, b
    if how == "self":
        return tensor_module(a, b), tensor_module(a, b)
    return tensor_module(a, b), tensor_module(b, a)


def rescaled_evaluation():
    """The evaluation module at z = 0 conjugated by diag(1, 3): E_01
    becomes E_01 / 3, so its scale is 3 while the original's is 1."""
    mod = evaluation_module(2, 0)
    three = np.diag([1, 3]).astype(object)
    return YangianModule(mod.den, three @ mod.num @ three[::-1, ::-1], 3)


@settings(max_examples=60, deadline=None)
@given(module_pairs())
@example((evaluation_module(2, 0), rescaled_evaluation()))
@example((rescaled_evaluation(), evaluation_module(2, 0)))
def test_coefficient_pairs_match_whole_denominator_reference(pair):
    m1, m2 = pair
    g = poly_gcd(m1.den, m2.den)
    want = {}
    for i in range(m1.n):
        for j in range(m1.n):
            q1 = entry_matpoly(m1, i, j) * (m2.den // g)
            q2 = entry_matpoly(m2, i, j) * (m1.den // g)
            for k in range(max(q1.degree, q2.degree) + 1):
                if not (q1.coeff(k).is_zero() and q2.coeff(k).is_zero()):
                    want[i, j, k] = q1.coeff(k), q2.coeff(k)
    # the nonzero pairs in (i, j, k) order, as stacks of integer matrices
    # times one positive factor common to all of them
    keys, bs, cs = coefficient_pairs(m1, m2)
    assert [tuple(key) for key in keys.tolist()] == sorted(want)
    assert bs.shape == (len(keys), m1.dim, m1.dim)
    assert cs.shape == (len(keys), m2.dim, m2.dim)
    assert all(type(x) is int for x in (*bs.flat, *cs.flat))
    factors = set()
    for key, b, c in zip(keys.tolist(), bs, cs):
        b, c = _ratmatrix(b, 1), _ratmatrix(c, 1)
        rb, rc = want[tuple(key)]
        ref, got = (rb, b) if not rb.is_zero() else (rc, c)
        r, s = next((r, s) for r in range(ref.nrows) for s in range(ref.ncols)
                    if ref[r, s])
        factor = got[r, s] / ref[r, s]
        assert factor > 0
        assert (b, c) == (rb * factor, rc * factor)
        factors.add(factor)
    assert len(factors) <= 1
    basis = hom_space(m1, m2)
    assert basis == whole_denominator_hom_space(m1, m2)
    assert all(intertwine._verify_intertwiner(a, m1, m2) is None for a in basis)
    same = (m1.n, m1.dim) == (m2.n, m2.dim) and all(
        m1.entry_ratfunc(i, j, r, s) == m2.entry_ratfunc(i, j, r, s)
        for i in range(m1.n) for j in range(m1.n)
        for r in range(m1.dim) for s in range(m1.dim))
    assert m1.equal_entrywise(m2) == same


def conjugated(mod, s, s_inv):
    """The module S T(u) S^-1, for an integer S with integer inverse."""
    return YangianModule(mod.den, s @ mod.num @ s_inv, mod.scale)


def rescaled(mod, big):
    """mod conjugated by diag(1, big, ..., big): its (r, 0) entries, r > 0,
    grow by the factor big, which for big = 2^62 puts the coefficient pairs
    past the float64 bound (2^53) of the defect products."""
    rest = [big] * (mod.dim - 1)
    s = np.diag(np.array([1] + rest, dtype=object))
    # big diag(1, big, ...)^-1, so the scale takes the factor big
    s_inv = np.diag(np.array([big] + [1] * len(rest), dtype=object))
    return YangianModule(mod.den, s @ mod.num @ s_inv, mod.scale * big)


@st.composite
def hom_pairs(draw):
    """module_pairs with either side possibly conjugated by a random
    unimodular matrix (so only its leading coefficient stays diagonal and
    no entry of A is graded away) or by diag(1, 2^62, ...)."""
    out = []
    for mod in draw(module_pairs()):
        how = draw(st.sampled_from(("as drawn", "unimodular", "large")))
        if how == "unimodular":
            s, inv = unimodular(random.Random(draw(st.integers(0, 2 ** 32))),
                                mod.dim)
            mod = conjugated(mod, s.data, inv.data)
        elif how == "large" and mod.dim > 1:
            mod = rescaled(mod, 2 ** 62)
        out.append(mod)
    return tuple(out)


def _bench_kernel_quotient_pair():
    """Source and target of the dim-8 kernel-quotient in the benchmark's
    intertwine-chain workload: theta = 1, n = 2, degrees (1, 1, 1)."""
    params = params_for(1, 2, 1, 2, (1, 1, 1), [0, 1, -1])
    factors = source_pattern(params)
    return (pattern_module(params, factors),
            pattern_module(params, permute_pattern(
                factors, intertwine.word_permutation(3, (1, 2, 1)))))


_TWISTED = np.array([[1, 2], [0, 1]], dtype=object)
_UNTWISTED = np.array([[1, -2], [0, 1]], dtype=object)
# [[1 + k j, k], [j, 1]] and its inverse, k = 12345, j = 6789
_UNIMODULAR_BIG = np.array([[83810206, 12345], [6789, 1]], dtype=object)
_UNIMODULAR_BIG_INV = np.array([[1, -12345], [-6789, 83810206]], dtype=object)


@settings(max_examples=60, deadline=None)
@given(hom_pairs())
@example(_bench_kernel_quotient_pair())
# every unknown kept: the twisted module's u^0 coefficients are not diagonal
@example((conjugated(evaluation_module(2, 0), _TWISTED, _UNTWISTED),
          evaluation_module(2, 0)))
# a one-dimensional side has no off-diagonal entries to test
@example((omega_module(2, Fraction(1, 3)), evaluation_module(2, Fraction(1, 3))))
@example((omega_module(2, Fraction(1, 3)), omega_module(2, Fraction(1, 3))))
# C has entries near 2^53 and B small ones: the rows' product with the
# span leaves float64 through the entries of C alone
@example((evaluation_module(2, 0),
          conjugated(evaluation_module(2, 0), _UNIMODULAR_BIG,
                     _UNIMODULAR_BIG_INV)))
def test_hom_space_matches_the_whole_denominator_reference(pair):
    # one pair per chunk and the default chunk: the span is canonical
    # however the pairs are split
    m1, m2 = pair
    want = whole_denominator_hom_space(m1, m2)
    for chunk in (1, intertwine._DEFECT_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intertwine, "_DEFECT_CHUNK", chunk)
            assert hom_space(m1, m2) == want


def _certificate_candidates(m1, m2, spot):
    """The hom-space basis maps, the shear I + N (rectangular when the
    dimensions differ) and every one of them with the entry (0, 0) and
    the entry at spot bumped by one."""
    d1, d2 = m1.dim, m2.dim
    shear = RatMatrix([[int(c in (r, r + 1)) for c in range(d1)]
                       for r in range(d2)])
    out = [*hom_space(m1, m2), shear]
    for mat in list(out):
        for r, s in ((0, 0), (spot % d2, spot // d2 % d1)):
            bumped = mat.data.copy()
            bumped[r, s] += mat.den
            out.append(_ratmatrix(bumped, mat.den))
    return out


@settings(max_examples=40, deadline=None)
@given(hom_pairs(), st.integers(0, 2 ** 16))
@example((evaluation_module(2, 0), evaluation_module(2, 0)), 0)
@example(_bench_kernel_quotient_pair(), 11)
@example((rescaled(evaluation_module(3, 0), 2 ** 62),
          rescaled(evaluation_module(3, 0), 2 ** 62)), 5)
# the shear's product bound max(2 max|A| max|B|, 2 max|C| max|A|) is 2^53,
# just past one float64 piece, against the dual and the evaluation module
# at z = 2^52 - 1
@example((evaluation_module(2, 0), dual_evaluation_module(2, 2 ** 52 - 1)), 1)
@example((evaluation_module(2, 0), evaluation_module(2, 2 ** 52 - 1)), 1)
# the map S onto S T(u) S^-1, S = _UNIMODULAR_BIG: 2 max|A| max|B| stays
# under 2^28, but C has entries near 2^53, so only the C term of the
# product bound (near 2^80) keeps C S off one float64 piece, where rounding
# gives the intertwiner S a nonzero defect
@example((evaluation_module(2, 0),
          conjugated(evaluation_module(2, 0), _UNIMODULAR_BIG,
                     _UNIMODULAR_BIG_INV)), 3)
# the hom-space map has an entry 2^1100, past float64's range
@example((rescaled(evaluation_module(2, 0), 2 ** 1100), evaluation_module(2, 0)),
         2)
def test_certificate_matches_the_two_product_reference(pair, spot):
    # one pair per chunk and the default chunk: the first failing pair is
    # the same however the pairs are split
    m1, m2 = pair
    cands = _certificate_candidates(m1, m2, spot)
    want = [reference.verify_intertwiner(mat, m1, m2) for mat in cands]
    for chunk in (1, intertwine._DEFECT_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intertwine, "_DEFECT_CHUNK", chunk)
            got = [intertwine._verify_intertwiner(mat, m1, m2)
                   for mat in cands]
        assert got == want


def test_certificate_past_float64_matches_the_python_int_loop(monkeypatch):
    # the swap of the certificate-past-float64 golden has an 85-bit map, so
    # the certificate runs on residue primes; a tampered entry fails at the
    # witness of the Python-int loop over the two products
    params = ModuleParams(1, 2, 1, 1, [Fraction(1, 10007),
                                       Fraction(2, 10009)], [3, 3])
    intw = compose_word(params, (1,))
    src, tgt, mat = intw.source, intw.target, intw.matrix
    assert max(abs(x) for x in mat.data.flat).bit_length() >= 64
    tests = []

    def recorded(*bounds):
        tests.append(linalg.ZeroTest(*bounds))
        return tests[-1]

    monkeypatch.setattr(intertwine, "ZeroTest", recorded)
    assert intertwine._verify_intertwiner(mat, src, tgt) is None
    assert len(tests[0].moduli) > 1
    for spot, delta in ((0, 1), (37, -1), (255, 2 ** 70)):
        data = mat.data.copy()
        data.flat[spot] += delta
        bad = _ratmatrix(data, mat.den)
        want = reference.two_product_loop(bad, src, tgt)
        assert want is not None
        assert intertwine._verify_intertwiner(bad, src, tgt) == want


def test_grading_that_leaves_no_unknowns_returns_at_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("a defect was formed with no unknowns left")

    monkeypatch.setattr(intertwine, "int_matmul", refuse)
    monkeypatch.setattr(intertwine, "_modular_rref", refuse)
    m1, m2 = evaluation_module(2, 0), evaluation_module(2, 1)
    assert hom_space(m1, m2) == [] == whole_denominator_hom_space(m1, m2)


@pytest.mark.parametrize("chunk", [1, intertwine._DEFECT_CHUNK])
def test_hom_space_eliminates_once_per_chunk_with_nonzero_rows(
        monkeypatch, chunk):
    # each chunk's rows are multiplied into the span once and only a
    # nonzero product is eliminated, for the canonical nullspace that
    # restricts the span; no elimination runs after the loop
    m1, m2 = _bench_kernel_quotient_pair()
    want = whole_denominator_hom_space(m1, m2)
    widths, products, eliminated = [], [], []

    def product(a, b):
        widths.append(a.shape[1])
        products.append(int_matmul(a, b))
        return products[-1]

    def elimination(ints):
        eliminated.append(ints)
        return modular_rref(ints)

    modular_rref = linalg._modular_rref
    monkeypatch.setattr(intertwine, "_DEFECT_CHUNK", chunk)
    monkeypatch.setattr(intertwine, "int_matmul", product)
    # every elimination, in intertwine or behind RatMatrix.rref and nullspace
    monkeypatch.setattr(intertwine, "_modular_rref", elimination)
    monkeypatch.setattr(linalg, "_modular_rref", elimination)
    assert hom_space(m1, m2) == want
    _, bs, cs = coefficient_pairs(m1, m2)
    off_diagonal = sum((b != np.diag(np.diagonal(b))).any()
                       or (c != np.diag(np.diagonal(c))).any()
                       for b, c in zip(bs, cs))
    # one product per chunk of pairs, on the rows over the graded unknowns
    per = max(1, chunk // (m1.dim * m2.dim * widths[0]))
    assert len(products) == -(-off_diagonal // per)
    nonzero = [x for x in products if x.any()]
    assert len(eliminated) == len(nonzero) >= 1
    assert all(x is y for x, y in zip(eliminated, nonzero))


def test_large_entries_take_the_object_path(monkeypatch):
    # for m1 rescaled by big the rows of hom_space's one chunk have entries
    # up to big^2 on 2 unknowns, and the start span is the identity, so
    # `int_matmul` forms their product in float64 exactly when 2 big^2 is
    # below 2^53: at big = 2^26 - 1, and on Python ints at big = 2^26
    operands = []

    def product(a, b):
        operands.append((a, b))
        return int_matmul(a, b)

    monkeypatch.setattr(intertwine, "int_matmul", product)
    for big in (2 ** 26 - 1, 2 ** 26):
        operands.clear()
        m1 = rescaled(evaluation_module(2, 0), big)
        m2 = evaluation_module(2, 0)
        basis = hom_space(m1, m2)
        assert len(basis) == 1 and basis == whole_denominator_hom_space(m1, m2)
        (rows, span), = operands
        bound = rows.shape[1] * np.abs(rows).max() * np.abs(span).max()
        assert (bound < 2 ** 53) == (big < 2 ** 26)


def test_hom_space_at_the_budget_edge_stays_small():
    # theta = 1, n = 2, degrees (1, 1, 1, 3): dim 32, 1024 unknowns, 196
    # after the diagonal pairs, just under HOM_SPACE_MAX_UNKNOWNS; one pair
    # per chunk peaks at 2.9 MB, and every pair's rows in one chunk at 26 MB
    params = params_for(1, 2, 1, 3, (1, 1, 1, 3), [0, 0, 0, 0])
    factors = source_pattern(params)
    src = pattern_module(params, factors)
    tgt = pattern_module(params, permute_pattern(
        factors, intertwine.word_permutation(4, (1, 2, 1, 3, 2, 1))))
    tracemalloc.start()
    try:
        basis = hom_space(src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 1
    assert intertwine._verify_intertwiner(basis[0], src, tgt) is None
    assert peak < 16 * 2 ** 20


def test_certificate_at_dim_81_stays_small():
    # theta = 1, n = 3, degrees (1, 1, 1, 1): 39 coefficient pairs of
    # 81 x 81 matrices; nine pairs per chunk peak at 6.7 MB, and every
    # pair in one batched product at 11.9 MB
    params = params_for(1, 3, 1, 3, (1, 1, 1, 1), [0, 0, 0, 0])
    intw = compose_word(params, (1,))
    tracemalloc.start()
    try:
        witness = intertwine._verify_intertwiner(intw.matrix, intw.source,
                                                 intw.target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak < 9 * 2 ** 20


# ---------------------------------------------------------------------------
# kernels, quotients, irreducibility


def test_generic_kernel_is_zero():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    intw = compose_word(params, (1,))
    quot = kernel_quotient(intw)
    assert quot.kernel_basis == ()
    assert quot.quotient.dim == intw.source.dim
    assert quot.quotient.equal_entrywise(intw.source)


@pytest.mark.parametrize("theta", [1, -1])
def test_degenerate_instance_kernel_and_quotient(theta):
    params = ModuleParams(theta, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True)
    diffs = params.lam_star[0] - params.lam_star[1]
    assert diffs == -1 and diffs.denominator == 1 and diffs < 0
    src = source_pattern(params)
    m1 = pattern_module(params, src)
    m2 = pattern_module(params, [src[1], src[0]])
    intw = hom_intertwiner(m1, m2)
    quot = kernel_quotient(intw)
    assert len(quot.kernel_basis) > 0
    assert quot.quotient.dim == m1.dim - len(quot.kernel_basis)
    verdict = irreducibility_test(quot.quotient)
    assert verdict.irreducible
    assert verdict.endo_dim == 1 and verdict.hw_dim == 1
    assert verdict.cyclic_dim == quot.quotient.dim


def test_kernel_quotient_eliminates_once(monkeypatch):
    params = ModuleParams(1, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True)
    src = source_pattern(params)
    intw = hom_intertwiner(pattern_module(params, src),
                           pattern_module(params, [src[1], src[0]]))
    rref, rows = linalg._modular_rref, []
    monkeypatch.setattr(linalg, "_modular_rref",
                        lambda m: rows.append(len(m)) or rref(m))
    quot = kernel_quotient(intw)
    assert rows == [intw.source.dim] and quot.kernel_basis


def test_kernel_invariance_guard():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    mod = pattern_module(params, source_pattern(params))
    # a random non-intertwiner with nontrivial kernel must be rejected
    bad = RatMatrix([[1 if (r, c) == (0, 0) else 0 for c in range(mod.dim)]
                     for r in range(mod.dim)])
    fake = Intertwiner(source=mod, target=mod, matrix=bad,
                       hw_scalar=None, word=())
    with pytest.raises(ValueError, match=r"not stable.*\(0, 1, 0\)"):
        kernel_quotient(fake)


def test_invertible_non_intertwiner_rejected():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    mod = pattern_module(params, source_pattern(params))
    z = Fraction(1, 3)
    tilde = fock_module(1, 2, "tilde", z, 2)
    # same action as the tilde block over the denominator (u + 1/3)(u - 2/3)
    prod = tensor_module(omega_prime_module(2, z), fock_module(1, 2, "prime", z, 2))
    assert tilde.den != prod.den
    for src, tgt in ((mod, mod), (tilde, prod)):
        # zero kernel, so the quotient is the source itself, but I + N does
        # not commute with the action and so cannot certify it
        shear = RatMatrix([[int(c in (r, r + 1)) for c in range(src.dim)]
                           for r in range(src.dim)])
        fake = Intertwiner(source=src, target=tgt, matrix=shear,
                           hw_scalar=None, word=())
        assert intertwine._verify_intertwiner(shear, src, tgt) == (0, 0, 0, 0, 1)
        with pytest.raises(ValueError, match=r"not isomorphic.*\(0, 0, 0, 0, 1\)"):
            kernel_quotient(fake)
        # the solver's map between the same modules is certified
        assert kernel_quotient(hom_intertwiner(src, tgt)).kernel_basis == ()


@pytest.mark.parametrize("theta", [1, -1])
def test_stable_kernel_with_non_intertwining_image_rejected(theta):
    params = ModuleParams(theta, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True)
    src = source_pattern(params)
    m1 = pattern_module(params, src)
    m2 = pattern_module(params, [src[1], src[0]])
    intw = hom_intertwiner(m1, m2)
    quot = kernel_quotient(intw)
    # an invertible S after the map keeps its kernel, and so its stability
    # and its quotient, but S A is no module map, so the certificate fails
    shear = RatMatrix([[int(c in (r, r + 1)) for c in range(m2.dim)]
                       for r in range(m2.dim)])
    fake = replace(intw, matrix=shear * intw.matrix)
    assert fake.matrix.nullspace() == intw.matrix.nullspace()
    assert quot.kernel_basis
    pivots = intw.matrix.rref()[1]
    witness = intertwine._verify_intertwiner(fake.matrix[:, pivots],
                                             quot.quotient, m2)
    assert witness is not None
    with pytest.raises(ValueError,
                       match=rf"not isomorphic.*{re.escape(str(witness))}"):
        kernel_quotient(fake)


@st.composite
def pattern_maps(draw):
    """Resonant two-factor patterns and small three-factor ones of either
    theta, at most 12-dimensional, a non-identity slot permutation, a pick
    among the hom-space basis maps, 144 signs for a tampering matrix and a
    factor for `rescaled` (1 keeps the modules as built)."""
    theta = draw(st.sampled_from([1, -1]))
    n = draw(st.integers(2, 3))
    m = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(0, m))
    top = n if theta == -1 else 2
    nu = draw(st.lists(st.integers(1, top), min_size=m, max_size=m))
    assume(math.prod(block_dim(theta, n, d) for d in nu) <= 12)
    if m == 2:
        base = Fraction(draw(st.integers(0, 6)), 7)
        mu = [base, base + draw(st.integers(-3, 3))]
    else:
        mu = [Fraction(draw(st.integers(0, 1)), 7) + draw(st.integers(-2, 2))
              for _ in range(m)]
    params = ModuleParams(theta, n, p, m - p, mu, nu, allow_resonant=True)
    # a resonant swap is where kernels appear; the identity has none
    perm = draw(st.permutations(range(m)).filter(lambda q: q != sorted(q)))
    signs = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1)),
                          min_size=144, max_size=144))
    return (params, tuple(perm), draw(st.integers(0, 3)), tuple(signs),
            draw(st.sampled_from((1, 2 ** 62))))


def _kernel_quotient_outcome(build, intw):
    try:
        return build(intw)
    except ValueError as exc:
        return str(exc)


_SIGNS = tuple((0, 1, 0, -1, 1)[i % 5] for i in range(144))


@settings(max_examples=30, deadline=None)
@given(pattern_maps())
# kernels of dimension 1, 8, 6 and 2
@example((ModuleParams(1, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True),
          (1, 0), 0, _SIGNS, 1))
@example((ModuleParams(-1, 3, 1, 1, [0, 2], [2, 2], allow_resonant=True),
          (1, 0), 0, _SIGNS, 1))
@example((ModuleParams(1, 2, 0, 3, [0, 0, 1], [1, 1, 1], allow_resonant=True),
          (2, 1, 0), 0, _SIGNS, 1))
@example((ModuleParams(1, 2, 0, 3, [0, 2, 0], [1, 1, 1], allow_resonant=True),
          (1, 0, 2), 0, _SIGNS, 1))
# past the float64 bound (2^53) of every product
@example((ModuleParams(1, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True),
          (1, 0), 0, _SIGNS, 2 ** 62))
def test_kernel_quotient_matches_adapted_basis_reference(case):
    params, perm, pick, signs, big = case
    factors = source_pattern(params)
    src = rescaled(pattern_module(params, factors), big)
    tgt = rescaled(pattern_module(params, permute_pattern(factors, perm)), big)
    basis = hom_space(src, tgt)
    assume(basis)
    mat = basis[pick % len(basis)]
    dim = src.dim
    tamper = RatMatrix(np.array(signs[:dim * dim]).reshape(dim, dim).tolist())
    for matrix in (mat, mat * tamper):
        intw = Intertwiner(source=src, target=tgt, matrix=matrix,
                           hw_scalar=None, word=())
        got = _kernel_quotient_outcome(kernel_quotient, intw)
        want = _kernel_quotient_outcome(reference.reference_kernel_quotient,
                                        intw)
        if isinstance(want, str):
            # the stability witness is the same; the certificate's depends
            # on the embedding's columns, but both refuse
            assert isinstance(got, str)
            if "not isomorphic" in want:
                assert "not isomorphic" in got
            else:
                assert got == want
            continue
        assert not isinstance(got, str), got
        assert got.kernel_basis == want.kernel_basis
        assert got.quotient.dim == want.quotient.dim
        assert modules_isomorphic(got.quotient, want.quotient) is not None


def test_zero_intertwiner_rejected():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    mod = pattern_module(params, source_pattern(params))
    zero = Intertwiner(source=mod, target=mod,
                       matrix=RatMatrix.zeros(mod.dim, mod.dim),
                       hw_scalar=None, word=())
    with pytest.raises(ValueError, match="zero"):
        kernel_quotient(zero)


def test_irreducibility_examples():
    assert irreducibility_test(evaluation_module(2, Fraction(3, 2))).irreducible
    assert irreducibility_test(fock_module(1, 2, "plain", Fraction(1, 3), 2)).irreducible
    generic = tensor_module(evaluation_module(2, 0),
                            evaluation_module(2, Fraction(1, 3)))
    assert irreducibility_test(generic).irreducible
    # resonant evaluation pair: reducible, seen through either kind of evidence
    first = irreducibility_test(tensor_module(evaluation_module(2, 0),
                                              evaluation_module(2, 1)))
    assert not first.irreducible and first.hw_dim == 2
    second = irreducibility_test(tensor_module(evaluation_module(2, 1),
                                               evaluation_module(2, 0)))
    assert not second.irreducible and second.cyclic_dim < second.dim
    # no coefficient generators at all: the span stops at the start vector
    trivial = irreducibility_test(trivial_module(2, 3))
    assert not trivial.irreducible and trivial.cyclic_dim == 1


def reference_span(gens, start, carried):
    """One column at a time breadth-first search, replaying words on carried."""
    kept, words, queue = [], [], []
    if not start.is_zero():
        kept, words, queue = [start], [()], [((), start)]
    qi = 0
    while qi < len(queue) and len(kept) < start.nrows:
        word, v = queue[qi]
        qi += 1
        for idx, (g, _) in enumerate(gens):
            w = g * v
            if RatMatrix.stack([kept + [w]]).rank() > len(kept):
                kept.append(w)
                words.append(word + (idx,))
                queue.append((word + (idx,), w))
                if len(kept) == start.nrows:
                    break
    replayed = []
    for word in words:
        v = carried
        for idx in word:
            v = gens[idx][1] * v
        replayed.append(v)
    return kept, replayed


def unimodular(rng, dim):
    """A random integer matrix of determinant 1 and its integer inverse."""
    s = RatMatrix.identity(dim)
    for _ in range(2 * dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        shear = np.eye(dim, dtype=np.int64).astype(object)
        shear[i, j] = rng.choice((-2, -1, 1, 2))
        s = _ratmatrix(shear, 1) * s
    inv = s.inverse()
    assert s.den == inv.den == 1
    return s, inv


def test_cyclic_span_is_the_rref_of_the_one_vector_search():
    rng = random.Random(20261019)
    for _ in range(60):
        dim = rng.randint(1, 5)
        gens = [RatMatrix([[rng.choice((0, 0, 0, 1, -2)) for _ in range(dim)]
                           for _ in range(dim)])
                for _ in range(rng.randint(0, 3))]
        start = column([rng.choice((0, 1, 3)) for _ in range(dim)])
        kept, _ = reference_span([(g, g) for g in gens], start, start)
        stack = np.array([g.data for g in gens], dtype=object
                         ).reshape(-1, dim, dim)
        red, pivots, d = _cyclic_span((stack,), (start.data[:, 0],))
        assert len(pivots) == len(red) == len(kept)
        if kept:
            want, want_pivots = RatMatrix.stack([kept]).transpose().rref()
            assert _ratmatrix(red, d) == want[:len(kept), :]
            assert pivots == want_pivots
        # side 1 is S . (side 0) under the conjugated generators: the span
        # is the graph of S, so its right block reads back S
        s, inv = unimodular(rng, dim)
        conj = np.array([(s * g * inv).data for g in gens], dtype=object
                        ).reshape(-1, dim, dim)
        red2, pivots2, d2 = _cyclic_span(
            (stack, conj), (start.data[:, 0], (s * start).data[:, 0]))
        assert pivots2 == pivots
        assert _ratmatrix(red2[:, :dim], d2) == _ratmatrix(red, d)
        assert (red2[:, dim:] == int_matmul(red2[:, :dim], s.data.T)).all()
        if len(pivots) == dim:
            assert _ratmatrix(red2[:, dim:].T, d2) == s


@pytest.mark.parametrize("theta,n,nu", [(1, 2, (3, 4)), (1, 3, (2, 1)),
                                        (-1, 3, (1, 2))])
def test_each_span_layer_eliminates_only_its_candidates(monkeypatch, theta,
                                                        n, nu):
    params = params_for(theta, n, 1, 1, nu, [0, 1])
    fa, fb = source_pattern(params)
    gens = len(reference.lowering_pairs(params, fa, fb)[0])
    rref, calls = intertwine._modular_rref, []

    def counted(m):
        out = rref(m)
        calls.append((m.shape, len(out[1])))
        return out

    def forbidden(*args):
        raise AssertionError("the pair map needs no stack and no inverse")

    monkeypatch.setattr(intertwine, "_modular_rref", counted)
    monkeypatch.setattr(RatMatrix, "inverse", forbidden)
    monkeypatch.setattr(RatMatrix, "stack", forbidden)
    mat, _ = _swap_pair(params, fa, fb)
    monkeypatch.undo()
    assert mat == reference.reference_swap_pair(params, fa, fb)[0]
    # the start row, then every generator on each row the last layer added
    dim = mat.nrows
    assert calls[0][0] == (1, 2 * dim)
    for (_, added), (shape, _) in zip(calls, calls[1:]):
        assert shape == (gens * added, 2 * dim)
    assert sum(added for _, added in calls) == dim


@st.composite
def generic_pairs(draw):
    """Generic two-factor parameters with small degrees, n = 2 or 3."""
    theta = draw(st.sampled_from((1, -1)))
    n = draw(st.integers(2, 3))
    top = (3 if n == 2 else 2) if theta == 1 else n
    nu = draw(st.lists(st.integers(0, top), min_size=2, max_size=2))
    p = draw(st.integers(0, 2))
    ints = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    return params_for(theta, n, p, 2 - p, nu, ints)


@settings(max_examples=30, deadline=None)
@given(generic_pairs())
# pair dim 64, where the inverse used to cost more than the span
@example(params_for(1, 2, 1, 1, (7, 7), [0, 1]))
def test_swap_pair_matches_the_kept_column_inverse(params):
    fa, fb = source_pattern(params)
    assert _swap_pair(params, fa, fb) == reference.reference_swap_pair(
        params, fa, fb)


def test_target_side_pivot_is_refused(monkeypatch):
    # an extra generator whose source matrix repeats the first lowering
    # coefficient and whose target matrix is the second: the hw checks
    # still pass, but no map sends the source vector to the target one
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    fa, fb = source_pattern(params)
    keys, bs, cs = reference.lowering_pairs(params, fa, fb)
    pairs = intertwine.coefficient_pairs

    def with_extra(m1, m2):
        got = pairs(m1, m2)
        return tuple(np.concatenate([x, extra[None]])
                     for x, extra in zip(got, (keys[0], bs[0], cs[1])))

    monkeypatch.setattr(intertwine, "coefficient_pairs", with_extra)
    with pytest.raises(NonGenericStepError, match="pivot on the target side"):
        _swap_pair(params, fa, fb)


# ---------------------------------------------------------------------------
# zeta factor bookkeeping


def test_zeta_factor_cases_and_errors():
    params = params_for(1, 2, 1, 1, (2, 1), [0, 2])
    assert zeta_factor(params, (0, 1)).case == "mixed"
    rank_one = params_for(1, 1, 1, 1, (2, 3), [0, 2])
    assert zeta_factor(rank_one, (0, 1)).case == "mixed-rank-one"
    plain = params_for(1, 2, 0, 2, (2, 1), [0, 2])
    assert zeta_factor(plain, (0, 1)).case == "both-plain"
    tilde = params_for(1, 2, 2, 0, (2, 1), [0, 2])
    assert zeta_factor(tilde, (0, 1)).case == "both-tilde"
    anti = params_for(-1, 2, 0, 2, (1, 2), [0, 2])
    assert zeta_factor(anti, (0, 1)).case == "swap"
    anti2 = params_for(-1, 2, 0, 2, (2, 1), [0, 2])
    assert zeta_factor(anti2, (0, 1)).case == "unit"
    assert zeta_factor(anti2, (0, 1)).value == 1
    with pytest.raises(ValueError):
        zeta_factor(params, (1, 0))
    resonant = ModuleParams(1, 2, 0, 2, [0, 2], [1, 1], allow_resonant=True)
    with pytest.raises(ResonanceError):
        zeta_factor(resonant, (0, 1))


def test_zeta_factors_for_word_cover_inversions():
    params = params_for(-1, 2, 1, 2, (1, 2, 1), [0, 2, -2])
    zetas = zeta_factors_for_word(params, (1, 2, 1))
    assert sorted(z.eta for z in zetas) == [(0, 1), (0, 2), (1, 2)]
    assert zeta_product(params, ()) == 1


def test_swap_budget_refuses_before_any_module_is_built(monkeypatch):
    # dim-256 pair, n = 2: work 256^3 * 2 over STEP_MAX_WORK
    params = ModuleParams(1, 2, 0, 2, [Fraction(1, 7), Fraction(3, 7)],
                          [15, 15])

    def built(*args, **kwargs):
        raise AssertionError("a module was built")

    for name in ("pattern_module", "factor_module", "tensor_module"):
        monkeypatch.setattr(intertwine, name, built)
    for swap in (lambda: step(params, 1), lambda: compose_word(params, [1])):
        with pytest.raises(ValueError, match="at n = 2: work 33554432, "
                                             "over the budget of 4000000"):
            swap()
