"""Tests for swap intertwiners, their scalars, kernels and quotients."""

import random
from fractions import Fraction

import pytest

from yangian.intertwine import (
    Intertwiner,
    _column,
    _cyclic_span,
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
from yangian.linalg import RatMatrix
from yangian.modules import (
    ModuleParams,
    dual_evaluation_module,
    evaluation_module,
    fock_module,
    omega_module,
    omega_prime_module,
    pattern_module,
    prime_form,
    source_pattern,
    tensor_module,
    trivial_module,
)


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
            a, b = src.num[i][j], tgt.num[i][j]
            for k in range(max(a.degree, b.degree) + 1):
                assert mat * a.coeff(k) == b.coeff(k) * mat
    # generic swap is invertible
    mat.inverse()


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
    # a mid-word step carries its own single-inversion closed form
    mid = check_hw_image(second, params)
    assert mid.ok
    assert [z.eta for z in mid.factors] == [(0, 2)]


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


def test_kernel_invariance_guard():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    mod = pattern_module(params, source_pattern(params))
    # a random non-intertwiner with nontrivial kernel must be rejected
    bad = RatMatrix([[1 if (r, c) == (0, 0) else 0 for c in range(mod.dim)]
                     for r in range(mod.dim)])
    fake = Intertwiner(source=mod, target=mod, matrix=bad,
                       hw_scalar=None, word=())
    with pytest.raises(ValueError, match="not stable"):
        kernel_quotient(fake)


def test_invertible_non_intertwiner_rejected():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    mod = pattern_module(params, source_pattern(params))
    # zero kernel, so the quotient is the source itself, but I + N does not
    # commute with the action and so cannot certify it
    shear = RatMatrix([[int(c in (r, r + 1)) for c in range(mod.dim)]
                       for r in range(mod.dim)])
    fake = Intertwiner(source=mod, target=mod, matrix=shear,
                       hw_scalar=None, word=())
    with pytest.raises(ValueError, match="not isomorphic"):
        kernel_quotient(fake)


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
    """One vector at a time breadth-first search, replaying words on carried."""
    kept, words, queue = [], [], []
    if any(start):
        kept, words, queue = [list(start)], [()], [((), list(start))]
    qi = 0
    while qi < len(queue) and len(kept) < len(start):
        word, v = queue[qi]
        qi += 1
        for idx, (g, _) in enumerate(gens):
            w = g.apply(v)
            if RatMatrix(kept + [w]).rank() > len(kept):
                kept.append(w)
                words.append(word + (idx,))
                queue.append((word + (idx,), w))
                if len(kept) == len(start):
                    break
    replayed = []
    for word in words:
        v = list(carried)
        for idx in word:
            v = gens[idx][1].apply(v)
        replayed.append(v)
    return kept, replayed


def test_cyclic_span_matches_one_vector_search():
    rng = random.Random(20261018)
    for _ in range(40):
        dim = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(0, 3)):
            # sparse integer matrices, so that some spans stay proper
            pair = [RatMatrix([[rng.choice((0, 0, 0, 1, -2)) for _ in range(dim)]
                               for _ in range(dim)]) for _ in range(2)]
            gens.append(tuple(pair))
        start = [rng.choice((0, 1, Fraction(1, 3))) for _ in range(dim)]
        carried = [rng.randint(-3, 3) for _ in range(dim)]
        kept, replayed = reference_span(gens, start, carried)
        got, got_carried = _cyclic_span(gens, (_column(start), _column(carried)))
        assert got.ncols == len(kept)
        assert [got[:, [c]] for c in range(got.ncols)] == [_column(v) for v in kept]
        assert [got_carried[:, [c]] for c in range(got.ncols)] == \
            [_column(v) for v in replayed]


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
