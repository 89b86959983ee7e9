"""Tests for swap intertwiners, their scalars, kernels and quotients."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yangian import intertwine
from yangian.intertwine import (
    Intertwiner,
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
from yangian.linalg import RatMatrix, poly_gcd
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
    prime_form,
    source_pattern,
    tensor_module,
    trivial_module,
)

from reference import coefficient, column, entry_matpoly


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


def test_step_names_the_failing_identity_of_a_tampered_source():
    params = params_for(1, 2, 0, 2, (1, 1), [0, 2])
    src = pattern_module(params, source_pattern(params))
    num = src.num.copy()
    num[0, 1, 0, 0, 0] += src.scale   # P_01(u) + E_00
    tampered = YangianModule(src.den, num, src.scale)
    with pytest.raises(NonGenericStepError,
                       match=r"fails the exact module identity at .* = \(0, 1, 0, 0, 0\)"):
        step(params, 1, source=tampered)


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


def test_composition_is_stepwise_product(monkeypatch):
    params = params_for(1, 2, 1, 2, (1, 1, 2), [0, 2, -2])
    whole = compose_word(params, (1, 2))
    first = step(params, 1)
    second = step(params, 2, first.target_factors)
    assert whole.matrix == second.matrix * first.matrix
    assert whole.hw_scalar == first.hw_scalar * second.hw_scalar
    # given the built source module, a step uses it and finds the same map
    reused = step(params, 2, first.target_factors, first.target)
    assert reused.source is first.target and reused.matrix == second.matrix
    # so a w-letter word builds w + 1 pattern modules: its source, then
    # one target per letter
    built = []
    monkeypatch.setattr(intertwine, "pattern_module",
                        lambda *args: built.append(args) or pattern_module(*args))
    compose_word(params, (1, 2))
    assert len(built) == 3
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


def test_modules_isomorphic_raises_when_undecided():
    # End(C^2 (x) V) is M_2 (x) End(V): its canonical basis has four
    # elements of rank 2 and no invertible one, though the identity is a
    # module map
    c = tensor_module(trivial_module(2, 2), evaluation_module(2, Fraction(1, 3)))
    with pytest.raises(ValueError, match="4-dimensional hom space"):
        modules_isomorphic(c, c)


def whole_denominator_hom_space(m1, m2):
    """hom_space by the whole-denominator system: A P1 d2 = P2 d1 A."""
    d1, d2 = m1.dim, m2.dim
    eye1, eye2 = RatMatrix.identity(d1), RatMatrix.identity(d2)
    blocks = []
    for i in range(m1.n):
        for j in range(m1.n):
            q1 = entry_matpoly(m1, i, j) * m2.den
            q2 = entry_matpoly(m2, i, j) * m1.den
            for k in range(max(q1.degree, q2.degree) + 1):
                blocks.append([eye2.kron(q1.coeff(k).transpose())
                               - q2.coeff(k).kron(eye1)])
    basis = RatMatrix.stack(blocks).nullspace()
    return [RatMatrix([[basis[r * d1 + s, t] for s in range(d1)]
                       for r in range(d2)]) for t in range(basis.ncols)]


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
    # the nonzero pairs in (i, j, k) order, as integer matrices times one
    # positive factor common to all of them
    pairs = list(coefficient_pairs(m1, m2))
    assert [key for key, _, _ in pairs] == sorted(want)
    factors = set()
    for key, b, c in pairs:
        rb, rc = want[key]
        ref, got = (rb, b) if not rb.is_zero() else (rc, c)
        r, s = next((r, s) for r in range(ref.nrows) for s in range(ref.ncols)
                    if ref[r, s])
        factor = got[r, s] / ref[r, s]
        assert b.den == c.den == 1 and factor > 0
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
        start = column([rng.choice((0, 1, Fraction(1, 3))) for _ in range(dim)])
        carried = column([rng.randint(-3, 3) for _ in range(dim)])
        kept, replayed = reference_span(gens, start, carried)
        got, got_carried = _cyclic_span(gens, (start, carried))
        assert got.ncols == len(kept)
        assert [got[:, [c]] for c in range(got.ncols)] == kept
        assert [got_carried[:, [c]] for c in range(got.ncols)] == replayed


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

    for name in ("pattern_module", "fock_module", "tensor_module"):
        monkeypatch.setattr(intertwine, name, built)
    for swap in (lambda: step(params, 1), lambda: compose_word(params, [1])):
        with pytest.raises(ValueError, match="cyclic-span work 33554432, "
                                             "over the budget of 1000000"):
            swap()
