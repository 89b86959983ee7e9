"""Module constructors, tensor products, shifts, twists, pattern data."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yangian.fock import PLAIN, PRIME, TILDE, FockSpace
from yangian.linalg import FLOAT64_EXACT_LIMIT, MatPoly, Poly, RatFunc, RatMatrix
from yangian.modules import (
    ModuleParams,
    PatternFactor,
    YangianModule,
    distinguished_vector,
    dual_evaluation_module,
    evaluation_module,
    fock_module,
    omega_module,
    omega_prime_module,
    pattern_module,
    pattern_space,
    permute_pattern,
    scalar_module,
    shift_module,
    source_pattern,
    tensor_all,
    tensor_module,
    trivial_module,
    twist_module,
)

from reference import entry_matpoly

THIRD = Fraction(1, 3)


def same_array(m1, m2):
    """Equal denominators, scales and coefficient arrays."""
    return (m1.den == m2.den and m1.scale == m2.scale
            and m1.num.shape == m2.num.shape and bool((m1.num == m2.num).all()))


def test_dual_evaluation_matches_antisymmetric_component():
    # for theta = -1 the degree-1 plain component acts by delta_ij + E_ij/(u - z)
    n = 3
    f = fock_module(-1, n, PLAIN, Fraction(5, 2), 1)
    v = evaluation_module(n, -Fraction(5, 2))
    assert f.equal_entrywise(v)
    # and the dual evaluation module is its own construction
    d = dual_evaluation_module(n, THIRD)
    assert d.entry_ratfunc(0, 1, 1, 0) == RatFunc(Poly([-1]), Poly([THIRD, 1]))


def _explicit_evaluation(n, z, dual):
    """Denominator and numerators of delta_ij + E_ij / (u + z), or of
    delta_ij - E_ji / (u + z) when dual, built entry by entry."""
    z = Fraction(z)
    eye = RatMatrix.identity(n)
    num = []
    for i in range(n):
        row = []
        for j in range(n):
            r, s = (j, i) if dual else (i, j)
            unit = RatMatrix([[int((a, b) == (r, s)) for b in range(n)]
                              for a in range(n)])
            k = -unit if dual else unit
            row.append(MatPoly((n, n), [k + eye * z, eye] if i == j else [k]))
        num.append(row)
    return Poly([z, 1]), num


def test_evaluation_modules_match_explicit_construction():
    for n in range(1, 5):
        for z in (0, THIRD, Fraction(2, 3), Fraction(-7, 5), 3):
            for build, dual in ((evaluation_module, False),
                                (dual_evaluation_module, True)):
                den, num = _explicit_evaluation(n, z, dual)
                mod = build(n, z)
                assert mod.den == den, (n, z, dual)
                assert [[entry_matpoly(mod, i, j) for j in range(n)]
                        for i in range(n)] == num, (n, z, dual)


def test_evaluation_module_is_degree_one_component():
    # the degree-1 plain component, built by the Fock action rather than
    # through evaluation_module, is the explicit evaluation module
    for n in (2, 3):
        den, num = _explicit_evaluation(n, THIRD, False)
        f = fock_module(1, n, PLAIN, THIRD, 1)
        assert f.den == den, n
        assert [[entry_matpoly(f, i, j) for j in range(n)]
                for i in range(n)] == num, n
        assert evaluation_module(n, THIRD).equal_entrywise(f)


def test_tilde_equals_scalar_twist_of_prime():
    z = Fraction(7, 3)
    for theta, n, deg in ((1, 2, 2), (1, 3, 1), (-1, 3, 2), (-1, 2, 1)):
        tilde = fock_module(theta, n, TILDE, z, deg)
        prime = fock_module(theta, n, PRIME, z, deg)
        omega = omega_prime_module(n, z) if theta == 1 else omega_module(n, -z)
        twisted = tensor_module(omega, prime)
        assert tilde.equal_entrywise(twisted)
        assert tilde.equal_entrywise(tensor_module(prime, omega))
        # the untwisted prime component, one perturbed coefficient entry and
        # a dimension mismatch all compare unequal
        assert not tilde.equal_entrywise(prime)
        num = tilde.num.copy()
        num[0, 1, 0, 0, 0] += tilde.scale
        bumped = YangianModule(tilde.den, num, tilde.scale)
        assert not bumped.equal_entrywise(twisted)
        assert not twisted.equal_entrywise(bumped)
        assert not tilde.equal_entrywise(trivial_module(n))


def test_one_dimensional_factors_are_cocentral():
    z = Fraction(4, 3)
    m = fock_module(1, 2, PLAIN, THIRD, 2)
    for scalar in (omega_module(2, z), omega_prime_module(2, z)):
        left = tensor_module(scalar, m)
        right = tensor_module(m, scalar)
        assert same_array(left, right)


def test_tensor_is_associative():
    a = evaluation_module(2, THIRD)
    b = dual_evaluation_module(2, Fraction(5, 7))
    c = omega_module(2, Fraction(2, 9))
    left = tensor_module(tensor_module(a, b), c)
    right = tensor_module(a, tensor_module(b, c))
    assert same_array(left, right)


def test_shift_module_translates_argument():
    # degree 1, and degree 2 through a tensor product with a tilde block
    for m in (evaluation_module(2, THIRD),
              tensor_module(evaluation_module(2, THIRD),
                            fock_module(1, 2, TILDE, Fraction(5, 2), 2))):
        w = Fraction(3, 5)
        s = shift_module(m, w)
        for i in range(2):
            for j in range(2):
                for r in range(m.dim):
                    for c in range(m.dim):
                        u0 = Fraction(9)
                        assert s.entry_ratfunc(i, j, r, c)(u0) == \
                            m.entry_ratfunc(i, j, r, c)(u0 - w)


def test_twist_multiplies_entries_and_reduces():
    m = evaluation_module(2, THIRD)
    g = RatFunc(Poly([Fraction(1, 2), 1]), Poly([Fraction(-2, 3), 1]))
    t = twist_module(m, g)
    for i in range(2):
        for r in range(2):
            for c in range(2):
                assert t.entry_ratfunc(i, 0, r, c) == m.entry_ratfunc(i, 0, r, c) * g
    back = twist_module(t, 1 / g)
    assert same_array(back, m)


def test_twist_requires_limit_one():
    m = trivial_module(2)
    with pytest.raises(ValueError):
        twist_module(m, RatFunc(Poly([0, 2]), Poly([1, 1])))


def test_normal_form_is_enforced():
    with pytest.raises(ValueError):
        scalar_module(2, Poly([1, 2]), Poly([1, 1]))  # num not monic
    with pytest.raises(ValueError):
        YangianModule(Poly([0, 2]), fock_module(1, 1, PLAIN, 0, 1).num)
    m = evaluation_module(2, THIRD)
    for i, j, r, s in ((0, 1, 0, 0), (0, 0, 0, 0), (1, 1, 0, 1)):
        num = m.num.copy()
        num[i, j, 1, r, s] += 1   # the leading coefficient, off I or off 0
        with pytest.raises(ValueError):
            YangianModule(m.den, num, m.scale)
    with pytest.raises(ValueError):
        YangianModule(m.den * m.den, m.num, m.scale)   # too few powers
    # the constructor keeps the array in lowest terms
    assert same_array(YangianModule(m.den, m.num * 6, m.scale * 6), m)


def test_module_params_derived_quantities():
    params = ModuleParams(1, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
    assert params.rho == (0, -1)
    assert params.delta_prime == (1, -1)
    assert params.z == (THIRD, Fraction(3, 5))
    # lam* - mu* = delta' * (n/2 - nu) on every slot, for both theta
    for theta in (1, -1):
        pr = ModuleParams(theta, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
        for b in range(2):
            assert pr.lam_star[b] - pr.mu_star[b] == \
                pr.delta_prime[b] * (Fraction(2, 2) - pr.nu[b])


def test_module_params_validation():
    with pytest.raises(ValueError):
        ModuleParams(1, 2, 1, 1, mu=(1, 2), nu=(1, 1))  # integer difference
    ModuleParams(1, 2, 1, 1, mu=(1, 2), nu=(1, 1), allow_resonant=True)
    with pytest.raises(ValueError):
        ModuleParams(-1, 2, 0, 1, mu=(THIRD,), nu=(3,))  # degree beyond n
    with pytest.raises(ValueError):
        ModuleParams(2, 2, 1, 0, mu=(THIRD,), nu=(1,))


def test_nu_prime_only_for_anticommuting():
    params = ModuleParams(-1, 3, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
    assert params.nu_prime == (1, 1)
    with pytest.raises(ValueError):
        _ = ModuleParams(1, 3, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1)).nu_prime


def test_source_pattern_and_permutation():
    params = ModuleParams(1, 2, 1, 2, mu=(THIRD, Fraction(8, 5), Fraction(12, 7)),
                          nu=(2, 1, 3))
    src = source_pattern(params)
    assert [f.kind for f in src] == [TILDE, PLAIN, PLAIN]
    assert [f.degree for f in src] == [2, 1, 3]
    assert [f.origin for f in src] == [0, 1, 2]
    # transpose slots 0 and 1
    tgt = permute_pattern(src, (1, 0, 2))
    assert [f.origin for f in tgt] == [1, 0, 2]
    assert [f.kind for f in tgt] == [PLAIN, TILDE, PLAIN]
    assert [f.degree for f in tgt] == [1, 2, 3]
    # applying the inverse permutation restores the source
    assert permute_pattern(tgt, (1, 0, 2)) == src


def test_pattern_module_dimension_and_space():
    params = ModuleParams(1, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
    factors = source_pattern(params)
    mod = pattern_module(params, factors)
    space = pattern_space(params, factors)
    assert mod.dim == space.dim == 3 * 2  # C(3,2) monomials x 2 monomials
    assert mod.den == Poly([THIRD, 1]) * Poly([Fraction(3, 5), 1])


def test_distinguished_vector_positions_and_signs():
    # theta = +1: tilde slot at position 0 carries (-1)^degree
    params = ModuleParams(1, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
    factors = source_pattern(params)
    space = pattern_space(params, factors)
    v = distinguished_vector(params, factors)
    idx = space.index[(0, 2, 1, 0)]  # x_{1,2}^2 * x_{2,1}
    assert v[idx, 0] == 1  # (-1)^2
    assert sum(1 for x in v.data[:, 0] if x != 0) == 1

    params2 = ModuleParams(1, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(1, 1))
    v2 = distinguished_vector(params2, source_pattern(params2))
    space2 = pattern_space(params2, source_pattern(params2))
    assert v2[space2.index[(0, 1, 1, 0)], 0] == -1  # (-1)^1

    # theta = -1 never carries signs; tilde slot uses the top variables
    params3 = ModuleParams(-1, 3, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
    v3 = distinguished_vector(params3, source_pattern(params3))
    space3 = pattern_space(params3, source_pattern(params3))
    assert v3[space3.index[(0, 1, 1, 1, 0, 0)], 0] == 1


def test_trivial_slots_are_transparent():
    params = ModuleParams(1, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(0, 1))
    mod = pattern_module(params, source_pattern(params))
    single = fock_module(1, 2, PLAIN, Fraction(3, 5), 1)
    assert mod.den == single.den
    assert mod.dim == single.dim
    assert mod.equal_entrywise(single)


def test_tensor_all_empty_raises():
    with pytest.raises(ValueError):
        tensor_all([])


def assert_exact_forms(mod):
    """num64 is num, as int64, exactly when every |entry| is below the
    float64 limit, and both forms are read-only."""
    top = max((abs(int(x)) for x in mod.num.flat), default=0)
    assert all(type(x) is int for x in mod.num.flat)
    assert not mod.num.flags.writeable
    if top < FLOAT64_EXACT_LIMIT:
        assert mod.num64 is not None and mod.num64.dtype == np.int64
        assert not mod.num64.flags.writeable
        assert (mod.num64 == mod.num).all()
    else:
        assert mod.num64 is None


def fock_reference(theta, n, flavor, z, degree):
    """The denominator and MatPoly entries of a Fock module, entry by entry:
    P_ij = K_ij + delta_ij (theta z_eff + u) over u + theta z_eff."""
    z_eff = Fraction(z) - 1 if flavor == PRIME else Fraction(z)
    space = FockSpace(theta, n, (degree,))
    eye = RatMatrix.identity(space.dim)
    entries = [[MatPoly((space.dim, space.dim),
                        [space.gl_action_matrix(flavor, i, j)
                         + eye * (theta * z_eff if i == j else 0)]
                        + ([eye] if i == j else []))
                for j in range(n)] for i in range(n)]
    return Poly([theta * z_eff, 1]), entries


def coproduct_reference(left, right):
    """The coproduct sum_l P_il (x) Q_lj of two reference entry arrays."""
    n = len(left)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = left[i][0].kron(right[0][j])
            for l in range(1, n):
                acc = acc + left[i][l].kron(right[l][j])
            row.append(acc)
        out.append(row)
    return out


def entries(mod):
    return [[entry_matpoly(mod, i, j) for j in range(mod.n)]
            for i in range(mod.n)]


# denominators of the parameters: small, and about 2^26, 2^40 and 2^52, so
# that single factors and the partial products of two or three fall on
# both sides of the int64 gate
_DENOMINATORS = (1, 7, 10007, 2 ** 26 + 15, 2 ** 40 + 15, 2 ** 52 + 21)


@st.composite
def pattern_factors(draw):
    theta = draw(st.sampled_from((1, -1)))
    n = draw(st.integers(1, 2))
    count = draw(st.integers(1, 3))
    factors = []
    for origin in range(count):
        den = draw(st.sampled_from(_DENOMINATORS))
        z = Fraction(draw(st.integers(-3 * den, 3 * den)), den)
        top = n if theta == -1 else 2
        factors.append(PatternFactor(draw(st.sampled_from((PLAIN, TILDE, PRIME))),
                                     draw(st.integers(0, top)), z, origin))
    return theta, n, factors


@settings(max_examples=40, deadline=None)
@given(pattern_factors())
def test_modules_match_the_coproduct_reference(drawn):
    theta, n, factors = drawn
    want = None
    for f in factors:
        mod = fock_module(theta, n, f.kind, f.param, f.degree)
        assert_exact_forms(mod)
        if f.degree:
            den, ref = fock_reference(theta, n, f.kind, f.param, f.degree)
        else:
            den, ref = Poly([1]), entries(trivial_module(n))
        assert mod.den == den and entries(mod) == ref
        # the partial tensor product against the coproduct of the references
        if want is None:
            want, prod = (den, ref), mod
        else:
            want = (want[0] * den, coproduct_reference(want[1], ref))
            prod = tensor_module(prod, mod)
            assert_exact_forms(prod)
            assert prod.den == want[0] and entries(prod) == want[1]
    params = ModuleParams(theta, n, 0, len(factors),
                          [f.param for f in factors],
                          [f.degree for f in factors], allow_resonant=True)
    pattern = pattern_module(params, factors)
    assert_exact_forms(pattern)
    assert pattern.den == want[0] and entries(pattern) == want[1]


def _linear_module(c, scale=1, dtype=object):
    """The one-dimensional module with numerators (c, scale) over
    u + c / scale, which acts by 1."""
    num = np.array([c, scale], dtype=dtype).reshape(1, 1, 2, 1, 1)
    return YangianModule(Poly([Fraction(c, scale), 1]), num, scale)


@pytest.mark.parametrize("dtype", [object, np.int64])
def test_num64_gate_at_the_float64_limit(dtype):
    for c in (FLOAT64_EXACT_LIMIT - 1, -(FLOAT64_EXACT_LIMIT - 1)):
        mod = _linear_module(c, dtype=dtype)
        assert mod.num64 is not None and mod.num64.dtype == np.int64
        assert mod.num64.tolist() == mod.num.tolist() == [[[[[c]], [[1]]]]]
        assert_exact_forms(mod)
    for c in (FLOAT64_EXACT_LIMIT, -FLOAT64_EXACT_LIMIT):
        mod = _linear_module(c, dtype=dtype)
        assert mod.num64 is None
        assert mod.num.tolist() == [[[[[c]], [[1]]]]]
        assert_exact_forms(mod)
    # the gcd is taken before the gate: 2 (2^53 - 1) over 2 is stored whole
    # in int64, and 2^54 + 2 over 2 is not
    halved = _linear_module(2 * (FLOAT64_EXACT_LIMIT - 1), 2, dtype)
    assert halved.scale == 1 and halved.num64 is not None
    assert _linear_module(2 * FLOAT64_EXACT_LIMIT + 2, 2, dtype).num64 is None


def test_both_forms_are_read_only():
    mod = fock_module(1, 2, TILDE, Fraction(5, 7), 2)
    assert_exact_forms(mod)
    for form in (mod.num64, mod.num):
        with pytest.raises(ValueError):
            form[0, 0, 0, 0, 0] = 1
    # num is made once, and a Python-int module stores only num
    assert mod.num is mod.num
    big = fock_module(1, 2, TILDE, Fraction(1, 2 ** 60 + 33), 2)
    assert big.num64 is None and big.num is big.num
    with pytest.raises(ValueError):
        big.num[0, 0, 0, 0, 0] = 1


def test_int64_numerators_are_validated_as_python_ints():
    m = fock_module(1, 2, PLAIN, THIRD, 1)
    num = m.num64.copy()
    num[0, 1, 1, 0, 0] = 1        # a leading coefficient off 0
    for bad in (num, num.astype(object)):
        with pytest.raises(ValueError):
            YangianModule(m.den, bad, m.scale)
    # a scale past int64 cannot lead int64 numerators
    with pytest.raises(ValueError):
        YangianModule(m.den, m.num64, 2 ** 63 + m.scale)
    assert same_array(YangianModule(m.den, m.num64 * 6, m.scale * 6), m)


@pytest.mark.parametrize("z", [
    FLOAT64_EXACT_LIMIT - 2, FLOAT64_EXACT_LIMIT - 1, 2 ** 63 - 1, 2 ** 64,
    Fraction(FLOAT64_EXACT_LIMIT // 2 - 2, 2)])
def test_fock_module_fills_int64_only_below_the_limit(z):
    # degree 1, so max|K| = 1 and the bound is scale + |theta z_eff
    # numerator|: just under the limit, at it, and where an int64 fill
    # would overflow (2^63 - 1 + 1) or not convert at all (2^64)
    for theta, flavor in ((1, PLAIN), (-1, TILDE), (1, PRIME)):
        zz = z + 1 if flavor == PRIME else z
        mod = fock_module(theta, 2, flavor, zz, 1)
        den, ref = fock_reference(theta, 2, flavor, zz, 1)
        assert mod.den == den and entries(mod) == ref
        assert_exact_forms(mod)


def test_gl_action_entries_are_at_most_degree_plus_one():
    # the bound fock_module's int64 fill rests on, reached by d_i x_i
    for theta, n, degree in ((1, 1, 5), (1, 2, 4), (1, 3, 3), (-1, 3, 2)):
        space = FockSpace(theta, n, (degree,))
        tops = {flavor: max(abs(int(x)) for i in range(n) for j in range(n)
                            for x in space.gl_action_matrix(flavor, i, j).data.flat)
                for flavor in (PLAIN, TILDE, PRIME)}
        assert max(tops.values()) <= degree + 1
        assert tops[TILDE] == (degree + 1 if theta == 1 else 1)
