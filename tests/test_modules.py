"""Module constructors, tensor products, shifts, twists, pattern data."""

from fractions import Fraction

import pytest

from yangian.fock import PLAIN, PRIME, TILDE
from yangian.linalg import MatPoly, Poly, RatFunc, RatMatrix
from yangian.modules import (
    ModuleParams,
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

THIRD = Fraction(1, 3)


def entry_matpoly(mod, i, j):
    """P_ij(u) as a MatPoly, read off the coefficient array."""
    return MatPoly((mod.dim, mod.dim), [
        RatMatrix([[Fraction(int(x), mod.scale) for x in row] for row in coeff])
        for coeff in mod.num[i, j]])


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
    assert v[idx] == 1  # (-1)^2
    assert sum(1 for x in v if x != 0) == 1

    params2 = ModuleParams(1, 2, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(1, 1))
    v2 = distinguished_vector(params2, source_pattern(params2))
    space2 = pattern_space(params2, source_pattern(params2))
    assert v2[space2.index[(0, 1, 1, 0)]] == -1  # (-1)^1

    # theta = -1 never carries signs; tilde slot uses the top variables
    params3 = ModuleParams(-1, 3, 1, 1, mu=(THIRD, Fraction(8, 5)), nu=(2, 1))
    v3 = distinguished_vector(params3, source_pattern(params3))
    space3 = pattern_space(params3, source_pattern(params3))
    assert v3[space3.index[(0, 1, 1, 1, 0, 0)]] == 1


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
