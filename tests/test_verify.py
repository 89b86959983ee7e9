"""Tests for the identity-checking layer: exchange-relation grid checks,
highest-weight extraction, closed-form eigenvalue products and the
recovery of the classifying polynomials."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yangian.fock import PLAIN, PRIME, TILDE
from yangian.linalg import MatPoly, Poly, RatFunc, RatMatrix
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
    permute_pattern,
    prime_form,
    shift_module,
    source_pattern,
    tensor_module,
    trivial_module,
    twist_module,
)
from yangian.verify import (
    DrinfeldError,
    check_rtt,
    closed_form_eigenvalues,
    drinfeld_data,
    eigenvalue_of,
    factor_hw_eigenvalue,
    highest_weight_vectors,
    hw_eigenvalues,
    is_highest_weight,
    ratio_to_drinfeld_poly,
    scalar_twist_between,
)


def ratfunc(num_coeffs, den_coeffs):
    return RatFunc(Poly([F(c) for c in num_coeffs]),
                   Poly([F(c) for c in den_coeffs]))


# ---------------------------------------------------------------------------
# exchange-relation grid checks


ATOM_CASES = [
    evaluation_module(2, F(3, 2)),
    evaluation_module(3, F(-2, 5)),
    dual_evaluation_module(2, F(1, 4)),
    dual_evaluation_module(3, F(-1, 3)),
    omega_module(2, F(1, 2)),
    omega_prime_module(3, F(5, 3)),
    fock_module(1, 2, PLAIN, F(1, 3), 2),
    fock_module(1, 2, TILDE, F(5, 2), 2),
    fock_module(1, 2, PRIME, F(5, 2), 2),
    fock_module(1, 3, TILDE, F(2, 5), 1),
    fock_module(-1, 3, PLAIN, F(1, 5), 2),
    fock_module(-1, 2, TILDE, F(-1, 2), 1),
    fock_module(-1, 3, PRIME, F(4, 3), 2),
]


@pytest.mark.parametrize("mod", ATOM_CASES, ids=range(len(ATOM_CASES)))
def test_rtt_atoms(mod):
    report = check_rtt(mod)
    assert report.ok
    assert report.failure is None
    assert report.n == mod.n and report.dim == mod.dim


def test_rtt_tensor_shift_twist():
    ten = tensor_module(evaluation_module(2, F(1, 3)),
                        fock_module(1, 2, TILDE, F(5, 2), 2))
    assert check_rtt(ten).ok
    assert check_rtt(shift_module(ten, F(2))).ok
    g = ratfunc([4, 1], [3, 1])
    assert check_rtt(twist_module(ten, g)).ok


def test_rtt_catches_tampered_module():
    good = evaluation_module(2, F(3, 2))
    nums = [[good.num[i][j] for j in range(2)] for i in range(2)]
    nums[0][1] = MatPoly((2, 2), (RatMatrix.from_flat(2, 2, [1, 0, 0, 0]),))
    bad = YangianModule(2, good.den, nums)
    report = check_rtt(bad)
    assert not report.ok
    assert report.failure == {"u": 10, "v": 11, "entry": (0, 0, 0, 1, 0, 0)}


def dense_rtt_holds(mod):
    """Reference verdict: R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v) with
    R(w) = w - Flip, as dense (n^2 dim)-square matrices of numerators on a
    grid of deg d + 2 points per variable."""
    n, dim = mod.n, mod.dim
    eye_n, eye_w = np.eye(n, dtype=object), np.eye(dim, dtype=object)
    unit = [[np.outer(eye_n[i], eye_n[j]) for j in range(n)] for i in range(n)]
    flip = np.kron(sum(np.kron(unit[i][j], unit[j][i])
                       for i in range(n) for j in range(n)), eye_w)

    def entries(mat):
        return np.array([[mat[r, s] for s in range(dim)] for r in range(dim)],
                        dtype=object)

    def cleared(mat):
        scale = math.lcm(*(x.denominator for x in mat.flat))
        return np.array([[int(x * scale) for x in row] for row in mat],
                        dtype=object)

    pts = range(mod.den.degree + 2)
    t1, t2 = {}, {}
    for u in pts:
        blocks = [[entries(mod.num[i][j](u)) for j in range(n)] for i in range(n)]
        t1[u] = cleared(sum(np.kron(np.kron(unit[i][j], eye_n), blocks[i][j])
                            for i in range(n) for j in range(n)))
        t2[u] = cleared(sum(np.kron(np.kron(eye_n, unit[i][j]), blocks[i][j])
                            for i in range(n) for j in range(n)))
    for u in pts:
        for v in pts:
            r = (u - v) * np.eye(n * n * dim, dtype=object) - flip
            if not (r @ t1[u] @ t2[v] == t2[v] @ t1[u] @ r).all():
                return False
    return True


def atom_modules(n, z):
    yield evaluation_module(n, z)
    yield dual_evaluation_module(n, z)
    yield omega_module(n, z)
    for theta in (1, -1):
        for flavor in (PLAIN, TILDE, PRIME):
            for degree in (1, 2):
                yield fock_module(theta, n, flavor, z, degree)


@st.composite
def small_modules(draw):
    """An evaluation, Fock or two-factor tensor module with n <= 3 and
    n^2 dim <= 54, as built or with one numerator coefficient entry
    perturbed; returns the module and whether it was perturbed."""
    n = draw(st.sampled_from((2, 3)))
    params = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5)))
    cap = 54 // (n * n)
    mod = draw(st.sampled_from([a for a in atom_modules(n, draw(params))
                                if a.dim <= cap]))
    if draw(st.booleans()):
        mod = tensor_module(mod, draw(st.sampled_from(
            [a for a in atom_modules(n, draw(params))
             if mod.dim * a.dim <= cap])))
    if not draw(st.booleans()):
        return mod, False
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    k = draw(st.integers(0, mod.den.degree - 1))
    r, s = draw(st.integers(0, mod.dim - 1)), draw(st.integers(0, mod.dim - 1))
    delta = draw(st.sampled_from((F(1), F(-1), F(1, 2))))
    entry = mod.num[i][j]
    coeffs = [entry.coeff(t) for t in range(max(entry.degree + 1, k + 1))]
    rows = [[coeffs[k][a, b] + delta * ((a, b) == (r, s))
             for b in range(mod.dim)] for a in range(mod.dim)]
    coeffs[k] = RatMatrix(rows)
    nums = [list(row) for row in mod.num]
    nums[i][j] = MatPoly((mod.dim, mod.dim), coeffs)
    return YangianModule(n, mod.den, nums), True


@settings(max_examples=30, deadline=None)
@given(small_modules())
def test_rtt_matches_dense_reference(case):
    mod, perturbed = case
    ok = check_rtt(mod).ok
    assert ok == dense_rtt_holds(mod)
    assert ok or perturbed


# ---------------------------------------------------------------------------
# highest-weight vectors and eigenvalues


def test_evaluation_highest_weight():
    z = F(3, 2)
    mod = evaluation_module(2, z)
    basis = highest_weight_vectors(mod)
    assert basis == [[F(1), F(0)]]
    assert is_highest_weight(mod, basis[0])
    assert hw_eigenvalues(mod, basis[0]) == [
        ratfunc([z + 1, 1], [z, 1]),
        ratfunc([1], [1]),
    ]


def test_eigenvalue_of_rejects_non_eigenvector():
    mod = evaluation_module(2, F(3, 2))
    with pytest.raises(ValueError):
        eigenvalue_of(mod, 0, [F(1), F(1)])
    with pytest.raises(ValueError):
        eigenvalue_of(mod, 0, [F(0), F(0)])


def params_for(theta, n, p, q, nu, seed=None, rng=None):
    """ModuleParams with generic mu: distinct sevenths spread over integers."""
    m = p + q
    rng = rng or random.Random(seed or 7)
    sevenths = rng.sample(range(1, 7), m) if m < 7 else None
    assert sevenths is not None, "m too large for this helper"
    mu = tuple(rng.randint(-3, 3) + F(r, 7) for r in sevenths)
    return ModuleParams(theta, n, p, q, mu, nu)


@pytest.mark.parametrize("theta", [1, -1])
def test_pattern_closed_form_deterministic(theta):
    params = params_for(theta, 2, 1, 1, (2, 1))
    factors = source_pattern(params)
    mod = pattern_module(params, factors)
    vec = distinguished_vector(params, factors)
    assert is_highest_weight(mod, vec)
    assert len(highest_weight_vectors(mod)) == 1
    assert hw_eigenvalues(mod, vec) == closed_form_eigenvalues(params)


def test_closed_form_random_patterns():
    rng = random.Random(20260813)
    checked = 0
    for _ in range(12):
        theta = rng.choice([1, -1])
        n = rng.choice([2, 3])
        p = rng.randint(0, 2)
        q = rng.randint(max(1 - p, 0), 2)
        if p + q == 0:
            q = 1
        m = p + q
        if theta == 1:
            cap = 2 if (n == 2 or m <= 2) else 1
        else:
            cap = n
        nu = tuple(rng.randint(1, cap) for _ in range(m))
        params = params_for(theta, n, p, q, nu, rng=rng)
        factors = source_pattern(params)
        mod = pattern_module(params, factors)
        vec = distinguished_vector(params, factors)
        assert is_highest_weight(mod, vec)
        assert hw_eigenvalues(mod, vec) == closed_form_eigenvalues(params)
        checked += 1
    assert checked == 12


def test_closed_form_permuted_and_prime_patterns():
    for theta in (1, -1):
        params = params_for(theta, 2, 1, 2, (2, 1, 1), seed=13 + theta)
        source = source_pattern(params)
        for factors in (permute_pattern(source, [2, 0, 1]),
                        prime_form(source),
                        permute_pattern(prime_form(source), [1, 2, 0])):
            mod = pattern_module(params, factors)
            vec = distinguished_vector(params, factors)
            assert is_highest_weight(mod, vec)
            got = hw_eigenvalues(mod, vec)
            assert got == closed_form_eigenvalues(params, factors)


def test_zero_degree_factor_contributes_one():
    factor = PatternFactor(TILDE, 0, F(1, 3), 0)
    assert factor_hw_eigenvalue(1, 2, factor, 0).is_one()
    assert factor_hw_eigenvalue(-1, 2, factor, 1).is_one()


def test_tilde_and_prime_closed_forms_differ_by_scalar_character():
    # tilde = scalar character * prime, with the same character at every i
    theta, n, nu, z = 1, 3, 2, F(2, 7)
    tilde = PatternFactor(TILDE, nu, z, 0)
    prime = PatternFactor(PRIME, nu, z, 0)
    ratios = [factor_hw_eigenvalue(theta, n, tilde, i)
              / factor_hw_eigenvalue(theta, n, prime, i) for i in range(n)]
    assert all(r == ratios[0] for r in ratios)
    assert ratios[0] == ratfunc([z - 1, 1], [z, 1])


# ---------------------------------------------------------------------------
# classifying polynomials


def test_drinfeld_evaluation_module():
    data = drinfeld_data(evaluation_module(2, F(3, 2)))
    assert data.polys == [Poly([F(2), F(1)])]  # u + z + 1/2


def test_drinfeld_plain_powers():
    z = F(1, 3)
    for deg in (1, 2, 3):
        data = drinfeld_data(fock_module(1, 2, PLAIN, z, deg))
        expect = Poly.from_roots([-z - F(1, 2) - r for r in range(deg)])
        assert data.polys == [expect]


def test_drinfeld_tilde_strings():
    z = F(1, 7)
    for deg in (1, 2, 3):
        data = drinfeld_data(fock_module(1, 2, TILDE, z, deg))
        expect = Poly.from_roots([1 - z + F(1, 2) + t for t in range(deg)])
        assert data.polys == [expect]


def test_drinfeld_degree_one_matches_evaluation():
    z = F(2, 5)
    minus = drinfeld_data(fock_module(-1, 2, PLAIN, z, 1))
    assert minus.polys == drinfeld_data(evaluation_module(2, -z)).polys


def test_drinfeld_twist_invariance():
    mod = tensor_module(evaluation_module(2, F(1, 3)),
                        fock_module(1, 2, PLAIN, F(5, 7), 2))
    base = drinfeld_data(mod)
    for a in (F(2), F(-7, 2)):
        g = ratfunc([a + 1, 1], [a, 1])
        twisted = drinfeld_data(twist_module(mod, g))
        assert twisted.polys == base.polys
        assert twisted.eigenvalues == [g * lam for lam in base.eigenvalues]


def test_drinfeld_requires_unique_highest_weight_line():
    with pytest.raises(DrinfeldError):
        drinfeld_data(trivial_module(2, dim=2))


def test_ratio_to_drinfeld_poly_multiplicity():
    poly = Poly.from_roots([F(-1), F(-1), F(3, 2)])
    ratio = RatFunc(poly.shift(F(1, 2)), poly.shift(F(-1, 2)))
    assert ratio_to_drinfeld_poly(ratio) == poly


def test_ratio_to_drinfeld_poly_errors():
    with pytest.raises(DrinfeldError):  # irrational roots
        ratio_to_drinfeld_poly(ratfunc([-2, 0, 1], [0, 0, 1]))
    with pytest.raises(DrinfeldError):  # roots in different cosets
        ratio_to_drinfeld_poly(ratfunc([F(1, 2), 1], [0, 1]))
    with pytest.raises(DrinfeldError):  # string ascends instead of descending
        ratio_to_drinfeld_poly(ratfunc([0, 1], [1, 1]))


# ---------------------------------------------------------------------------
# scalar comparisons between modules


def test_scalar_twist_between_tilde_and_prime():
    for theta in (1, -1):
        z = F(3, 7)
        tilde = fock_module(theta, 2, TILDE, z, 2)
        prime = fock_module(theta, 2, PRIME, z, 2)
        g = scalar_twist_between(tilde, prime)
        zz = theta * z
        assert g == ratfunc([zz - theta, 1], [zz, 1])


def test_scalar_twist_between_recovers_twist():
    mod = evaluation_module(2, F(1, 3))
    g = ratfunc([5, 1], [4, 1])
    assert scalar_twist_between(twist_module(mod, g), mod) == g
    assert scalar_twist_between(mod, mod).is_one()


def test_scalar_twist_between_rejects_unrelated():
    assert scalar_twist_between(evaluation_module(2, F(1, 3)),
                                dual_evaluation_module(2, F(1, 3))) is None
    assert scalar_twist_between(evaluation_module(2, F(1, 3)),
                                evaluation_module(3, F(1, 3))) is None
