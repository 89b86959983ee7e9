"""Tests for the identity-checking layer: exchange-relation grid checks,
highest-weight extraction, closed-form eigenvalue products and the
recovery of the classifying polynomials."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yangian import verify
from yangian.fock import PLAIN, PRIME, TILDE
from yangian.linalg import (MatPoly, Poly, RatFunc, RatMatrix, _ratmatrix,
                            poly_gcd, residue_primes)
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
    highest_weight_vectors,
    hw_eigenvalues,
    is_highest_weight,
    ratio_to_drinfeld_poly,
    scalar_twist_between,
)

from reference import coefficient, column, entry_matpoly


def ratfunc(num_coeffs, den_coeffs):
    return RatFunc(Poly([F(c) for c in num_coeffs]),
                   Poly([F(c) for c in den_coeffs]))


def blocks_at(mod, points):
    """The blocks P_ij(u) as RatMatrix rows, one per point u."""
    entries = [[entry_matpoly(mod, i, j) for j in range(mod.n)]
               for i in range(mod.n)]
    return {u: [[p(u) for p in row] for row in entries] for u in points}


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
    num = good.num.copy()
    num[0, 1] = 0
    num[0, 1, 0, 0, 0] = good.scale   # P_01(u) = E_00
    bad = YangianModule(good.den, num, good.scale)
    report = check_rtt(bad)
    assert not report.ok
    assert report.failure == {"u": 10, "v": 11, "entry": (0, 0, 0, 1, 0, 0)}


def pair_rtt_failures(mod, points):
    """Reference: for every ordered pair (u, v) of points, the first failing
    (i, j, k, l, r, s) of (u-v) [P_ij(u), P_kl(v)] = P_kj(u) P_il(v) -
    P_kj(v) P_il(u), scanning i, j, k, l, r, s in that order, or None, by
    exact RatMatrix products of the evaluated numerators; and the nonzero
    entries of the difference."""
    n, dim = mod.n, mod.dim
    blocks = blocks_at(mod, points)
    out = {}
    for u in points:
        for v in points:
            a, b = blocks[u], blocks[v]
            first, values = None, []
            for i, j, k, l in itertools.product(range(n), repeat=4):
                diff = ((a[i][j] * b[k][l] - b[k][l] * a[i][j]) * (u - v)
                        - (a[k][j] * b[i][l] - b[k][j] * a[i][l]))
                for r, s in itertools.product(range(dim), repeat=2):
                    if diff[r, s] != 0:
                        values.append(diff[r, s])
                        if first is None:
                            first = (i, j, k, l, r, s)
            out[u, v] = first, values
    return out


def component_rtt_failures(mod, points):
    """Reference: the first failing (u, v, i, j, k, l, r, s), scanning u, v
    and then the entries in that order, and every nonzero entry of every
    difference (see pair_rtt_failures)."""
    first, values = None, []
    for (u, v), (entry, vals) in pair_rtt_failures(mod, points).items():
        values += vals
        if first is None and entry is not None:
            first = {"u": u, "v": v, "entry": entry}
    return first, values


def test_rtt_failure_missed_by_first_prime():
    # adding c E_00 to P_01 makes every entry of lhs - rhs a multiple of c,
    # so with c the first residue prime that prime alone sees no failure
    good = evaluation_module(2, F(3, 2))
    first_prime = residue_primes(0, good.dim)[0]
    num = good.num.copy()
    num[0, 1, 0, 0, 0] += first_prime * good.scale
    bad = YangianModule(good.den, num, good.scale)
    report = check_rtt(bad)
    assert report.primes[0] == first_prime and len(report.primes) > 1
    first, values = component_rtt_failures(bad, report.points_u)
    assert values and all(x.numerator % first_prime == 0 for x in values)
    assert not report.ok and not dense_rtt_holds(bad)
    assert report.failure == first


def dense_rtt_holds(mod):
    """Reference verdict: R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v) with
    R(w) = w - Flip, as dense (n^2 dim)-square matrices of numerators on a
    grid of deg d + 2 points per variable.  T1(u) = sum E_ij x I x T_ij(u)
    and T2(u) = sum I x E_ij x T_ij(u) are written block by block into zero
    matrices indexed (aux 1, aux 2, module) by (aux 1, aux 2, module)."""
    n, dim = mod.n, mod.dim
    size = n * n * dim
    flip = np.zeros((n, n, dim, n, n, dim), dtype=object)
    for i, j in itertools.product(range(n), repeat=2):
        flip[i, j, :, j, i, :] = np.eye(dim, dtype=int)
    flip = flip.reshape(size, size)

    entries = [[entry_matpoly(mod, i, j) for j in range(n)] for i in range(n)]

    def assembled(u):
        mats = [[p(u) for p in row] for row in entries]
        den = math.lcm(*(m.den for row in mats for m in row))
        t1 = np.zeros((n, n, dim, n, n, dim), dtype=object)
        t2 = np.zeros_like(t1)
        for i, j, a in itertools.product(range(n), repeat=3):
            block = mats[i][j].data * (den // mats[i][j].den)
            t1[i, a, :, j, a, :] = block
            t2[a, i, :, a, j, :] = block
        return t1.reshape(size, size), t2.reshape(size, size)

    pts = range(mod.den.degree + 2)
    t1, t2 = {}, {}
    for u in pts:
        t1[u], t2[u] = assembled(u)
    for u in pts:
        for v in pts:
            r = (u - v) * np.eye(size, dtype=int).astype(object) - flip
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
    num = mod.num * delta.denominator
    num[i, j, k, r, s] += delta.numerator * mod.scale
    return YangianModule(mod.den, num, mod.scale * delta.denominator), True


def noncommuting_module():
    """n = 1, P(u) = u^2 + u E_00 + E_01 over (u + 1)(u + 2): the relation
    reads (u - v - 1)(u - v) [E_00, E_01] = 0, so it fails at (10, 11) and
    holds at (11, 10)."""
    num = np.zeros((1, 1, 3, 2, 2), dtype=object)
    num[0, 0, 0, 0, 1] = 1
    num[0, 0, 1, 0, 0] = 1
    num[0, 0, 2] = [[1, 0], [0, 1]]
    return YangianModule(Poly([2, 3, 1]), num)


@settings(max_examples=30, deadline=None)
@given(small_modules())
@example((noncommuting_module(), True))
# (u + 4/3)(u + 2) / ((u + 1/3)(u + 1)): 3 divides every numerator at u = 10
@example((tensor_module(omega_module(2, F(1, 3)), omega_module(2, 1)), False))
def test_rtt_matches_dense_reference(case):
    mod, perturbed = case
    report = check_rtt(mod)
    assert report.ok == dense_rtt_holds(mod)
    assert report.ok or perturbed
    # the witness is the first failure of the row-major (u, v) scan
    assert report.failure == component_rtt_failures(mod, report.points_u)[0]
    # the bound reads the stacks of the evaluated blocks in lowest terms
    pts = report.points_u
    top = max(int(np.abs(RatMatrix.stack(
        [[m] for row in blocks for m in row]).data).max())
        for blocks in blocks_at(mod, pts).values())
    assert report.bound == 2 * (pts[-1] - pts[0] + 1) * mod.dim * top * top
    assert report.primes == residue_primes(report.bound, mod.dim)


@settings(max_examples=10, deadline=None)
@given(small_modules())
@example((noncommuting_module(), True))
def test_rtt_pairs_match_component_reference(case):
    # one product pair per prime settles both (u, v) and (v, u): every
    # ordered pair's first failing entry matches the reference
    mod, _ = case
    pts, _, primes, residues = verify._rtt_grid(mod)
    ref = pair_rtt_failures(mod, pts)
    for a, b in itertools.combinations(range(len(pts)), 2):
        u, v = pts[a], pts[b]
        got = verify._pair_failures(residues, primes, a, b, u - v,
                                    mod.n, mod.dim)
        assert got == (ref[u, v][0], ref[v, u][0])
    assert all(not ref[u, u][1] for u in pts)   # the diagonal holds


def coproduct_reference(a, b):
    """The n x n MatPolys sum_k P_ik (x) Q_kj of the tensor product, from
    the MatPoly entries of a (a module or such a grid) and of b."""
    grid = a if isinstance(a, list) else [
        [entry_matpoly(a, i, j) for j in range(a.n)] for i in range(a.n)]
    out = []
    for i in range(b.n):
        row = []
        for j in range(b.n):
            acc = MatPoly((grid[0][0].shape[0] * b.dim,) * 2)
            for k in range(b.n):
                acc = acc + grid[i][k].kron(entry_matpoly(b, k, j))
            row.append(acc)
        out.append(row)
    return out


@st.composite
def tensor_factors(draw):
    """Two or three atom modules of rank n (both theta, and the dim-1
    trivial and scalar modules), the product of their dims at most 24."""
    n = draw(st.sampled_from((2, 3)))
    params = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5)))
    out, dim = [], 1
    for _ in range(draw(st.integers(2, 3))):
        z = draw(params)
        choices = [m for m in atom_modules(n, z) if dim * m.dim <= 24]
        choices += [trivial_module(n), omega_prime_module(n, z)]
        out.append(draw(st.sampled_from(choices)))
        dim *= out[-1].dim
    return out


@settings(max_examples=40, deadline=None)
@given(tensor_factors())
# the u^1 product of tensor_module has k max|a| max|b| = 4 (q + 1)^2 on two
# evaluation modules at 1/q: 2^53 - 308303296 at q = 47453131 (float64
# path), 2^53 + 71321764 at q = 47453132 (Python ints).  The examples
# after them are far past 2^53: the same bound just below and at 2^62, and
# degree-2 blocks over 2^31 - 1 and 2147483629, whose entries' int64 sums
# would wrap, with a last factor that takes the product to about 2^105
@example([evaluation_module(2, F(1, 47453131))] * 2)
@example([evaluation_module(2, F(1, 47453132))] * 2)
@example([evaluation_module(2, F(1, 2 ** 30 - 2))] * 2)
@example([evaluation_module(2, F(1, 2 ** 30 - 1))] * 2)
@example([fock_module(1, 2, PLAIN, F(1, 2147483647), 2),
          fock_module(1, 2, PRIME, F(2, 2147483629), 2),
          evaluation_module(2, F(-3, 9999999943))])
def test_tensor_matches_coproduct_reference(factors):
    mod = factors[0]
    ref = factors[0]
    for other in factors[1:]:
        ref = coproduct_reference(ref, other)
        mod = tensor_module(mod, other)
    assert mod.den == math.prod((f.den for f in factors), start=Poly([1]))
    for i, j in itertools.product(range(mod.n), repeat=2):
        for k in range(mod.num.shape[2]):
            assert coefficient(mod, i, j, k) == ref[i][j].coeff(k)
        assert ref[i][j].degree < mod.num.shape[2]


# ---------------------------------------------------------------------------
# highest-weight vectors and eigenvalues


def test_evaluation_highest_weight():
    z = F(3, 2)
    mod = evaluation_module(2, z)
    basis = highest_weight_vectors(mod)
    assert basis == column([F(1), F(0)])
    assert is_highest_weight(mod, basis)
    assert hw_eigenvalues(mod, basis) == [
        ratfunc([z + 1, 1], [z, 1]),
        ratfunc([1], [1]),
    ]


def test_eigenvalue_of_rejects_non_eigenvector():
    mod = evaluation_module(2, F(3, 2))
    with pytest.raises(ValueError):
        eigenvalue_of(mod, 0, column([F(1), F(1)]))
    with pytest.raises(ValueError):
        eigenvalue_of(mod, 0, column([F(0), F(0)]))


def test_eigenvalues_survive_conjugation():
    # S T(u) S^-1 has the highest-weight vector S v with the eigenvalues of
    # v; with S lower triangular of ones, S v has every entry nonzero, so
    # the eigenvalue product runs over the whole support of the vector
    mod = tensor_module(evaluation_module(2, F(1, 3)),
                        evaluation_module(2, F(2, 5)))
    s = np.tril(np.ones((mod.dim, mod.dim), dtype=object))
    s_inv = np.eye(mod.dim, dtype=object) - np.eye(mod.dim, k=-1, dtype=object)
    conj = YangianModule(mod.den, s @ mod.num @ s_inv, mod.scale)
    vec = highest_weight_vectors(mod)
    moved = _ratmatrix(s @ vec.data, vec.den)
    assert moved.data.all()
    assert is_highest_weight(conj, moved)
    assert hw_eigenvalues(conj, moved) == hw_eigenvalues(mod, vec)


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
    assert highest_weight_vectors(mod).ncols == 1
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
    for theta in (1, -1):
        params = ModuleParams(theta, 2, 1, 0, [F(1, 3)], [0])
        assert all(f.is_one()
                   for f in closed_form_eigenvalues(params, [factor]))


def test_tilde_and_prime_closed_forms_differ_by_scalar_character():
    # tilde = scalar character * prime, with the same character at every i
    theta, n, nu, z = 1, 3, 2, F(2, 7)
    params = ModuleParams(theta, n, 1, 0, [z], [nu])
    tilde = closed_form_eigenvalues(params, [PatternFactor(TILDE, nu, z, 0)])
    prime = closed_form_eigenvalues(params, [PatternFactor(PRIME, nu, z, 0)])
    ratios = [t / p for t, p in zip(tilde, prime)]
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


def entry_poly(mod, i, j, r, s):
    return Poly([F(int(x), mod.scale) for x in mod.num[i, j, :, r, s]])


def entry_keys(mod):
    return itertools.product(range(mod.n), range(mod.n),
                             range(mod.dim), range(mod.dim))


def reference_twist(mod, g):
    """Denominator and (i, j, r, s) entry polynomials of g T(u), entry by
    entry: each P_ij[r, s] times num(g) over den times den(g), divided by
    the gcd of the denominator and every entry."""
    den = mod.den * g.den
    polys = {key: entry_poly(mod, *key) * g.num
             for key in entry_keys(mod)}
    common = den
    for p in polys.values():
        common = poly_gcd(common, p)
    return den // common, {key: p // common for key, p in polys.items()}


def reference_scalar_twist(m1, m2):
    """g with T1 = g T2, from the ratios of all nonzero matrix elements."""
    if (m1.n, m1.dim) != (m2.n, m2.dim):
        return None
    ratios = set()
    for key in entry_keys(m1):
        e1, e2 = m1.entry_ratfunc(*key), m2.entry_ratfunc(*key)
        if e1.is_zero() != e2.is_zero():
            return None
        if not e1.is_zero():
            ratios.add(e1 / e2)
    return ratios.pop() if len(ratios) == 1 else None


TWIST_PARAMS = st.sampled_from([F(0), F(1, 3), F(1), F(4, 3)])


@st.composite
def twistable_modules(draw, n):
    """An evaluation, dual, Fock or Omega module, maybe times an Omega."""
    kind = draw(st.sampled_from(("eval", "dual", "omega", PLAIN, TILDE, PRIME)))
    z = draw(TWIST_PARAMS)
    if kind == "eval":
        mod = evaluation_module(n, z)
    elif kind == "dual":
        mod = dual_evaluation_module(n, z)
    elif kind == "omega":
        mod = draw(st.sampled_from((omega_module, omega_prime_module)))(n, z)
    else:
        mod = fock_module(draw(st.sampled_from((1, -1))), n, kind, z,
                          draw(st.integers(1, n)))
    if draw(st.booleans()):
        omega = omega_module(n, draw(TWIST_PARAMS))
        mod = (tensor_module(omega, mod) if draw(st.booleans())
               else tensor_module(mod, omega))
    return mod


@st.composite
def scalar_series(draw):
    """A product of up to two factors (u + a)/(u + b); the roots come from
    the module parameters, so some cancel against a module's denominator."""
    g = RatFunc(Poly([1]), Poly([1]))
    for _ in range(draw(st.integers(0, 2))):
        g = g * RatFunc(Poly([draw(TWIST_PARAMS), 1]),
                        Poly([draw(TWIST_PARAMS), 1]))
    return g


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_twists_match_entrywise_references(data):
    n = data.draw(st.integers(1, 2))
    mod = data.draw(twistable_modules(n))
    g = data.draw(scalar_series())
    twisted = twist_module(mod, g)
    den, polys = reference_twist(mod, g)
    assert twisted.den == den
    assert all(entry_poly(twisted, *key) == p
               for key, p in polys.items())
    # a twist, its inverse, an unrelated module of the same rank, itself
    for m1, m2 in ((twisted, mod), (mod, twisted), (mod, mod),
                   (mod, data.draw(twistable_modules(n)))):
        assert scalar_twist_between(m1, m2) == reference_scalar_twist(m1, m2)
    assert scalar_twist_between(twisted, mod) == g
