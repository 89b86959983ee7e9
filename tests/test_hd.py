"""Tests for the operator realization and the series-homomorphism checks."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yangian.fock import apply_word, block_basis
from yangian.hd import (
    Operator,
    OperatorRealization,
    alpha_coefficient,
    apply_operator,
    check_alpha,
    check_canonical_relations,
    check_e_relations,
    check_x_identities,
    check_zeta,
    defining_rep,
    realize,
    tensor_square_rep,
    x_series,
)


def test_realization_validation():
    with pytest.raises(ValueError):
        OperatorRealization(2, 1, 1)
    with pytest.raises(ValueError):
        OperatorRealization(1, 2, 2, p=3)
    with pytest.raises(ValueError):
        OperatorRealization(-1, 5, 4)  # 20 exterior variables
    with pytest.raises(ValueError):
        OperatorRealization(1, 2, 2, max_degree=1)


def test_grassmann_nilpotency():
    r = OperatorRealization(-1, 1, 1)
    word_xx = (("x", 0, 0), ("x", 0, 0))
    word_dd = (("d", 0, 0), ("d", 0, 0))
    for exps in r.basis_exps():
        assert apply_word(r.theta, r.n, word_xx, exps) is None
        assert apply_word(r.theta, r.n, word_dd, exps) is None


def test_weyl_relation_one_variable():
    r = OperatorRealization(1, 1, 1, max_degree=6)
    for exps in r.basis_exps(4):
        dx = apply_word(r.theta, r.n, (("d", 0, 0), ("x", 0, 0)), exps)
        xd = apply_word(r.theta, r.n, (("x", 0, 0), ("d", 0, 0)), exps)
        got = dx[0] - (xd[0] if xd else 0)
        assert got == 1 and dx[1] == exps


def test_conjugate_coordinate_layout():
    r = OperatorRealization(1, 2, 2, p=1)
    assert r.p_atom(0, 1) == (-1, ("x", 0, 1))
    assert r.q_atom(0, 1) == (1, ("d", 0, 1))
    assert r.p_atom(1, 0) == (1, ("d", 1, 0))
    assert r.q_atom(1, 0) == (1, ("x", 1, 0))
    r = OperatorRealization(-1, 2, 2, p=1)
    assert r.p_atom(0, 0) == (1, ("x", 0, 0))
    assert r.q_atom(1, 1) == (1, ("x", 1, 1))


@pytest.mark.parametrize("theta", [1, -1])
def test_canonical_relations_all_splits(theta):
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for p in range(m + 1):
            rep = check_canonical_relations(
                OperatorRealization(theta, m, n, p))
            assert rep.ok
            assert rep.checked == 6 * (m * n) ** 2
            realize(theta, m, n, p)  # also passes the constructor gate


@pytest.mark.parametrize("theta", [1, -1])
def test_e_relations_exhaustive_small(theta):
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        rep = check_e_relations(realize(theta, m, n, p=m // 2))
        assert rep.ok
        assert rep.checked == 3 * (m * n) ** 4
        assert rep.failures == []


@pytest.mark.parametrize("theta", [1, -1])
def test_zeta_homomorphism(theta):
    for p in (0, 1, 2):
        rep = check_zeta(realize(theta, 2, 2, p))
        assert rep.ok and rep.checked == 16


def test_x_series_leading_coefficients():
    for theta in (1, -1):
        s = x_series(theta, 2, 3)
        e = defining_rep(2)
        for a in range(2):
            for b in range(2):
                want = (np.eye(2, dtype=object) if a == b
                        else np.zeros((2, 2), dtype=object))
                assert (s.coeffs[0][a, b] == want).all()
                assert (s.coeffs[1][a, b] == -theta * e[b, a]).all()


def test_x_series_matches_direct_expansion():
    # coefficient s: (-theta)^{s+1} sum over chains E_{c1 a} E_{c2 c1} ... E_{b cs}
    m, theta = 2, -1
    rep = tensor_square_rep(m)
    series = x_series(theta, m, 4, rep)
    dim = series.rep_dim
    from itertools import product
    for s in (1, 2, 3):
        for a in range(m):
            for b in range(m):
                acc = np.zeros((dim, dim), dtype=object)
                for chain in product(range(m), repeat=s):
                    mats = [rep[chain[0], a]]
                    for t in range(1, s):
                        mats.append(rep[chain[t], chain[t - 1]])
                    mats.append(rep[b, chain[s - 1]])
                    prod_mat = mats[0]
                    for mat in mats[1:]:
                        prod_mat = prod_mat @ mat
                    acc = acc + prod_mat
                acc = (-theta) ** (s + 1) * acc
                assert (series.coeffs[s + 1][a, b] == acc).all()


@pytest.mark.parametrize("theta", [1, -1])
def test_x_identities(theta):
    for m in (1, 2, 3):
        assert check_x_identities(x_series(theta, m, 4)).ok
    assert check_x_identities(x_series(theta, 2, 3, tensor_square_rep(2))).ok


def test_x_identities_detect_perturbation():
    s = x_series(1, 2, 3)
    s.coeffs[1][0, 0] = s.coeffs[1][0, 0].copy()
    s.coeffs[1][0, 0][0, 0] += 1
    report = check_x_identities(s)
    assert not report.ok and report.failures


@pytest.mark.parametrize("theta,m,n,p,order", [
    (1, 2, 1, 1, 4),
    (-1, 2, 2, 1, 3),
    (1, 2, 2, 0, 3),
    (-1, 1, 2, 1, 3),
])
def test_alpha_passes(theta, m, n, p, order):
    report = check_alpha(realize(theta, m, n, p), order)
    assert report.ok
    assert report.yangian.failures == [] and report.commutant.failures == []


def test_alpha_tensor_square_rep():
    report = check_alpha(realize(1, 2, 1, 1), 3,
                         series=x_series(1, 2, 3, tensor_square_rep(2)))
    assert report.ok


def test_alpha_detects_perturbed_series():
    real = realize(1, 2, 1, 1)
    s = x_series(1, 2, 4)
    s.coeffs[2][0, 0] = s.coeffs[2][0, 0].copy()
    s.coeffs[2][0, 0][0, 0] += 1
    report = check_alpha(real, 4, series=s)
    assert not report.ok
    assert not report.yangian.ok
    first = report.yangian.failures[0]
    assert first["rs"] == (1, 3)
    assert first["ijkl"] == (0, 0, 0, 0)
    assert first["vector"] == (1, (0, 0))
    assert first["image"] == ((0, (1, 1)), 2)
    # the witness entry is the nonzero image entry with the smallest key
    commutant_keys = [bad["image"][0] for bad in report.commutant.failures]
    assert commutant_keys == [(0, (0, 0)), (0, (1, 1))]


@st.composite
def realization_and_factors(draw):
    theta = draw(st.sampled_from((1, -1)))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    real = OperatorRealization(theta, m, n, draw(st.integers(0, m)))
    idx = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))

    def factor(kind, u, v):
        if kind == "e":
            return real.e_hat(*u, *v)
        if kind in "pq":
            c, atom = (real.p_atom if kind == "p" else real.q_atom)(*u)
            return c, (atom,)
        return 1, ((kind, *u),)

    single = st.builds(factor, st.sampled_from("xdpqe"), idx, idx)
    return real, draw(st.lists(single, min_size=1, max_size=3))


@settings(max_examples=80, deadline=None)
@given(realization_and_factors())
def test_cached_column_products_match_expanded_terms(case):
    real, factors = case
    ops = [Operator(real, [(c, None, word)]) for c, word in factors]
    coeff, word = 1, ()
    for c, w in factors:
        coeff, word = coeff * c, word + w
    for exps in real.basis_exps(2):
        vec = {(0, exps): 1}
        for op in reversed(ops):
            vec = op.apply(vec)
        got = {key: v for key, v in vec.items() if v != 0}
        assert got == apply_operator(real, [(coeff, None, word)],
                                     {(0, exps): 1})


def test_alpha_single_block_matches_module_action():
    # With one block, the u^{-r} coefficient acts as (-theta c)^{r-1} x_i d_j
    # in a 1-dimensional representation sending the generator to c; this is
    # the expansion of the plain coordinate module with parameter z = c.
    c = 3
    for theta in (1, -1):
        real = OperatorRealization(theta, 1, 2, p=0, max_degree=4)
        rep = {(0, 0): np.array([[c]], dtype=object)}
        series = x_series(theta, 1, 4, rep)
        for r in (1, 2, 3):
            for i in range(2):
                for j in range(2):
                    terms = alpha_coefficient(real, series, r, i, j)
                    for exps in block_basis(theta, 2, 2):
                        image = apply_operator(real, terms, {(0, exps): 1})
                        scale = (-theta * c) ** (r - 1)
                        expect = {}
                        res = apply_word(
                            real.theta, real.n, (("x", 0, i), ("d", 0, j)), exps)
                        if res and res[0] * scale != 0:
                            expect[(0, res[1])] = res[0] * scale
                        assert image == expect


def test_window_keys_shrink_with_raising_atoms():
    r = OperatorRealization(1, 1, 2, max_degree=6)
    full = {e for _, e in r.window_keys(0)}
    window = {e for _, e in r.window_keys(4)}
    assert window < full
    assert all(sum(e) <= 2 for e in window)
    g = OperatorRealization(-1, 2, 2)
    assert len(g.window_keys(4)) == 2 ** 4
