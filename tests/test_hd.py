"""Tests for the operator realization and the series-homomorphism checks."""

import math
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yangian import cli, compiled, hd
from yangian.compiled import CompiledOperators
from yangian.fock import apply_word, block_basis
from yangian.hd import (
    OperatorRealization,
    alpha_coefficient,
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

import reference
from reference import Operator, apply_operator


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


def test_x_series_rejects_a_non_integer_rep():
    # an int64 conversion would truncate 1/2 to 0 without a word
    half = defining_rep(2) * F(1, 2)
    with pytest.raises(ValueError, match="integer entries"):
        x_series(1, 2, 3, half)
    with pytest.raises(ValueError, match="integer entries"):
        x_series(1, 2, 3, defining_rep(2) * 0.5)
    # integral Fractions and int64 entries are integers
    want = x_series(1, 2, 3).coeffs
    for rep in (half * 2, defining_rep(2).astype(np.int64)):
        series = x_series(1, 2, 3, rep)
        assert series.coeffs.dtype == object
        assert (series.coeffs == want).all()


def test_order_pairs_match_the_nested_enumeration():
    for order in range(13):
        want = [(r, s) for r in range(order + 1) for s in range(order + 1 - r)]
        assert hd._order_pairs(order).tolist() == [list(rs) for rs in want]


def test_order_pairs_at_the_alpha_budget_edge_stay_small():
    # theta = -1, m = n = 1, order 2446 is the largest alpha-series order
    # within WORK_MAX: 3.0M pairs, which a list of tuples holds in 394 MB
    tracemalloc.start()
    try:
        rs = hd._order_pairs(2446)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rs) == 2447 * 2448 // 2
    assert peak < 150 * 2 ** 20


def test_x_identities_detect_perturbation():
    s = x_series(1, 2, 3)
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
        rep = np.full((1, 1, 1, 1), c, dtype=object)
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


@pytest.mark.parametrize("theta,m,n,p,order", [
    (1, 2, 1, 1, 3),
    (-1, 2, 2, 1, 3),
    (1, 1, 2, 0, 2),
    (-1, 3, 1, 1, 2),
])
def test_work_counts_are_the_evaluations_made(monkeypatch, theta, m, n, p,
                                              order):
    # each budget count is identities x window keys x rep_dim, recorded here
    # in place of the budget check and compared with what the suites did
    counted = {}

    def record(what, identities, keys=1, rep_dim=1):
        counted[what.split()[0]] = (identities, keys * rep_dim)

    monkeypatch.setattr(hd, "_check_work", record)
    real = realize(theta, m, n, p)
    series = x_series(theta, m, order)
    alpha = check_alpha(real, order, series=series)
    reports = {
        "canonical-relations": (check_canonical_relations(real), 2, 1),
        "e-relations": (check_e_relations(real), 4, 1),
        "zeta-hom": (check_zeta(real), 4, 1),
        "appendix-x-identities": (check_x_identities(series), None, m),
    }
    for what, (rep, raise_count, rep_dim) in reports.items():
        keys = 1 if raise_count is None else len(real.window_keys(raise_count))
        assert rep.ok and counted[what] == (rep.checked, keys * rep_dim)
    assert counted["x_series"] == counted["appendix-x-identities"]
    assert counted["alpha-series"] == (
        alpha.yangian.checked + alpha.commutant.checked,
        len(real.window_keys(4, series.rep_dim)))
    assert len(counted) == 6


def _flip_sign(real, kind, a, i):
    """Negate the coefficient of one p or q atom of this realization."""
    original = getattr(real, f"{kind}_atom")

    def atom(b, j):
        c, word = original(b, j)
        return (-c if (b, j) == (a, i) else c), word

    setattr(real, f"{kind}_atom", atom)
    return real


def _assert_suites_match_reference(real, order, series):
    assert (check_canonical_relations(real)
            == reference.canonical_relations(real))
    e = check_e_relations(real)
    assert e == reference.e_relations(real)
    # below the raise budget of 4 the window is the constant monomial, and
    # the compiled basis must still reach degree 0 + 4
    assert e.window_cap == (None if real.theta == -1
                            else max(real.max_degree - 4, 0))
    assert check_zeta(real) == reference.zeta(real)
    alpha = check_alpha(real, order, series=series)
    assert (alpha.yangian, alpha.commutant) == reference.alpha(real, order,
                                                               series)
    assert alpha.ok == (alpha.yangian.ok and alpha.commutant.ok)


@st.composite
def perturbed_realizations(draw):
    theta = draw(st.sampled_from((1, -1)))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    # truncations 2 and 3 sit below the raise budget of 4
    truncation = draw(st.sampled_from((2, 3, 4, 6)))
    real = OperatorRealization(theta, m, n, draw(st.integers(0, m)),
                               truncation)
    flip = draw(st.none() | st.tuples(st.sampled_from("pq"),
                                      st.integers(0, m - 1),
                                      st.integers(0, n - 1)))
    if flip:
        _flip_sign(real, *flip)
    order = draw(st.integers(2, 3))
    series = x_series(theta, m, order)
    bump = draw(st.none() | st.tuples(st.integers(1, order + 1),
                                      st.integers(0, m - 1),
                                      st.integers(0, m - 1),
                                      st.integers(0, m - 1),
                                      st.integers(0, m - 1),
                                      st.sampled_from((-2, 1, 3))))
    if bump:
        _bump(series, *bump)
    return real, order, series


def _bump(series, k, a, b, row, col, delta):
    """Add delta to one entry of one series coefficient; returns series."""
    series.coeffs[k][a, b][row, col] += delta
    return series


@st.composite
def bumped_series(draw):
    theta = draw(st.sampled_from((1, -1)))
    m = draw(st.integers(1, 3))
    order = draw(st.integers(2, 7))
    series = x_series(theta, m, order,
                      tensor_square_rep(m) if draw(st.booleans()) else None)
    d = series.rep_dim
    # check_x_identities forms its products in one float64 piece while
    # d T^2 < 2^53, T the largest |entry|: bumped by +-edge, a zero entry
    # takes T to the last value on that side, and by +-(edge + 1) past it,
    # to two limbs; a 2^62 entry takes the products to residue primes
    edge = math.isqrt((2 ** 53 - 1) // d)
    for bump in draw(st.lists(st.tuples(
            st.integers(0, order + 1), st.integers(0, m - 1),
            st.integers(0, m - 1), st.integers(0, d - 1),
            st.integers(0, d - 1), st.sampled_from(
                (-2, 1, 3, edge, -edge, edge + 1, -edge - 1, 2 ** 62))),
            max_size=4)):
        _bump(series, *bump)
    return series


@settings(max_examples=60, deadline=None)
@given(bumped_series())
@example(x_series(1, 0, 3))
# more than MAX_FAILURES failures, in two (r, s) and so two passes of size 1
@example(_bump(x_series(-1, 2, 5), 1, 0, 1, 1, 0, 1))
# x(k) = c^k with c = 2^27 + 1 and x(2) lowered by 1 to 2^54 + 2^28: the
# exchange identities at (1, 2) and (2, 1) fail by 1, but float64 rounds
# x(1) x(1) = 2^54 + 2^28 + 1 to x(2), so only exact products see it
@example(_bump(x_series(1, 1, 3, np.full((1, 1, 1, 1), -(2 ** 27 + 1),
                                        dtype=object)), 2, 0, 0, 0, 0, -1))
def test_x_identities_match_reference(series):
    want = reference.x_identities(series)
    # passes of one (r, s), of a few, and of the default size
    for chunk in (1, 200, compiled._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled, "_CHUNK", chunk)
            got = check_x_identities(series)
        assert (got.ok, got.checked, got.failures) == (
            want.ok, want.checked, want.failures)
        # the report prints each failure dict
        assert list(map(str, got.failures)) == list(map(str, want.failures))


@settings(max_examples=30, deadline=None)
@given(perturbed_realizations())
# truncations 2 and 3 at theta = +1, below the raise budget of 4, plain
# and with a flipped atom sign
@example((OperatorRealization(1, 2, 2, 1, 2), 3, x_series(1, 2, 3)))
@example((OperatorRealization(1, 2, 2, 1, 3), 3, x_series(1, 2, 3)))
@example((_flip_sign(OperatorRealization(1, 2, 2, 1, 2), "p", 1, 1), 3,
          x_series(1, 2, 3)))
@example((_flip_sign(OperatorRealization(1, 2, 2, 1, 3), "p", 1, 1), 3,
          x_series(1, 2, 3)))
# failing keys whose images have two nonzero entries
@example((OperatorRealization(1, 2, 1, 0), 3,
          _bump(x_series(1, 2, 3), 2, 0, 0, 0, 0, 1)))
# n = 1: zeta's theta n / 2 = +-1/2 makes f = 2, so the failing zeta
# identities carry images scaled by f^2 = 4, through the unit operator too
@example((_flip_sign(OperatorRealization(1, 2, 1, 1, 3), "p", 1, 0), 3,
          x_series(1, 2, 3)))
@example((_flip_sign(OperatorRealization(-1, 2, 1, 1, 3), "p", 1, 0), 3,
          x_series(-1, 2, 3)))
# e-relations in two passes: identity 85 (straighten-left at 0, 0, 4, 4)
# in the first and identity 504 (the commutator at 0, 4, 4, 0) in the
# second both hold the product E_40 E_04, with signs +1 and -1, and the
# flipped p atom makes 504 fail with no failure before it
@example((_flip_sign(OperatorRealization(-1, 2, 3, 1, 6), "p", 1, 1), 3,
          x_series(-1, 2, 3)))
def test_compiled_suites_match_reference(case):
    # verdicts, checked counts, window caps and every failure dict; the
    # int64 bound's two sides are in test_int64_bound_both_sides
    _assert_suites_match_reference(*case)


@pytest.mark.parametrize("theta,m,n,p", [(-1, 2, 2, 1), (1, 2, 1, 0)])
def test_small_chunks_match_reference(theta, m, n, p):
    # passes of one or a few entries split the identities and the window
    # keys; at the default size each suite takes one pass
    for chunk in (1, 8, compiled._CHUNK):
        real = OperatorRealization(theta, m, n, p)
        _flip_sign(real, "q", 0, 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled, "_CHUNK", chunk)
            _assert_suites_match_reference(
                real, 3, _bump(x_series(theta, m, 3), 2, 0, 0, 0, 0, 1))


@st.composite
def words_on_monomials(draw):
    """A suite of random words, 0 to 4 atoms over few distinct atoms, and
    indices of window monomials, of monomials beyond the window and of the
    sink -1 for its word maps to act on."""
    theta = draw(st.sampled_from((1, -1)))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    real = OperatorRealization(theta, m, n, draw(st.integers(0, m)),
                               draw(st.sampled_from((2, 4, 6))))
    atom = st.tuples(st.sampled_from("xd"), st.integers(0, m - 1),
                     st.integers(0, n - 1))
    words = draw(st.lists(st.lists(atom, max_size=4).map(tuple), min_size=1,
                          max_size=6))
    picks = st.lists(st.integers(0, 10 ** 6), max_size=6)
    return (real, draw(st.sampled_from((2, 4))), words, draw(picks),
            draw(picks), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(words_on_monomials())
# theta = 1: d_01 and d_00 d_00 annihilate 1 and x_01, x_00 d_00 d_00
# repeats an atom, and the sink -1 is a source
@example((OperatorRealization(1, 1, 2, 0, 4), 2,
          [(("d", 0, 1),), (("x", 0, 0), ("d", 0, 0), ("d", 0, 0))], [0, 1],
          [0], True))
# theta = -1: d_01 on x_00 x_01 takes the sign of the odd prefix x_00, and
# x_01 x_01 repeats an atom and annihilates
@example((OperatorRealization(-1, 1, 2, 0), 2,
          [(("d", 0, 1),), (("x", 0, 1), ("d", 0, 0), ("x", 0, 0)),
           (("x", 0, 1), ("x", 0, 1))], [0, 1, 2, 3], [], True))
def test_word_maps_match_apply_word(case):
    # each word map of a suite, chained from one map per atom, against
    # apply_word of the whole word on each monomial
    real, budget, words, window, beyond, sink = case
    words = [*dict.fromkeys(words), ()]   # and the unit's empty word
    monos = [e for _, e in real.window_keys(budget)]
    maps = compiled._WordMaps(real.theta, real.n, words, monos)
    # the monomials beyond the window, as a table's words reach them
    nw = len(monos)
    maps(np.arange(nw))
    src = [k % nw for k in window]
    if len(maps.monos) > nw:
        src += [nw + k % (len(maps.monos) - nw) for k in beyond]
    src += [-1] * sink
    coef, tgt = maps(np.array(src, dtype=np.int64))
    assert coef.shape == tgt.shape == (len(words), len(src))
    for w, word in enumerate(words):
        for s, k in enumerate(src):
            hit = (apply_word(real.theta, real.n, word, maps.monos[k])
                   if k >= 0 else None)
            if hit is None:
                assert (coef[w, s], tgt[w, s]) == (0, -1)
            else:
                assert (coef[w, s], maps.monos[tgt[w, s]]) == hit


def _compiled_dtypes(monkeypatch):
    seen = []
    original = CompiledOperators.__init__

    def record(self, *args):
        original(self, *args)
        seen.append(self.dtype)

    monkeypatch.setattr(CompiledOperators, "__init__", record)
    return seen


@pytest.mark.parametrize("order,bump,dtype", [
    (22, 0, np.int64),      # the last order whose bound fits int64
    (24, 0, object),
    (3, 1, np.int64),
    (3, 2 ** 70, object),   # a coefficient past int64 itself
])
def test_int64_bound_both_sides(monkeypatch, order, bump, dtype):
    seen = _compiled_dtypes(monkeypatch)
    real = OperatorRealization(1, 2, 1, 1)
    series = x_series(1, 2, order, tensor_square_rep(2))
    if bump:
        _bump(series, 2, 0, 1, 1, 2, bump)
    alpha = check_alpha(real, order, series=series)
    assert seen == [dtype]
    assert (alpha.yangian, alpha.commutant) == reference.alpha(real, order,
                                                               series)
    assert alpha.ok == (not bump)


@pytest.mark.parametrize("theta", [1, -1])
@pytest.mark.parametrize("n", [1, 2])
def test_witnesses_print_as_a_per_suite_compile(monkeypatch, theta, n):
    # a flipped p atom fails all three suites; at odd n zeta's theta n / 2
    # gives a table that holds it f = 2, where the canonical relations and
    # e-relations have f = 1, and each suite must print over its own f
    real = _flip_sign(OperatorRealization(theta, 2, n, 1, 3), "p", 1, 0)
    for check in (check_canonical_relations, check_e_relations, check_zeta):
        got = check(real)
        assert not got.ok
        assert str(got.failures) == str(
            reference.per_suite_compile(real, check).failures)
    # realize's error quotes the first canonical witness
    flipped = _flip_sign(OperatorRealization(theta, 2, n, 1, 3), "p", 1, 0)
    monkeypatch.setattr(OperatorRealization, "p_atom",
                        staticmethod(flipped.p_atom))
    want = reference.per_suite_compile(flipped, check_canonical_relations)
    with pytest.raises(ValueError) as err:
        realize(theta, 2, n, 1, 3)
    assert str(err.value) == f"canonical relations failed: {want.failures[:1]}"


def _compiled_groups(monkeypatch):
    built = []
    original = CompiledOperators.__init__

    def record(self, real, raise_budget, rep_dim, groups, slots):
        original(self, real, raise_budget, rep_dim, groups, slots)
        built.append(list(groups))

    monkeypatch.setattr(CompiledOperators, "__init__", record)
    return built


@pytest.mark.parametrize("theta,truncation,tables", [
    # one window for the three suites, and alpha-series' own table
    (-1, 6, [["canonical-relations", "e-relations", "zeta-hom", "unit"],
             ["alpha-series"]]),
    # the canonical window (cap 4), the raise-4 window (cap 2), alpha's
    (1, 6, [["canonical-relations", "unit"],
            ["e-relations", "zeta-hom", "unit"], ["alpha-series"]]),
    # truncation 2: both windows are the constant monomial
    (1, 2, [["canonical-relations", "e-relations", "zeta-hom", "unit"],
            ["alpha-series"]]),
])
def test_operator_checks_compile_each_window_once(monkeypatch, theta,
                                                   truncation, tables):
    built = _compiled_groups(monkeypatch)
    cfg = cli.config_from_dict({
        "theta": theta, "n": 1, "p": 1, "q": 2, "mu": ["1/7", "3/7", "5/7"],
        "nu": [1, 1, 1], "order": 3, "truncation": truncation,
        "checks": ["e-relations", "zeta-hom", "alpha-series",
                   "appendix-x-identities"]})
    assert cli.run(cfg).ok
    assert built == tables


def test_the_canonical_window_table_is_not_kept():
    # theta = +1 above truncation 2: realize's table has no later reader
    real = realize(1, 2, 1, 1, 6)
    assert real._tables == {}
    check_zeta(real)
    assert list(real._tables) == [2]
    # the word maps and the monomial index are compile-only
    kept = vars(real._tables[2])
    assert "index" not in kept
    assert not any(isinstance(v, compiled._WordMaps) for v in kept.values())


@pytest.mark.parametrize("theta,over", [(1, 0), (1, 1), (-1, 0), (-1, 1)])
def test_e_relations_over_budget_compile_no_e_hat(monkeypatch, theta, over):
    # WORK_MAX at and just below the e-relations' work count: over it, the
    # suite refuses with the budget message and no table holds an E^
    args = (theta, 2, 2, 1, 6)
    work = math.prod(OperatorRealization(*args).suite_work("e-relations"))
    monkeypatch.setattr(hd, "WORK_MAX", work - over)
    built = _compiled_groups(monkeypatch)
    real = realize(*args)
    assert check_zeta(real).ok
    if over:
        with pytest.raises(ValueError, match=re.escape(
                f"e-relations: {work} identity evaluations, over the "
                f"budget of {work - 1}")):
            check_e_relations(real)
        assert not any("e-relations" in groups for groups in built)
    else:
        assert check_e_relations(real).ok
        assert sum("e-relations" in groups for groups in built) == 1
