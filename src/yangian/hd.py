"""Operator realization of the coordinate Weyl/Clifford algebra.

The space is spanned by monomials in m*n variables x_{ai} (symmetric for
theta=+1, exterior for theta=-1), with derivations d_{ai}; words of
("x" | "d", block a, coordinate i) atoms act through `fock.apply_word`,
the same action that builds the module matrices.  On top of the
raw coordinates sit conjugate pairs (p, q) split at a block index, the
quadratic elements E^_{ai,bj} = q_{ai} p_{bj}, the gl_m action zeta_n, and
the generating-series homomorphism T_ij(u) -> delta_ij + sum_ab X_ab(u) (x)
E^_{ai,bj} with X(u) the inverse-matrix series of u + theta E^t.

Each suite states its identities as index arrays of operator products,
a linear term c X as c X 1 with the unit operator, and checks them through
`compiled.CompiledOperators`, exactly and in a few numpy passes.

For theta=+1 the assertion set is the "safe window" of monomials whose
degree leaves room for the raising atoms of the identity inside the
realization's degree budget, and for theta=-1 it is the whole space.

Every suite, and the series expansion, first counts its identity
evaluations, identities x window keys x rep_dim, as integers and refuses
more than WORK_MAX of them before anything is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import compiled
from .compiled import MAX_FAILURES, CompiledOperators, IdentityReport
from .fock import block_basis
from .linalg import FLOAT64_EXACT_LIMIT, _as_float64, int_matmul

# Largest theta = +1 basis a realization enumerates: the
# C(m n + truncation, truncation) monomials of degree <= truncation in m n
# variables.  The tests and the benchmark reach 924 (m = 3, n = 2,
# truncation 6); at 18564 (m = 4, n = 3, truncation 6) realize,
# e-relations and alpha-series at order 6 take 0.6, 1.0 and 1.7 s on a
# 2-core x86 VM.
BASIS_MAX_SIZE = 20000

# Largest number of identity evaluations, identities x window keys x
# rep_dim, that one suite or series expansion takes on.  The tests and the
# benchmark reach 2.5e5; e-relations at m = 4, n = 3, truncation 6 needs
# 5.7e6 (1.0 s on a 2-core x86 VM), while the theta = -1 alpha-series at
# m = n = 3, order 10 would need 9.5e6 (12 s) and is refused.
WORK_MAX = 6_000_000


def _check_work(what: str, identities: int, keys: int = 1,
                rep_dim: int = 1) -> None:
    """Refuse more than WORK_MAX identity evaluations, naming the count."""
    work = identities * keys * rep_dim
    if work > WORK_MAX:
        # a 2^(m n) window can make the count too long to print
        shown = work if work < 2 ** 64 else f"2^{work.bit_length() - 1} or more"
        raise ValueError(f"{what}: {shown} identity evaluations, over the "
                         f"budget of {WORK_MAX}")


class OperatorRealization:
    """Monomial space of m blocks of n variables and the derived operators."""

    def __init__(self, theta: int, m: int, n: int, p: int = 0,
                 max_degree: int = 6):
        if theta not in (1, -1):
            raise ValueError("theta must be +1 or -1")
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        if not 0 <= p <= m:
            raise ValueError("block split p must lie in 0..m")
        if theta == 1 and max_degree < 2:
            raise ValueError("degree budget must be at least 2")
        if theta == 1:
            size = math.comb(m * n + max_degree, max_degree)
            if size > BASIS_MAX_SIZE:
                raise ValueError(
                    f"realization basis of {size} monomials (m n = {m * n}, "
                    f"truncation {max_degree}), over the budget of "
                    f"{BASIS_MAX_SIZE}")
        self.theta = theta
        self.m = m
        self.n = n
        self.p = p
        self.nvars = m * n
        self.max_degree = m * n if theta == -1 else max_degree
        # the canonical relations that realize checks
        _check_work("canonical-relations", 6 * self.nvars ** 2,
                    self.window_size(2))

    # -- conjugate coordinates and quadratic elements ----------------------

    def p_atom(self, a: int, i: int):
        if a < self.p:
            return -self.theta, ("x", a, i)
        return 1, ("d", a, i)

    def q_atom(self, a: int, i: int):
        if a < self.p:
            return 1, ("d", a, i)
        return 1, ("x", a, i)

    def e_hat(self, a: int, i: int, b: int, j: int):
        """(coefficient, word) realizing E^_{ai,bj} = q_{ai} p_{bj}."""
        cq, aq = self.q_atom(a, i)
        cp, ap = self.p_atom(b, j)
        return cq * cp, (aq, ap)

    def zeta_terms(self, a: int, b: int) -> list:
        """Operator terms of the gl_m action: theta delta_ab n/2 + sum_k E^."""
        terms = []
        if a == b:
            terms.append((Fraction(self.theta * self.n, 2), None, ()))
        for k in range(self.n):
            c, word = self.e_hat(a, k, b, k)
            terms.append((c, None, word))
        return terms

    # -- bases --------------------------------------------------------------

    def basis_exps(self, cap: int | None = None) -> list[tuple]:
        """All exponent tuples of degree <= cap (defaults to the budget),
        in ascending order."""
        cap = self.max_degree if cap is None else cap
        if self.theta == -1:
            cap = min(cap, self.nvars)
        return sorted(e for d in range(cap + 1)
                      for e in block_basis(self.theta, self.nvars, d))

    def window_keys(self, raise_count: int, rep_dim: int = 1) -> list:
        """(rep index, exponents) pairs forming the assertion set.

        raise_count is the worst number of degree-raising atoms in the
        identity; for theta=+1 the window keeps that much headroom below
        the degree budget so the identity is asserted where a truncated
        realization would agree with the exact one.
        """
        if self.theta == -1:
            exps = self.basis_exps()
        else:
            exps = self.basis_exps(max(self.max_degree - raise_count, 0))
        return [(w, e) for e in exps for w in range(rep_dim)]

    def window_size(self, raise_count: int) -> int:
        """The number of exponent tuples in window_keys(raise_count),
        counted without enumerating them."""
        if self.theta == -1:
            return 2 ** self.nvars
        cap = max(self.max_degree - raise_count, 0)
        return math.comb(self.nvars + cap, cap)


def realize(theta: int, m: int, n: int, p: int = 0,
            max_degree: int = 6) -> OperatorRealization:
    """Construct a realization and verify its canonical relations."""
    r = OperatorRealization(theta, m, n, p, max_degree)
    report = check_canonical_relations(r)
    if not report.ok:
        raise ValueError(f"canonical relations failed: {report.failures[:1]}")
    return r


# ---------------------------------------------------------------------------
# relation suites


def check_canonical_relations(real: OperatorRealization) -> IdentityReport:
    """d x - theta x d = delta, with the same forms for the p/q pairs.

    The p/q rows are exactly the images of the raw rows under the
    automorphism x -> q, d -> p, so this suite also certifies that the
    automorphism preserves the relations.
    """
    th, nv = real.theta, real.nvars
    pairs = [(a, i) for a in range(real.m) for i in range(real.n)]
    # x_v, d_v, p_v, q_v at kind * nv + v, then the unit
    ops = ([[(1, None, (("x", *v),))] for v in pairs]
           + [[(1, None, (("d", *v),))] for v in pairs]
           + [[(c, None, (atom,))] for c, atom in (real.p_atom(*v) for v in pairs)]
           + [[(c, None, (atom,))] for c, atom in (real.q_atom(*v) for v in pairs)]
           + [[(1, None, ())]])
    tags = ("xx", "dd", "dx", "qq", "pp", "pq")
    kind_left = np.array([0, 1, 1, 3, 2, 2])
    kind_right = np.array([0, 1, 0, 3, 2, 3])
    shift = np.array([0, 0, 1, 0, 0, 1])
    shape = (nv, nv, len(tags))

    def rows(t):
        # [left_u, right_v]_theta - shift delta_uv
        u, v, case = np.unravel_index(t, shape)
        lo, ro = kind_left[case] * nv + u, kind_right[case] * nv + v
        ones, unit = np.ones_like(u), np.full_like(u, 4 * nv)
        return (np.stack([ones, -th * ones, -shift[case] * (u == v)], 1),
                np.stack([lo, ro, unit], 1), np.stack([ro, lo, unit], 1))

    def witness(t):
        u, v, case = (int(x) for x in np.unravel_index(t, shape))
        (a, i), (b, j) = pairs[u], pairs[v]
        return {"relation": tags[case], "a": a, "i": i, "b": b, "j": j}

    return CompiledOperators(real, 2, 1, ops, 3).check(
        "canonical-relations", math.prod(shape), rows, witness)


def check_e_relations(real: OperatorRealization) -> IdentityReport:
    """The three displayed exchange relations of the E^ elements."""
    th, nv = real.theta, real.nvars
    _check_work("e-relations", 3 * nv ** 4, real.window_size(4))
    idx = [(a, i) for a in range(real.m) for i in range(real.n)]
    # E^_{u,v} at u nv + v, then the unit
    ops = [[(c, None, word)] for c, word in
           (real.e_hat(*x, *y) for x in idx for y in idx)] + [[(1, None, ())]]
    shape = (nv, nv, nv, nv, 3)
    names = ("commutator", "straighten-left", "straighten-right")

    def rows(t):
        # commutator:       [E_uv, E_wz] - d_vw E_uz + d_uz E_wv
        # straighten-left:  E_uv E_wz - d_vw E_uz - th E_wv E_uz + th d_uv E_wz
        # straighten-right: E_wz E_uv - d_uz E_wv - th E_wv E_uz + th d_uv E_wz
        u, v, w, z, rel = np.unravel_index(t, shape)
        e_uv, e_wz, e_uz, e_wv = u * nv + v, w * nv + z, u * nv + z, w * nv + v
        d_vw, d_uz, d_uv = 1 * (v == w), 1 * (u == z), 1 * (u == v)
        first, third = rel == 0, rel == 2
        unit = np.full_like(u, nv * nv)
        return (
            np.stack([np.ones_like(u), np.where(first, -1, -th),
                      np.where(third, -d_uz, -d_vw),
                      np.where(first, d_uz, th * d_uv)], 1),
            np.stack([np.where(third, e_wz, e_uv),
                      np.where(first, e_wz, e_wv),
                      np.where(third, e_wv, e_uz),
                      np.where(first, e_wv, e_wz)], 1),
            np.stack([np.where(third, e_uv, e_wz),
                      np.where(first, e_uv, e_uz), unit, unit], 1))

    def witness(t):
        ai, bj, ck, dl, rel = (int(x) for x in np.unravel_index(t, shape))
        return {"relation": names[rel], "ai": idx[ai], "bj": idx[bj],
                "ck": idx[ck], "dl": idx[dl]}

    return CompiledOperators(real, 4, 1, ops, 4).check(
        "quadratic-relations", math.prod(shape), rows, witness)


def check_zeta(real: OperatorRealization) -> IdentityReport:
    """zeta_n is a gl_m homomorphism: [z(E_ab), z(E_cd)] matches gl_m."""
    m = real.m
    _check_work("zeta-hom", m ** 4, real.window_size(4))
    # zeta(E_ab) at a m + b, then the unit
    ops = ([real.zeta_terms(a, b) for a in range(m) for b in range(m)]
           + [[(1, None, ())]])
    shape = (m, m, m, m)

    def rows(t):
        # [z_ab, z_cd] - d_bc z_ad + d_da z_cb
        a, b, c, d = np.unravel_index(t, shape)
        ones, unit = np.ones_like(a), np.full_like(a, m * m)
        return (np.stack([ones, -ones, -1 * (b == c), 1 * (d == a)], 1),
                np.stack([a * m + b, c * m + d, a * m + d, c * m + b], 1),
                np.stack([c * m + d, a * m + b, unit, unit], 1))

    def witness(t):
        return {"abcd": tuple(int(x) for x in np.unravel_index(t, shape))}

    return CompiledOperators(real, 4, 1, ops, 4).check(
        "zeta-homomorphism", math.prod(shape), rows, witness)


# ---------------------------------------------------------------------------
# the inverse-matrix series and its identities in a gl_m representation


def defining_rep(m: int) -> np.ndarray:
    """rep[a, b] is the matrix unit E_ab of gl_m."""
    rep = np.zeros((m, m, m, m), dtype=object)
    a, b = np.indices((m, m))
    rep[a, b, a, b] = 1
    return rep


def tensor_square_rep(m: int) -> np.ndarray:
    """rep[a, b] = E_ab (x) 1 + 1 (x) E_ab on C^m (x) C^m."""
    eye = np.eye(m, dtype=object)
    base = defining_rep(m)
    return np.kron(base, eye) + np.kron(eye, base)


@dataclass
class XSeries:
    """Coefficients of the inverse-matrix series in a representation.

    rep is the (m, m, rep_dim, rep_dim) integer array of the gl_m action,
    rep[a, b] representing E_ab.  coeffs is one (order + 2, m, m, rep_dim,
    rep_dim) integer array: coeffs[k][a, b] is the representing matrix of
    the u^{-k-1} coefficient of entry (a, b); coeffs[0] is the identity
    coefficient and coeffs[1][a, b] = -theta rep(E_ba).
    """

    theta: int
    m: int
    order: int
    rep: np.ndarray
    rep_dim: int
    coeffs: np.ndarray


def _series_identities(m: int, order: int) -> int:
    """The exchange and generator identities check_x_identities asserts:
    m^2 + m^4 for each (r, s) != (0, 0) with r + s <= order."""
    return (math.comb(order + 2, 2) - 1) * (m ** 2 + m ** 4)


def _order_pairs(order: int) -> np.ndarray:
    """The (r, s) with r, s >= 0 and r + s <= order as the rows of one
    integer array, r-major then s ascending."""
    orders = np.arange(order + 1)
    return np.argwhere(np.add.outer(orders, orders) <= order)


def x_series(theta: int, m: int, order: int,
             rep: np.ndarray | None = None) -> XSeries:
    """Expand (u + theta E^t)^{-1} order by order in a representation,
    after counting the identities the expansion is checked on.

    With R the (m rep_dim)^2 block matrix holding rep[c, a] at block
    (a, c), coefficient k + 1 is -theta R times coefficient k, each read as
    the block matrix of its m x m blocks.  rep is an (m, m, d, d) array;
    a non-integer entry raises ValueError, where converting it to an
    integer array would truncate it.
    """
    rep = defining_rep(m) if rep is None else np.asarray(rep, dtype=object)
    ints = [int(x) for x in rep.flat]
    if ints != list(rep.flat):
        raise ValueError("rep must have integer entries")
    rep = np.array(ints, dtype=object).reshape(rep.shape)
    dim = rep.shape[2]
    _check_work(f"x_series to order {order}", _series_identities(m, order),
                rep_dim=dim)
    size = m * dim
    step = -theta * rep.transpose(1, 2, 0, 3).reshape(size, size)
    flat = np.empty((order + 2, size, size), dtype=object)
    flat[0] = np.eye(size, dtype=object)
    for k in range(order + 1):
        flat[k + 1] = int_matmul(step, flat[k])
    coeffs = flat.reshape(order + 2, m, dim, m, dim).transpose(0, 1, 3, 2, 4)
    return XSeries(theta, m, order, rep, dim, coeffs.copy())


def check_x_identities(series: XSeries) -> IdentityReport:
    """Exchange identity (u-v) X(u)X(v) = X(v) - X(u) and the induced
    generator relation, coefficient-by-coefficient through the order.

    Each (r, s) != (0, 0) with r + s <= order has m^2 exchange, then m^4
    generator identities, read r-major in passes of at most compiled._CHUNK
    generator entries (and at least one (r, s)); a pass forms its products
    x(k)_ab x(l)_cd by one batched matmul.  They are float64 when
    max(4, 2 m) dim T^2 < `FLOAT64_EXACT_LIMIT`, T the largest |entry| of
    x(0..order), as a compared value sums at most four products (generator)
    or two m-term sums of them (exchange), each a dim-term sum; else Python
    ints.  The series is cast once, by `_as_float64`, and T read off the
    cast, which can only pass the bound when the exact T does.
    """
    th, m, K, dim = series.theta, series.m, series.order, series.rep_dim
    _check_work("appendix-x-identities", _series_identities(m, K),
                rep_dim=dim)
    # x(0..K), then the zero block that index -1 reads as x(-1)
    x = np.concatenate([series.coeffs[:K + 1], np.zeros(
        (1, m, m, dim, dim), dtype=object)])
    cast = _as_float64(x)
    if cast is not None and (max(4, 2 * m) * dim
                             * np.abs(cast).max(initial=0) ** 2
                             < FLOAT64_EXACT_LIMIT):
        x = cast
    rs = _order_pairs(K)[1:]
    width = m ** 2 + m ** 4
    per = max(1, compiled._CHUNK // max(m ** 4 * dim ** 2, 1))
    swap = (0, 3, 4, 1, 2, 5, 6)   # [row, a, b, c, d] -> [row, c, d, a, b]
    hits = []
    for w0 in range(0, len(rs), per):
        r, s = rs[w0:w0 + per].T
        rows = len(r)
        # p[j][row, a, b, c, d] = x(k_j)_ab x(l_j)_cd, matrix indices last,
        # (k, l): (r,s-1) (s-1,r) (r-1,s) (s,r-1) (r-1,s-1) (s-1,r-1)
        k = np.stack([r, s - 1, r - 1, s, r - 1, s - 1])
        p = (x[k].reshape(6, rows, m * m * dim, dim)
             @ x[k[[1, 0, 3, 2, 5, 4]]].transpose(0, 1, 4, 2, 3, 5).reshape(
                 6, rows, dim, m * m * dim))
        p = p.reshape(6, rows, m, m, dim, m, m, dim).transpose(
            0, 1, 2, 3, 5, 6, 4, 7)
        # (x(r) x(s-1) - x(r-1) x(s))_ab = ([r=0] x(s-1) - [s=0] x(r-1))_ab
        exchange = (np.diagonal(p[0] - p[2], axis1=2, axis2=3).sum(axis=-1)
                    != x[np.where(r == 0, s - 1, -1)]
                    - x[np.where(s == 0, r - 1, -1)])
        generator = (p[0] - p[1].transpose(swap) - p[2] + p[3].transpose(swap)
                     != th * (p[4] - p[5]).swapaxes(1, 3))
        del p   # before the next pass forms its products
        bad = np.hstack([exchange.any(axis=(3, 4)).reshape(rows, m * m),
                         generator.any(axis=(5, 6)).reshape(rows, m ** 4)])
        flags = np.flatnonzero(bad)[:MAX_FAILURES - len(hits)]
        hits += (w0 * width + flags).tolist()
        if len(hits) == MAX_FAILURES:
            break
    failures = [
        {"identity": "exchange", "rs": tuple(rs[h // width].tolist()),
         "ab": divmod(h % width, m)} if h % width < m * m else
        {"identity": "generator", "rs": tuple(rs[h // width].tolist()),
         "abcd": tuple(int(i) for i in
                       np.unravel_index(h % width - m * m, (m,) * 4))}
        for h in hits]
    checked = hits[-1] + 1 if len(hits) == MAX_FAILURES else len(rs) * width
    return IdentityReport("series-identities", not failures, checked, None,
                          failures)


# ---------------------------------------------------------------------------
# the generating-series homomorphism


def alpha_coefficient(real: OperatorRealization, series: XSeries,
                      r: int, i: int, j: int) -> list:
    """Image of the u^{-r} generator coefficient as operator terms."""
    if r == 0:
        return [(1, None, ())] if i == j else []
    terms = []
    for a in range(real.m):
        for b in range(real.m):
            mat = series.coeffs[r - 1][a, b]
            if not mat.any():
                continue
            ce, word = real.e_hat(a, i, b, j)
            terms.append((ce, mat, word))
    return terms


@dataclass
class AlphaReport:
    ok: bool
    yangian: IdentityReport
    commutant: IdentityReport


def check_alpha(real: OperatorRealization, order: int,
                series: XSeries | None = None) -> AlphaReport:
    """Verify the generating-series homomorphism through the given order.

    Checks the exchange relation between generator coefficients at every
    u^{-r} v^{-s} with r + s <= order, and that all coefficients commute
    with the combined gl_m action (representation part plus zeta part).
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if series is None:
        series = x_series(real.theta, real.m, order)
    n, m = real.n, real.m
    _check_work("alpha-series",
                math.comb(order + 2, 2) * n ** 4 + m * m * order * n * n,
                real.window_size(4), series.rep_dim)
    # T(r)_ij at (r n + i) n + j, then the gl_m embeddings at gl + c m + d
    ops = [alpha_coefficient(real, series, r, i, j)
           for r in range(order + 2) for i in range(n) for j in range(n)]
    gl = len(ops)
    ops += [[(1, series.rep[c, d], ())] + real.zeta_terms(c, d)
            for c in range(m) for d in range(m)]

    def t(r, i, j):
        return (r * n + i) * n + j

    rs = _order_pairs(order)
    exchange = (len(rs), n, n, n, n)
    commutant = (m, m, order, n, n)
    def exchange_rows(x):
        # [T(r+1)_ij, T(s)_kl] - [T(r)_ij, T(s+1)_kl]
        #     = T(r)_kj T(s)_il - T(s)_kj T(r)_il
        w, i, j, k, l = np.unravel_index(x, exchange)
        r, s = rs[w].T
        ones = np.ones_like(r)
        return (np.stack([ones, -ones, ones, -ones, -ones, ones], 1),
                np.stack([t(r + 1, i, j), t(s, k, l), t(s + 1, k, l),
                          t(r, i, j), t(r, k, j), t(s, k, j)], 1),
                np.stack([t(s, k, l), t(r + 1, i, j), t(r, i, j),
                          t(s + 1, k, l), t(s, i, l), t(r, i, l)], 1))

    def commutant_rows(x):
        # [gl(E_cd), T(r)_ij] for r = 1..order
        c, d, r, i, j = np.unravel_index(x, commutant)
        glemb, coeff = gl + c * m + d, t(r + 1, i, j)
        ones = np.ones_like(c)
        return (np.stack([ones, -ones], 1), np.stack([glemb, coeff], 1),
                np.stack([coeff, glemb], 1))

    def exchange_witness(x):
        w, *ijkl = (int(y) for y in np.unravel_index(x, exchange))
        return {"rs": tuple(int(y) for y in rs[w]), "ijkl": tuple(ijkl)}

    def commutant_witness(x):
        c, d, r, i, j = (int(y) for y in np.unravel_index(x, commutant))
        return {"cd": (c, d), "r": r + 1, "ij": (i, j)}

    suite = CompiledOperators(real, 4, series.rep_dim, ops, 6)
    yang_report = suite.check("generator-exchange", math.prod(exchange),
                              exchange_rows, exchange_witness)
    comm_report = suite.check("gl-commutant", math.prod(commutant),
                              commutant_rows, commutant_witness)
    return AlphaReport(yang_report.ok and comm_report.ok,
                       yang_report, comm_report)
