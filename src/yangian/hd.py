"""Operator realization of the coordinate Weyl/Clifford algebra.

The space is spanned by monomials in m*n variables x_{ai} (symmetric for
theta=+1, exterior for theta=-1), with derivations d_{ai}; words of
("x" | "d", block a, coordinate i) atoms act through `fock.apply_word`,
the same action that builds the module matrices.  On top of the
raw coordinates sit conjugate pairs (p, q) split at a block index, the
quadratic elements E^_{ai,bj} = q_{ai} p_{bj}, the gl_m action zeta_n, and
the generating-series homomorphism T_ij(u) -> delta_ij + sum_ab X_ab(u) (x)
E^_{ai,bj} with X(u) the inverse-matrix series of u + theta E^t.

An operator is a list of (coefficient, rep columns | None, atom word)
terms; `Operator` wraps one with a cache of its exact image columns, each
filled on first use by `apply_operator` on a single basis key.  Every
identity is a signed sum of operator products, applied right to left,
column by column, to each key of an assertion window; a nonzero image is
a failure.  Columns are exact sparse dictionaries and never truncated
(atoms act on exponent tuples of any degree), so by linearity the result
equals applying the expanded term list to the key, and verdicts, checked
counts and window caps are those of the term-by-term expansion.  Column
caches belong to the operators one check call builds and die with it.

For theta=+1 the assertion set is the "safe window" of monomials whose
degree leaves room for the raising atoms of the identity inside the
realization's degree budget, and for theta=-1 it is the whole space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import apply_word, block_basis

_MAX_FAILURES = 5

# Largest theta = +1 basis a realization enumerates: the
# C(m n + truncation, truncation) monomials of degree <= truncation in m n
# variables.  The tests and the benchmark reach 924 (m = 3, n = 2,
# truncation 6); at 18564 (m = 4, n = 3, truncation 6) e-relations and
# alpha-series take 18-26 s on a 2-core x86 VM.
BASIS_MAX_SIZE = 20000


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
        if theta == -1 and m * n > 16:
            raise ValueError("exterior space limited to 16 variables")
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


def realize(theta: int, m: int, n: int, p: int = 0,
            max_degree: int = 6) -> OperatorRealization:
    """Construct a realization and verify its canonical relations."""
    r = OperatorRealization(theta, m, n, p, max_degree)
    report = check_canonical_relations(r)
    if not report.ok:
        raise ValueError(f"canonical relations failed: {report.failures[:1]}")
    return r


# ---------------------------------------------------------------------------
# operators: a term list of (coefficient, rep columns | None, atom word)
# triples acting on sparse vectors keyed by (rep index, exponent tuple).


def _matrix_cols(mat: np.ndarray) -> dict:
    """Sparse column map {col: ((row, value), ...)} of a dense matrix."""
    cols = {}
    nrows, ncols = mat.shape
    for c in range(ncols):
        pairs = tuple((r, mat[r, c]) for r in range(nrows) if mat[r, c] != 0)
        if pairs:
            cols[c] = pairs
    return cols


def apply_operator(real: OperatorRealization, terms: list, vec: dict) -> dict:
    out: dict = {}
    theta, n = real.theta, real.n
    for coeff, cols, word in terms:
        for (w, exps), c0 in vec.items():
            res = apply_word(theta, n, word, exps)
            if res is None:
                continue
            cw, e2 = res
            base = coeff * cw * c0
            for w2, val in ((w, 1),) if cols is None else cols.get(w, ()):
                out[w2, e2] = out.get((w2, e2), 0) + base * val
    return {key: v for key, v in out.items() if v != 0}


class Operator:
    """A term list with a lazily filled cache of its exact image columns."""

    __slots__ = ("real", "terms", "cols")

    def __init__(self, real: OperatorRealization, terms: list):
        self.real = real
        self.terms = terms
        self.cols: dict = {}

    def column(self, key) -> dict:
        col = self.cols.get(key)
        if col is None:
            col = self.cols[key] = apply_operator(self.real, self.terms,
                                                  {key: 1})
        return col

    def apply(self, vec: dict, out: dict | None = None, scale=1) -> dict:
        """Add scale times the image of a sparse vector to out (a new dict
        by default); entries may cancel to zero."""
        out = {} if out is None else out
        cols = self.cols
        for key, c in vec.items():
            col = cols.get(key)
            if col is None:
                col = self.column(key)
            c *= scale
            for key2, v in col.items():
                out[key2] = out.get(key2, 0) + c * v
        return out


def _commutator(a: Operator, b: Operator, sign=1) -> list:
    """a b - sign b a as a signed sum of products."""
    return [(1, (a, b)), (-sign, (b, a))]


@dataclass
class IdentityReport:
    name: str
    ok: bool
    checked: int
    window_cap: int | None  # degree cap of the assertion set; None = whole space
    failures: list


class _Checker:
    """Accumulates identity checks over a shared assertion window."""

    def __init__(self, real: OperatorRealization, name: str,
                 raise_budget: int, rep_dim: int = 1):
        self.name = name
        self.keys = real.window_keys(raise_budget, rep_dim)
        self.cap = (None if real.theta == -1
                    else max(real.max_degree - raise_budget, 0))
        self.checked = 0
        self.failures: list = []

    def expect_zero(self, expr: list, witness: dict) -> None:
        """Assert that a signed sum [(coefficient, (A, B, ...)), ...] of
        operator products vanishes on every window key."""
        self.checked += 1
        if len(self.failures) >= _MAX_FAILURES:
            return
        # (coefficient, rightmost factor, middle factors rightmost first,
        #  leftmost factor or None), so the key loop does no slicing
        expr = [(c, ops[-1], ops[-2:0:-1], ops[0] if len(ops) > 1 else None)
                for c, ops in expr if c != 0]
        for key in self.keys:
            acc: dict = {}
            for coeff, right, middle, left in expr:
                vec = right.column(key)
                for op in middle:
                    vec = op.apply(vec)
                if left is not None:
                    left.apply(vec, acc, coeff)
                    continue
                for key2, v in vec.items():
                    acc[key2] = acc.get(key2, 0) + coeff * v
            if any(acc.values()):
                bad = dict(witness)
                bad["vector"] = key
                bad["image"] = min(item for item in acc.items() if item[1] != 0)
                self.failures.append(bad)
                return

    def report(self) -> IdentityReport:
        return IdentityReport(self.name, not self.failures, self.checked,
                              self.cap, self.failures)


# ---------------------------------------------------------------------------
# relation suites


def check_canonical_relations(real: OperatorRealization) -> IdentityReport:
    """d x - theta x d = delta, with the same forms for the p/q pairs.

    The p/q rows are exactly the images of the raw rows under the
    automorphism x -> q, d -> p, so this suite also certifies that the
    automorphism preserves the relations.
    """
    th = real.theta
    chk = _Checker(real, "canonical-relations", raise_budget=2)
    pairs = [(a, i) for a in range(real.m) for i in range(real.n)]

    def single(coeff, atom):
        return Operator(real, [(coeff, None, (atom,))])

    unit = Operator(real, [(1, None, ())])
    x = {v: single(1, ("x", *v)) for v in pairs}
    d = {v: single(1, ("d", *v)) for v in pairs}
    p = {v: single(*real.p_atom(*v)) for v in pairs}
    q = {v: single(*real.q_atom(*v)) for v in pairs}
    cases = [("xx", x, x, 0), ("dd", d, d, 0), ("dx", d, x, 1),
             ("qq", q, q, 0), ("pp", p, p, 0), ("pq", p, q, 1)]
    for a, i in pairs:
        for b, j in pairs:
            delta = 1 if (a == b and i == j) else 0
            witness = {"a": a, "i": i, "b": b, "j": j}
            for tag, left, right, shift in cases:
                expr = _commutator(left[a, i], right[b, j], th)
                expr.append((-shift * delta, (unit,)))
                chk.expect_zero(expr, {"relation": tag, **witness})
    return chk.report()


def check_e_relations(real: OperatorRealization) -> IdentityReport:
    """The three displayed exchange relations of the E^ elements."""
    th = real.theta
    chk = _Checker(real, "quadratic-relations", raise_budget=4)
    idx = [(a, i) for a in range(real.m) for i in range(real.n)]
    e = {}
    for u in idx:
        for v in idx:
            c, word = real.e_hat(*u, *v)
            e[u, v] = Operator(real, [(c, None, word)])
    for a, i in idx:
        for b, j in idx:
            e1 = e[(a, i), (b, j)]
            for c, k in idx:
                dbc_jk = 1 if (b == c and j == k) else 0
                dab_ij = 1 if (a == b and i == j) else 0
                cross1 = e[(c, k), (b, j)]
                for d, l in idx:
                    dad_il = 1 if (a == d and i == l) else 0
                    e2 = e[(c, k), (d, l)]
                    cross2 = e[(a, i), (d, l)]
                    witness = {"ai": (a, i), "bj": (b, j),
                               "ck": (c, k), "dl": (d, l)}
                    rel1 = _commutator(e1, e2) + [(-dbc_jk, (cross2,)),
                                                  (dad_il, (cross1,))]
                    tail = [(-th, (cross1, cross2)), (th * dab_ij, (e2,))]
                    rel2 = [(1, (e1, e2)), (-dbc_jk, (cross2,))] + tail
                    rel3 = [(1, (e2, e1)), (-dad_il, (cross1,))] + tail
                    chk.expect_zero(rel1, {"relation": "commutator", **witness})
                    chk.expect_zero(rel2, {"relation": "straighten-left", **witness})
                    chk.expect_zero(rel3, {"relation": "straighten-right", **witness})
    return chk.report()


def check_zeta(real: OperatorRealization) -> IdentityReport:
    """zeta_n is a gl_m homomorphism: [z(E_ab), z(E_cd)] matches gl_m."""
    chk = _Checker(real, "zeta-homomorphism", raise_budget=4)
    m = real.m
    zeta = {(a, b): Operator(real, real.zeta_terms(a, b))
            for a in range(m) for b in range(m)}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    expr = _commutator(zeta[a, b], zeta[c, d])
                    if b == c:
                        expr.append((-1, (zeta[a, d],)))
                    if d == a:
                        expr.append((1, (zeta[c, b],)))
                    chk.expect_zero(expr, {"abcd": (a, b, c, d)})
    return chk.report()


# ---------------------------------------------------------------------------
# the inverse-matrix series and its identities in a gl_m representation


def defining_rep(m: int) -> dict:
    rep = {}
    for a in range(m):
        for b in range(m):
            mat = np.zeros((m, m), dtype=object)
            mat[a, b] = 1
            rep[a, b] = mat
    return rep


def tensor_square_rep(m: int) -> dict:
    eye = np.eye(m, dtype=object)
    base = defining_rep(m)
    return {key: np.kron(mat, eye) + np.kron(eye, mat)
            for key, mat in base.items()}


@dataclass
class XSeries:
    """Coefficients of the inverse-matrix series in a representation.

    coeffs[k][a, b] is the representing matrix of the u^{-k-1} coefficient
    of entry (a, b); coeffs[0] is the identity coefficient and
    coeffs[1][a, b] = -theta rep(E_ba).
    """

    theta: int
    m: int
    order: int
    rep: dict
    rep_dim: int
    coeffs: list

    def cols(self, k: int, a: int, b: int):
        return _matrix_cols(self.coeffs[k][a, b])


def x_series(theta: int, m: int, order: int, rep: dict | None = None) -> XSeries:
    """Expand (u + theta E^t)^{-1} order by order in a representation."""
    rep = defining_rep(m) if rep is None else rep
    dim = rep[0, 0].shape[0]
    eye = np.eye(dim, dtype=object)
    zero = np.zeros((dim, dim), dtype=object)
    coeffs = []
    first = {}
    for a in range(m):
        for b in range(m):
            first[a, b] = eye.copy() if a == b else zero.copy()
    coeffs.append(first)
    for _ in range(order + 1):
        prev = coeffs[-1]
        nxt = {}
        for a in range(m):
            for b in range(m):
                acc = zero.copy()
                for c in range(m):
                    acc = acc + rep[c, a] @ prev[c, b]
                nxt[a, b] = -theta * acc
        coeffs.append(nxt)
    return XSeries(theta, m, order, rep, dim, coeffs)


def check_x_identities(series: XSeries) -> IdentityReport:
    """Exchange identity (u-v) X(u)X(v) = X(v) - X(u) and the induced
    generator relation, coefficient-by-coefficient through the order.

    All products x(k)_ab x(l)_cd of two coefficient blocks come from one
    stacked product per pair of orders (k, l), formed once per call.
    """
    th, m, K = series.theta, series.m, series.order
    dim = series.rep_dim
    blocks = [np.array([[c[a, b] for b in range(m)] for a in range(m)],
                       dtype=object) for c in series.coeffs]
    zero = np.zeros((m, m, dim, dim), dtype=object)
    zero_pair = np.zeros((m, m, m, m, dim, dim), dtype=object)
    pairs = {}

    def x(k):
        return zero if k < 0 else blocks[k]

    def pair(k, l):
        """pair(k, l)[a, b, c, d] = x(k)_ab x(l)_cd, matrix indices last."""
        if k < 0 or l < 0:
            return zero_pair
        if (k, l) not in pairs:
            stacked = (blocks[k].reshape(m * m * dim, dim)
                       @ blocks[l].transpose(2, 0, 1, 3).reshape(dim, m * m * dim))
            pairs[k, l] = stacked.reshape(m, m, dim, m, m, dim).transpose(
                0, 1, 3, 4, 2, 5)
        return pairs[k, l]

    def prod(k, l):
        """prod(k, l)[a, b] = sum_c x(k)_ac x(l)_cb."""
        return np.diagonal(pair(k, l), axis1=1, axis2=2).sum(axis=-1)

    swap = (2, 3, 0, 1, 4, 5)   # [a, b, c, d] -> [c, d, a, b]
    checked = 0
    failures = []
    for r in range(K + 1):
        for s in range(K + 1 - r):
            if r == 0 and s == 0:
                continue
            lhs = prod(r, s - 1) - prod(r - 1, s)
            rhs = ((x(s - 1) if r == 0 else zero)
                   - (x(r - 1) if s == 0 else zero))
            exchange_bad = (lhs != rhs).any(axis=(2, 3))
            lhs = ((pair(r, s - 1) - pair(s - 1, r).transpose(swap))
                   - (pair(r - 1, s) - pair(s, r - 1).transpose(swap)))
            rhs = th * (pair(r - 1, s - 1) - pair(s - 1, r - 1)).swapaxes(0, 2)
            generator_bad = (lhs != rhs).any(axis=(4, 5))
            for identity, label, bad in (("exchange", "ab", exchange_bad),
                                         ("generator", "abcd", generator_bad)):
                for idx in np.ndindex(bad.shape):
                    checked += 1
                    if bad[idx]:
                        failures.append({"identity": identity, "rs": (r, s),
                                         label: idx})
                    if len(failures) >= _MAX_FAILURES:
                        return IdentityReport("series-identities", False,
                                              checked, None, failures)
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
            cols = series.cols(r - 1, a, b)
            if not cols:
                continue
            ce, word = real.e_hat(a, i, b, j)
            terms.append((ce, cols, word))
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
    n = real.n
    tcache = {}

    def t(r, i, j):
        key = (r, i, j)
        if key not in tcache:
            tcache[key] = Operator(
                real, alpha_coefficient(real, series, r, i, j))
        return tcache[key]

    yang = _Checker(real, "generator-exchange", raise_budget=4,
                    rep_dim=series.rep_dim)
    for r in range(order + 1):
        for s in range(order + 1 - r):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            # [T(r+1)_ij, T(s)_kl] - [T(r)_ij, T(s+1)_kl]
                            #     = T(r)_kj T(s)_il - T(s)_kj T(r)_il
                            expr = (_commutator(t(r + 1, i, j), t(s, k, l))
                                    + _commutator(t(s + 1, k, l), t(r, i, j))
                                    + [(-1, (t(r, k, j), t(s, i, l))),
                                       (1, (t(s, k, j), t(r, i, l)))])
                            yang.expect_zero(
                                expr, {"rs": (r, s), "ijkl": (i, j, k, l)})

    comm = _Checker(real, "gl-commutant", raise_budget=4,
                    rep_dim=series.rep_dim)
    for c in range(real.m):
        for d in range(real.m):
            glemb = Operator(real, [(1, _matrix_cols(series.rep[c, d]), ())]
                             + real.zeta_terms(c, d))
            for r in range(1, order + 1):
                for i in range(n):
                    for j in range(n):
                        comm.expect_zero(
                            _commutator(glemb, t(r, i, j)),
                            {"cd": (c, d), "r": r, "ij": (i, j)})

    yang_report = yang.report()
    comm_report = comm.report()
    return AlphaReport(yang_report.ok and comm_report.ok,
                       yang_report, comm_report)
