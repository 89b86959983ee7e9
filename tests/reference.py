"""Per-entry reference forms shared by the test modules.

Modules store one integer coefficient array; the first helpers read it back
as `RatMatrix` coefficients and `MatPoly` entries, the slow forms the tests
compare the array code against.  The rest is the term-by-term interpreter
of the operator realization that the compiled suites of `yangian.hd` are
compared against.
"""

from fractions import Fraction

from yangian.compiled import MAX_FAILURES, IdentityReport
from yangian.fock import apply_word
from yangian.hd import alpha_coefficient
from yangian.linalg import MatPoly, RatMatrix


def coefficient(mod, i, j, k):
    """The u^k coefficient of P_ij(u) as a RatMatrix."""
    return RatMatrix([[Fraction(int(x), mod.scale) for x in row]
                      for row in mod.num[i, j, k]])


def entry_matpoly(mod, i, j):
    """P_ij(u) as a MatPoly, read off the coefficient array."""
    return MatPoly((mod.dim, mod.dim), [coefficient(mod, i, j, k)
                                        for k in range(mod.num.shape[2])])


def column(values):
    """The one-column RatMatrix of a list of rationals."""
    return RatMatrix([[x] for x in values])


# ---------------------------------------------------------------------------
# the operator realization, term by term: sparse vectors keyed by (rep index,
# exponent tuple), operator columns cached per key, identities evaluated one
# window key at a time.  The compiled suites of yangian.hd must agree with
# these on every verdict, count and witness.


def apply_operator(real, terms, vec):
    """Image of a sparse vector under [(coefficient, rep matrix | None,
    atom word), ...], never truncated."""
    out = {}
    theta, n = real.theta, real.n
    for coeff, rep, word in terms:
        for (w, exps), c0 in vec.items():
            res = apply_word(theta, n, word, exps)
            if res is None:
                continue
            cw, e2 = res
            base = coeff * cw * c0
            entries = (((w, 1),) if rep is None else
                       ((r, rep[r, w]) for r in range(rep.shape[0])
                        if rep[r, w] != 0))
            for w2, val in entries:
                out[w2, e2] = out.get((w2, e2), 0) + base * val
    return {key: v for key, v in out.items() if v != 0}


class Operator:
    """A term list with a lazily filled cache of its exact image columns."""

    def __init__(self, real, terms):
        self.real = real
        self.terms = terms
        self.cols = {}

    def column(self, key):
        col = self.cols.get(key)
        if col is None:
            col = self.cols[key] = apply_operator(self.real, self.terms,
                                                  {key: 1})
        return col

    def apply(self, vec, out=None, scale=1):
        """Add scale times the image of a sparse vector to out."""
        out = {} if out is None else out
        for key, c in vec.items():
            c *= scale
            for key2, v in self.column(key).items():
                out[key2] = out.get(key2, 0) + c * v
        return out


def _commutator(a, b, sign=1):
    return [(1, (a, b)), (-sign, (b, a))]


class Checker:
    """Identity checks over one assertion window, one key at a time."""

    def __init__(self, real, name, raise_budget, rep_dim=1):
        self.name = name
        self.keys = real.window_keys(raise_budget, rep_dim)
        self.cap = (None if real.theta == -1
                    else max(real.max_degree - raise_budget, 0))
        self.checked = 0
        self.failures = []

    def expect_zero(self, expr, witness):
        """Assert that [(coefficient, (A, B, ...)), ...] vanishes on every
        window key; record the first failing key."""
        self.checked += 1
        if len(self.failures) >= MAX_FAILURES:
            return
        for key in self.keys:
            acc = {}
            for coeff, ops in expr:
                if coeff == 0:
                    continue
                vec = ops[-1].column(key)
                for op in ops[-2::-1]:
                    vec = op.apply(vec)
                for key2, v in vec.items():
                    acc[key2] = acc.get(key2, 0) + coeff * v
            if any(acc.values()):
                bad = dict(witness)
                bad["vector"] = key
                bad["image"] = min(item for item in acc.items() if item[1] != 0)
                self.failures.append(bad)
                return

    def report(self):
        return IdentityReport(self.name, not self.failures, self.checked,
                              self.cap, self.failures)


def canonical_relations(real):
    th = real.theta
    chk = Checker(real, "canonical-relations", raise_budget=2)
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


def e_relations(real):
    th = real.theta
    chk = Checker(real, "quadratic-relations", raise_budget=4)
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


def zeta(real):
    m = real.m
    chk = Checker(real, "zeta-homomorphism", raise_budget=4)
    z = {(a, b): Operator(real, real.zeta_terms(a, b))
         for a in range(m) for b in range(m)}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    expr = _commutator(z[a, b], z[c, d])
                    if b == c:
                        expr.append((-1, (z[a, d],)))
                    if d == a:
                        expr.append((1, (z[c, b],)))
                    chk.expect_zero(expr, {"abcd": (a, b, c, d)})
    return chk.report()


def alpha(real, order, series):
    """The generator exchange and gl-commutant suites of check_alpha."""
    n, m = real.n, real.m
    cache = {}

    def t(r, i, j):
        if (r, i, j) not in cache:
            cache[r, i, j] = Operator(
                real, alpha_coefficient(real, series, r, i, j))
        return cache[r, i, j]

    yang = Checker(real, "generator-exchange", 4, series.rep_dim)
    for r in range(order + 1):
        for s in range(order + 1 - r):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            expr = (_commutator(t(r + 1, i, j), t(s, k, l))
                                    + _commutator(t(s + 1, k, l), t(r, i, j))
                                    + [(-1, (t(r, k, j), t(s, i, l))),
                                       (1, (t(s, k, j), t(r, i, l)))])
                            yang.expect_zero(
                                expr, {"rs": (r, s), "ijkl": (i, j, k, l)})
    comm = Checker(real, "gl-commutant", 4, series.rep_dim)
    for c in range(m):
        for d in range(m):
            glemb = Operator(real, [(1, series.rep[c, d], ())]
                             + real.zeta_terms(c, d))
            for r in range(1, order + 1):
                for i in range(n):
                    for j in range(n):
                        comm.expect_zero(
                            _commutator(glemb, t(r, i, j)),
                            {"cd": (c, d), "r": r, "ij": (i, j)})
    return yang.report(), comm.report()
