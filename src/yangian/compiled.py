"""Identity suites of the operator realization, compiled to integer arrays.

An operator is a list of (coefficient, rep matrix | None, atom word)
terms: the word acts on a monomial through `fock.apply_word`, the matrix on
the index of a gl_m representation.  Every identity of a suite is a signed
sum of products of two operators; a linear term c X is the product c X 1
with the unit operator 1 = [(1, None, ())].  `CompiledOperators` compiles a
suite's operators once to padded integer columns over (monomial, rep index)
states, right factors on the assertion window and left factors on the
states those reach, so a product term is two gathers.  `check` then sums
the terms of a chunk of identities per (identity, window key, image state)
by one sort, and an identity fails at its first window key with a nonzero
sum.  Values are int64 below a proven bound and Python ints above it, one
factor clears every denominator, and the compiled states reach every degree
the window plus the identity's raising atoms reach, so nothing is
truncated: verdicts, checked counts, window caps and witnesses are those of
applying the expanded terms to each key one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .fock import apply_word

if TYPE_CHECKING:
    from .hd import OperatorRealization

MAX_FAILURES = 5

# entries one evaluation pass gathers: product terms x window keys x column
# slots; it bounds the working arrays of every suite
_CHUNK = 1 << 15


@dataclass
class IdentityReport:
    name: str
    ok: bool
    checked: int
    window_cap: int | None  # degree cap of the assertion set; None = whole space
    failures: list


def _group_sums(keys: np.ndarray, vals: np.ndarray):
    """The distinct keys, ascending, with the sums of their values, keeping
    only the nonzero sums."""
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    if not len(starts):
        return keys, vals
    sums = np.add.reduceat(vals, starts)
    nonzero = sums != 0
    return keys[starts[nonzero]], sums[nonzero]


def _integral(x) -> int:
    x = Fraction(x)
    assert x.denominator == 1
    return x.numerator


class CompiledOperators:
    """The operators of one or more suites, compiled on one assertion window.

    A state (monomial k, rep index w) has the key k * rep_dim + w; the
    window's monomials come first, in window order, so window state s is the
    s-th window key.  Each operator is compiled once, to padded columns of
    (target key, value) on the window's states, the states its words reach
    from there and the sink: right factors read the window rows, left
    factors the row right_pos gives for each target.  A key of
    monomial -1 is the sink of words that annihilate a monomial.

    Coefficients, the unit's too, are scaled by one integer f that clears
    every denominator, so every product and identity sum carries f^2.
    Values are int64 when a bound on every column, product and identity sum
    stays below 2^63, and Python ints otherwise.
    """

    def __init__(self, real: OperatorRealization, raise_budget: int,
                 rep_dim: int, ops: list, slots: int):
        self.real = real
        self.rep_dim = rep_dim
        if real.theta == -1:
            self.cap = None
            window = real.basis_exps()
            grow = 1
        else:
            self.cap = max(real.max_degree - raise_budget, 0)
            window = real.basis_exps(self.cap)
            # a derivation's coefficient is an exponent: at most the degree
            # that the window plus the raising atoms reach
            grow = self.cap + raise_budget
        self.monos = list(window)
        self.index = {e: k for k, e in enumerate(window)}
        self.nwin = len(window) * rep_dim

        f = 1
        for terms in ops:
            for c, _, _ in terms:
                f = math.lcm(f, getattr(c, "denominator", 1))
        self.f = f
        # a rep matrix scales a column's abs sum by its largest column abs sum
        top = max((sum(abs(c) * f * grow ** len(word)
                       * (1 if rep is None else max(np.abs(rep).sum(axis=0)))
                       for c, rep, word in terms) for terms in ops), default=0)
        # identities have at most `slots` product terms with coefficients
        # in {-1, 0, 1}
        self.slots = slots
        bound = slots * top * top
        self.dtype = np.int64 if bound < 2 ** 63 else object

        # one row per term: operator, word, and the integer rep matrix
        # transposed (the coefficient times the identity for a plain term)
        self.words: dict = {}
        rows, mats = [], []
        eye = np.eye(rep_dim, dtype=self.dtype)
        for o, terms in enumerate(ops):
            for c, rep, word in terms:
                rows.append((o, self.words.setdefault(word, len(self.words))))
                scale = c * f
                mats.append((eye if rep is None else rep.T) * _integral(scale))
        self.term_op, self.term_word = np.array(
            rows, dtype=np.int64).reshape(-1, 2).T
        self.mats = np.array(mats, dtype=self.dtype).reshape(
            -1, rep_dim, rep_dim)
        self.nops = len(ops)

        # the window's monomials, those its words reach beyond it, the sink
        nw = len(window)
        cw, tgt = self._word_maps(np.arange(nw))
        # (np.unique would import numpy.ma, a megabyte of RSS)
        extra = np.flatnonzero(np.bincount(tgt[tgt >= nw]))
        more = self._word_maps(np.append(extra, -1))
        self.left_k, self.left_v = self._compile(
            np.concatenate((cw, more[0]), axis=1),
            np.concatenate((tgt, more[1]), axis=1))
        self.right_v = self.left_v[:, :self.nwin]
        right_k = self.left_k[:, :self.nwin]
        where = np.full(len(self.monos) + 1, nw + len(extra))
        where[:nw] = np.arange(nw)
        where[extra] = np.arange(nw, nw + len(extra))
        # flat over (window state, column slot), as _failing reads it
        self.right_pos = (where[right_k // rep_dim] * rep_dim
                          + right_k % rep_dim).reshape(self.nops, -1)

    def _word_maps(self, src: np.ndarray):
        """apply_word of every word on each source monomial: coefficients
        and target monomials, each (words, sources), with coefficient 0 and
        target -1 where a word annihilates and on the sink -1."""
        theta, n = self.real.theta, self.real.n
        monos, index = self.monos, self.index
        coef, tgt = [], []
        for word in self.words:
            for k in src.tolist():
                hit = apply_word(theta, n, word, monos[k]) if k >= 0 else None
                if hit is None:
                    coef.append(0)
                    tgt.append(-1)
                    continue
                c, exps = hit
                t = index.get(exps)
                if t is None:
                    t = index[exps] = len(monos)
                    monos.append(exps)
                coef.append(c)
                tgt.append(t)
        shape = (len(self.words), len(src))
        return (np.array(coef, dtype=np.int64).reshape(shape),
                np.array(tgt, dtype=np.int64).reshape(shape))

    def _compile(self, cw: np.ndarray, tgt: np.ndarray):
        """Columns of every operator on the states of the source monomials
        of the word maps (cw, tgt), as (keys, values), each of shape
        (operators, states, width)."""
        r = self.rep_dim
        nsrc = cw.shape[1]
        nstates = nsrc * r
        span = len(self.monos) * r
        # runs of operators whose raw entries stay near _CHUNK
        bounds = np.searchsorted(self.term_op, np.arange(self.nops + 1))
        per = max(1, _CHUNK // (nstates * r * max(np.diff(bounds).max(), 1)))
        blocks = []
        for o0 in range(0, self.nops, per):
            terms = slice(bounds[o0], bounds[min(o0 + per, self.nops)])
            op, word = self.term_op[terms], self.term_word[terms]
            # state (k, w) goes to (tgt[k], w2) with rep[w2, w]
            val = (cw[word].astype(self.dtype)[:, :, None, None]
                   * self.mats[terms, None])
            live = val != 0
            row = (op - o0)[:, None, None] * nstates + np.arange(
                nstates).reshape(nsrc, r)
            ukeys, sums = _group_sums(
                np.broadcast_to(row[..., None], live.shape)[live] * span
                + np.broadcast_to(tgt[word][:, :, None, None] * r
                                  + np.arange(r), live.shape)[live],
                val[live])
            row, key = np.divmod(ukeys, span)
            slot = np.arange(len(row)) - np.searchsorted(row, row)
            blocks.append((row + o0 * nstates, slot, key, sums))
        width = max((int(b[1].max()) + 1 for b in blocks if len(b[1])),
                    default=1)
        keys = np.full((self.nops, nstates, width), -1, dtype=np.int64)
        vals = np.zeros(keys.shape, dtype=self.dtype)
        for row, slot, key, sums in blocks:
            keys.reshape(-1, width)[row, slot] = key
            vals.reshape(-1, width)[row, slot] = sums
        return keys, vals

    def _failing(self, coef, left, right, w0: int, w1: int):
        """Each identity of the chunk with a nonzero residual on window keys
        w0..w1-1, in order: (identity, first failing key, its nonzero
        (target key, value) entries)."""
        nkeys, width = w1 - w0, self.right_v.shape[2]
        span = len(self.monos) * self.rep_dim
        # each live right entry, at a term tj and a flat (window key, column
        # slot) cell, meets the left factor's column at its target
        val = self.right_v[right, w0:w1] * coef[:, :, None, None]
        hit = np.flatnonzero(val)
        tj, cell = np.divmod(hit, nkeys * width)
        pos = self.right_pos[right.ravel()[tj], w0 * width + cell]
        lop = left.ravel()[tj]
        val = self.left_v[lop, pos] * val.ravel()[hit][:, None]
        row = tj // coef.shape[1] * nkeys + cell // width
        live = val != 0
        ukeys, sums = _group_sums(
            (row[:, None] * span + self.left_k[lop, pos])[live], val[live])
        row, target = np.divmod(ukeys, span)
        ident = row // nkeys
        out = []
        for a in np.flatnonzero(np.r_[True, ident[1:] != ident[:-1]])[
                :MAX_FAILURES] if len(ident) else ():
            b = a + int(np.searchsorted(row[a:], row[a], side="right"))
            out.append((int(ident[a]), w0 + int(row[a] % nkeys),
                        list(zip(target[a:b].tolist(), sums[a:b].tolist()))))
        return out

    def check(self, name: str, count: int, rows, witness) -> IdentityReport:
        """Evaluate identities 0..count-1 on every window key.

        rows(t) gives, for an array t of identity indices, the arrays
        (coef, left, right) with a row per identity: identity t is the sum
        over slots j of coef[t, j] times the product left[t, j] right[t, j],
        operators given by index.  witness(t) names identity t.  Failures
        come in index order, each at its first failing window key, with the
        image entry of the smallest (rep index, exponents) key.
        """
        r, scale = self.rep_dim, self.f * self.f
        per_key = self.right_v.shape[2] * self.slots * self.left_k.shape[2]
        keys_per = max(1, min(self.nwin, _CHUNK // max(per_key, 1)))
        step = max(1, _CHUNK // max(per_key * self.nwin, 1))
        failures: list = []
        for i0 in range(0, count, step):
            if len(failures) >= MAX_FAILURES:
                break
            coef, left, right = rows(np.arange(i0, min(i0 + step, count)))
            # the int64 bound holds for these shapes and coefficients only
            assert coef.shape[1] <= self.slots
            assert np.abs(coef).max(initial=0) <= 1
            coef = coef.astype(self.dtype)
            for w0 in range(0, self.nwin, keys_per):
                found = self._failing(coef, left, right, w0,
                                      min(w0 + keys_per, self.nwin))
                for t, key, entries in found[:MAX_FAILURES - len(failures)]:
                    bad = witness(i0 + t)
                    bad["vector"] = (key % r, self.monos[key // r])
                    bad["image"] = min(
                        ((k % r, self.monos[k // r]),
                         v if scale == 1 else Fraction(v, scale))
                        for k, v in entries)
                    failures.append(bad)
                if found:
                    # one identity per chunk when the window is split
                    break
        return IdentityReport(name, not failures, count, self.cap, failures)
