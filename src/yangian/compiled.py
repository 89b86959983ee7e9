"""Identity suites of the operator realization, compiled to integer arrays.

An operator is a list of (coefficient, rep matrix | None, atom word)
terms: the word acts on a monomial through `fock.apply_word`, the matrix on
the index of a gl_m representation.  Every identity of a suite is a signed
sum of products of two operators; a linear term c X is the product c X 1
with the unit operator 1 = [(1, None, ())].  `CompiledOperators` builds one
term table for named groups of operators on one assertion window, so the
suites that assert on that window share it, each reading its own group by
offset.  It builds the table in array passes and chains each word's map on
monomials from one map per atom, each atom applied by `apply_word` once per
monomial it meets.  It compiles every operator once, to its nonzero integer
column entries over (monomial, rep index) states: the assertion window's,
and those the words reach from there.

`check` reads the identities in passes.  A pass finds the distinct (left,
right) products among its terms and forms each one's image on the window
keys once: every nonzero window entry of the right factor times the left
factor's column at its target.  Each identity is then the signed sum of
its products' images, summed per (identity, window key, image state) by
one sort, and fails at its first window key with a nonzero sum.

Every column has abs sum at most top, so an image entry, a right entry
times a left entry, is at most top^2, and an identity sum, over at most
`slots` products with coefficients in {-1, 0, 1}, is at most slots top^2,
as is each partial sum on the way: values are int64 when slots top^2 <
2^63 and Python ints otherwise.  One factor f clears every denominator of
the table, and the states reach every degree the window plus the identity's
raising atoms reach, so nothing is truncated: verdicts, checked counts,
window caps and witnesses are those of applying the expanded terms to each
key one by one.  A witness prints its image over its own group's factor,
so it reads the same whatever other groups share the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .fock import apply_word

if TYPE_CHECKING:
    from .hd import OperatorRealization

MAX_FAILURES = 5

# entries one pass holds: the terms a compile pass expands, and the product
# entries a check pass gathers and its identities expand to; it bounds the
# working arrays of every suite
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs starts[i], ..., starts[i] + lengths[i] - 1, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(
        ends[-1] if len(ends) else 0)


class _WordMaps:
    """apply_word of a list of words on monomials, chained from one map per
    atom, each atom applied by `fock.apply_word` once per monomial it meets.

    monos starts as the given monomials and grows by every monomial a word
    reaches, index[e] being the position of e in it.
    """

    def __init__(self, theta: int, n: int, words: list, monos: list):
        self.theta, self.n = theta, n
        self.monos = list(monos)
        self.index = {e: k for k, e in enumerate(self.monos)}
        # each word as its atoms, right-aligned so that the last column is
        # every word's rightmost atom, -1 where a word is shorter
        atoms: dict = {}
        seq = [[atoms.setdefault(a, len(atoms)) for a in w] for w in words]
        # one-atom words
        self.atom_words = [(a,) for a in atoms]
        longest = max(map(len, seq), default=0)
        self.word_atoms = np.array([[-1] * (longest - len(w)) + w
                                    for w in seq], dtype=np.int64)
        # apply_word of atom a on monomial k, filled in as monomials meet
        # atoms: coefficient, and target (-1 where it annihilates, -2 where
        # not yet applied); the last row is the empty word, the last column
        # the sink
        self.atom_coef = np.zeros((len(atoms) + 1, 1), dtype=np.int64)
        self.atom_tgt = np.full((len(atoms) + 1, 1), -1, dtype=np.int64)

    def __call__(self, src: np.ndarray):
        """apply_word of every word on each source monomial: coefficients
        and target monomials, each (words, sources), with coefficient 0 and
        target -1 where a word annihilates and on the sink -1.  The atoms
        act rightmost first, each through its map."""
        coef = np.repeat((src >= 0)[None], len(self.word_atoms),
                         axis=0).astype(np.int64)
        tgt = np.repeat(src[None], len(self.word_atoms), axis=0)
        for atom in self.word_atoms.T[::-1, :, None] if len(src) else ():
            self._apply_atoms(atom, tgt)
            coef *= self.atom_coef[atom, tgt]
            tgt = self.atom_tgt[atom, tgt]
        return coef, tgt

    def _apply_atoms(self, atom: np.ndarray, tgt: np.ndarray) -> None:
        """Fill in the maps of each atom[w] on the monomials tgt[w], each
        (atom, monomial) pair once."""
        monos, index = self.monos, self.index
        have = self.atom_tgt.shape[1] - 1
        if have < len(monos):
            # room for every monomial found so far, and as many more
            room = 2 * len(monos)
            coef = np.zeros((len(self.atom_tgt), room + 1), dtype=np.int64)
            step = np.full(coef.shape, -2)
            coef[:, :have] = self.atom_coef[:, :-1]
            step[:, :have] = self.atom_tgt[:, :-1]
            coef[-1, have:], step[-1, have:] = 1, np.arange(have, room + 1)
            coef[:, -1], step[:, -1] = 0, -1
            self.atom_coef, self.atom_tgt = coef, step
        # the (atom, monomial) pairs met here and not yet applied, by atom
        todo = np.zeros(self.atom_tgt.shape, dtype=bool)
        todo[atom, tgt] = True
        a, k = np.nonzero(todo & (self.atom_tgt == -2))
        theta, n = self.theta, self.n
        coefs, targets = [], []
        ends = np.searchsorted(a, np.arange(len(self.atom_words) + 1)).tolist()
        k_list = k.tolist()
        for word, b0, b1 in zip(self.atom_words, ends, ends[1:]):
            for mono in k_list[b0:b1]:
                hit = apply_word(theta, n, word, monos[mono])
                if hit is None:
                    coefs.append(0)
                    targets.append(-1)
                    continue
                c, exps = hit
                t = index.get(exps)
                if t is None:
                    t = index[exps] = len(monos)
                    monos.append(exps)
                coefs.append(c)
                targets.append(t)
        self.atom_coef[a, k] = coefs
        self.atom_tgt[a, k] = targets


class CompiledOperators:
    """Groups of operators, compiled together on one assertion window.

    groups maps a name to a list of operators; the groups' operators are
    numbered one after another, group g's from offset[g] on, and the
    identities of `check` name them by these indices, so suites on one
    window share one table.  A state (monomial k, rep index w) has the key
    k * rep_dim + w; the window's monomials come first, in window order, so
    window state s is the s-th window key, and the states are the window's,
    then those its words reach.  Each operator is compiled once, to the
    nonzero entries (target key, value) of its columns on the states, row
    op * nstates + state at ptr[row]..ptr[row + 1] - 1.  A right factor
    reads its rows on the window, a left factor the row of each of their
    targets; `cost` counts the entries a product holds in a pass.  The word
    maps and the term rows that build the table are dropped once it exists.

    Coefficients, the unit's too, are scaled by one integer f that clears
    every denominator, so every product and identity sum carries f^2;
    group_f[g] is the factor that clears group g's own denominators, over
    which `check` prints its images.  top bounds the abs sum of every
    column: values are int64 when slots top^2 < 2^63, the bound on every
    image entry and identity sum, and Python ints otherwise.
    """

    def __init__(self, real: OperatorRealization, raise_budget: int,
                 rep_dim: int, groups: dict[str, list], slots: int):
        self.rep_dim = rep_dim
        self.cap = real.window_cap(raise_budget)
        window = real.basis_exps(self.cap)
        # a derivation's coefficient is an exponent: at most the degree
        # that the window plus the raising atoms reach (1 for theta=-1)
        grow = 1 if self.cap is None else self.cap + raise_budget
        self.nwin = len(window) * rep_dim
        self.offset: dict[str, int] = {}
        ops: list = []
        for name, group in groups.items():
            self.offset[name] = len(ops)
            ops += group
        self.nops = len(ops)

        # one row per term: operator, word, coefficient and rep matrix (the
        # identity for a plain term)
        terms = [term for op in ops for term in op]
        coefs, reps, words = zip(*terms) if terms else ((), (), ())
        sizes = np.array([len(op) for op in ops], dtype=np.int64)
        term_op = np.repeat(np.arange(self.nops), sizes)
        ids: dict = {}
        term_word = np.array([ids.setdefault(w, len(ids)) for w in words],
                             dtype=np.int64)
        eye = np.eye(rep_dim, dtype=object)
        mats = np.array([eye if rep is None else rep for rep in reps],
                        dtype=object).reshape(-1, rep_dim, rep_dim)
        # c f = numerator (f / denominator), an integer
        dens = np.array([getattr(c, "denominator", 1) for c in coefs],
                        dtype=object)
        self.f = math.lcm(*dens)
        self.group_f = {name: math.lcm(*(getattr(c, "denominator", 1)
                                         for op in group for c, _, _ in op))
                        for name, group in groups.items()}
        scale = np.array([getattr(c, "numerator", c) for c in coefs],
                         dtype=object) * (self.f // dens)
        # a term's columns have abs sums at most |c f| times grow per atom
        # times its matrix's largest column abs sum; an operator's, the sum
        # over its terms
        growth = np.array([grow ** len(w) for w in ids], dtype=object)
        reach = (np.abs(scale) * growth[term_word]
                 * np.abs(mats).sum(axis=1).max(axis=1, initial=0))
        first = (np.cumsum(sizes) - sizes)[sizes > 0]
        top = max(np.add.reduceat(reach, first).tolist() if len(first)
                  else (), default=0)
        # identities have at most `slots` product terms with coefficients
        # in {-1, 0, 1}
        self.slots = slots
        bound = slots * top * top
        self.dtype = np.int64 if bound < 2 ** 63 else object
        # transposed and scaled: state (k, w) goes to (tgt[k], w2) with
        # coefficient c f rep[w2, w]
        mats = (mats.transpose(0, 2, 1) * scale[:, None, None]).astype(
            self.dtype)

        # the states: the window's, then those its words reach beyond it
        maps = _WordMaps(real.theta, real.n, list(ids), window)
        nw = len(window)
        cw, tgt = maps(np.arange(nw))
        # (np.unique would import numpy.ma, a megabyte of RSS)
        extra = np.flatnonzero(np.bincount(tgt[tgt >= nw]))
        more = maps(extra)
        self.monos = maps.monos
        self.nstates = (nw + len(extra)) * rep_dim
        self.ptr, self.state, self.key, self.val = self._compile(
            np.concatenate((cw, more[0]), axis=1),
            np.concatenate((tgt, more[1]), axis=1), mats, term_op, term_word)
        # the state of each entry's target, where it is one (as it is for
        # every entry on the window)
        where = np.full(len(self.monos), -1)
        where[:nw] = np.arange(nw)
        where[extra] = np.arange(nw, nw + len(extra))
        self.pos = where[self.key // rep_dim] * rep_dim + self.key % rep_dim

        # operator o's right_nnz[o] window entries start at right_start[o]
        self.width = int((self.ptr[1:] - self.ptr[:-1]).max(initial=0))
        starts = np.arange(self.nops) * self.nstates
        self.right_start = self.ptr[starts]
        self.right_nnz = self.ptr[starts + self.nwin] - self.right_start

    @cached_property
    def cost(self) -> np.ndarray:
        """cost[L, R]: the entries the product L R holds on the window, the
        right factor's window entries and, for each, the left factor's
        entries at its target; counted by runs of right factors of about
        _CHUNK entries."""
        counts = (self.ptr[1:] - self.ptr[:-1]).reshape(self.nops, -1)
        cost = np.zeros((self.nops, self.nops), dtype=np.int64)
        per = max(1, _CHUNK // max(self.nops * int(self.right_nnz.max(
            initial=0)), 1))
        for r0 in range(0, self.nops, per):
            n = self.right_nnz[r0:r0 + per]
            pos = self.pos[_ranges(self.right_start[r0:r0 + per], n)]
            sums = np.zeros((self.nops, len(pos) + 1), dtype=np.int64)
            np.cumsum(counts[:, pos], axis=1, out=sums[:, 1:])
            end = np.cumsum(n)
            cost[:, r0:r0 + per] = sums[:, end] - sums[:, end - n] + n
        return cost

    def _compile(self, cw: np.ndarray, tgt: np.ndarray, mats: np.ndarray,
                 term_op: np.ndarray, term_word: np.ndarray):
        """Columns of every operator on the states of the source monomials
        of the word maps (cw, tgt), from each term's operator, word and
        scaled transposed matrix: (ptr, state, key, val), with the entries
        of row op * nstates + state at ptr[row]..ptr[row + 1] - 1, ascending
        by target key."""
        r = self.rep_dim
        span = len(self.monos) * r
        # the sources each word reaches, word by word
        word, src = np.nonzero(cw)
        reached = np.searchsorted(word, np.arange(len(cw) + 1))
        # state (k, w) goes to (tgt[k], w2) with the nonzero mats[t, w, w2]
        t, w, w2 = np.nonzero(mats)
        mval, op, word = mats[t, w, w2], term_op[t], term_word[t]
        n = reached[word + 1] - reached[word]
        # runs of operators whose entries stay near _CHUNK
        at = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=at[1:])
        at = at[np.searchsorted(op, np.arange(self.nops + 1))]
        rows, keys, vals = [], [], []
        o0 = 0
        while o0 < self.nops:
            o1 = max(o0 + 1, int(np.searchsorted(at, at[o0] + _CHUNK,
                                                 side="right")) - 1)
            m = slice(*np.searchsorted(op, (o0, o1)))
            hit = _ranges(reached[word[m]], n[m])
            each = np.repeat(np.arange(m.start, m.stop), n[m])
            k = src[hit]
            ukeys, sums = _group_sums(
                ((op[each] * self.nstates + k * r + w[each]) * span
                 + tgt[word[each], k] * r + w2[each]),
                cw[word[each], k].astype(self.dtype) * mval[each])
            row, key = np.divmod(ukeys, span)
            rows.append(row)
            keys.append(key)
            vals.append(sums)
            o0 = o1
        row = np.concatenate(rows)
        ptr = np.zeros(self.nops * self.nstates + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(ptr) - 1), out=ptr[1:])
        return (ptr, row % self.nstates, np.concatenate(keys),
                np.concatenate(vals))

    def _failing(self, coef, left, right, w0: int, w1: int):
        """Each identity of the pass with a nonzero residual on window keys
        w0..w1-1, in order: (identity, first failing key, its nonzero
        (target key, value) entries)."""
        span = len(self.monos) * self.rep_dim
        # the distinct products of the live terms, ascending, and the
        # product of each term
        ti, tj = np.nonzero(coef)
        pair = left[ti, tj] * self.nops + right[ti, tj]
        seen = np.zeros(self.nops * self.nops, dtype=bool)
        seen[pair] = True
        pairs = np.flatnonzero(seen)
        which = np.searchsorted(pairs, pair)
        lop, rop = np.divmod(pairs, self.nops)
        # each product's image: its right factor's entries on the keys,
        # times the left factor's entries at their targets
        nnz = self.right_nnz[rop]
        cells = _ranges(self.right_start[rop], nnz)
        prod = np.repeat(np.arange(len(pairs)), nnz)
        key = self.state[cells]
        if w1 - w0 < self.nwin:
            keep = (key >= w0) & (key < w1)
            cells, prod, key = cells[keep], prod[keep], key[keep]
        row = lop[prod] * self.nstates + self.pos[cells]
        run = self.ptr[row + 1] - self.ptr[row]
        hit = _ranges(self.ptr[row], run)
        val = self.val[hit] * np.repeat(self.val[cells], run)
        image = np.repeat(key * span, run) + self.key[hit]
        # product p's entries are start[p]..start[p + 1] - 1 of image
        start = np.searchsorted(np.repeat(prod, run),
                                np.arange(len(pairs) + 1))
        # each term's signed image, summed per (identity, key, image state)
        count = (start[1:] - start[:-1])[which]
        src = _ranges(start[which], count)
        ukeys, sums = _group_sums(
            np.repeat(ti * (self.nwin * span), count) + image[src],
            val[src] * np.repeat(coef[ti, tj], count))
        row, target = np.divmod(ukeys, span)
        ident, key = np.divmod(row, self.nwin)
        out = []
        if len(ident):
            firsts = np.flatnonzero(ident[1:] != ident[:-1]) + 1
            for a in [0, *firsts[:MAX_FAILURES - 1].tolist()]:
                b = a + int(np.searchsorted(row[a:], row[a], side="right"))
                out.append((int(ident[a]), int(key[a]), list(zip(
                    target[a:b].tolist(), sums[a:b].tolist()))))
        return out

    def check(self, name: str, count: int, rows, witness,
              group: str | None = None) -> IdentityReport:
        """Evaluate identities 0..count-1 on every window key.

        rows(t) gives, for an array t of identity indices, the arrays
        (coef, left, right) with a row per identity: identity t is the sum
        over slots j of coef[t, j] times the product left[t, j] right[t, j],
        operators given by index.  witness(t) names identity t.  Failures
        come in index order, each at its first failing window key, with the
        image entry of the smallest (rep index, exponents) key: an int when
        group's own factor (the table's f when group is None) is 1, else a
        Fraction, as a table of that group alone prints it.

        A pass takes the most identities whose terms' products hold at
        most _CHUNK entries on the window, as `cost` counts them (or all
        of them, when a cruder bound already fits); an identity over that
        alone is read on windows of keys whose products hold at most
        _CHUNK entries however they fall.
        """
        r, scale = self.rep_dim, self.f * self.f
        own = self.f if group is None else self.group_f[group]
        keys_per = max(1, _CHUNK // max(
            self.slots * self.width * (self.width + 1), 1))
        fetch = max(1, _CHUNK // self.slots)
        failures: list = []
        for i0 in range(0, count, fetch):
            coef, left, right = rows(np.arange(i0, min(i0 + fetch, count)))
            # the int64 bound holds for these shapes and coefficients only
            assert coef.shape[1] <= self.slots
            assert np.abs(coef).max(initial=0) <= 1
            coef = coef.astype(self.dtype)
            # a term's product holds at most (1 + width) entries per right
            # entry; when those bounds pass _CHUNK, count them exactly
            live = coef != 0
            held = live * self.right_nnz[right] * (1 + self.width)
            if held.sum() > _CHUNK:
                held = live * self.cost[left, right]
            reach = np.cumsum(held.sum(axis=1))
            a = 0
            while a < len(reach) and len(failures) < MAX_FAILURES:
                done = int(reach[a - 1]) if a else 0
                b = max(a + 1, int(np.searchsorted(reach, done + _CHUNK,
                                                   side="right")))
                step = keys_per if reach[a] - done > _CHUNK else self.nwin
                for w0 in range(0, self.nwin, step):
                    found = self._failing(coef[a:b], left[a:b], right[a:b],
                                          w0, min(w0 + step, self.nwin))
                    for t, key, entries in found[:MAX_FAILURES
                                                 - len(failures)]:
                        bad = witness(i0 + a + t)
                        bad["vector"] = (key % r, self.monos[key // r])
                        bad["image"] = min(
                            ((k % r, self.monos[k // r]),
                             v // scale if own == 1 else Fraction(v, scale))
                            for k, v in entries)
                        failures.append(bad)
                    if found:
                        # a split window holds one identity
                        break
                a = b
            if len(failures) >= MAX_FAILURES:
                break
        return IdentityReport(name, not failures, count, self.cap, failures)
