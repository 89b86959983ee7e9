"""Per-entry reference forms shared by the test modules.

Modules store one integer coefficient array; the first helpers read it back
as `RatMatrix` coefficients and `MatPoly` entries, the slow forms the tests
compare the array code against.  Bareiss's fraction-free elimination is the
reference for `yangian.linalg`'s certified modular one.  Next come polynomials over Fraction
coefficients, by long division and Euclid's algorithm over the rationals,
which `yangian.linalg.Poly`'s integer arithmetic is compared against.
Then the rational roots of an integer polynomial by the rational root
theorem, which `yangian.linalg.poly_rational_roots`'s p-adic lifting is
compared against.  Then the hom space of two modules as the nullspace of
one dense whole-denominator system on all d1 d2 unknowns, which
`yangian.intertwine.hom_space`'s graded solver is compared against, and the
swap intertwiners of a reduced word, built from the hom solver
instead of `yangian.intertwine`'s cyclic spans, one swap's pair map as
b_tgt . b_src^-1 over spanning columns kept breadth first, the module-map
certificate as two whole products instead of
`yangian.intertwine._verify_intertwiner`'s chunks and once more as a loop
over the Python-int entries of the two products, and the kernel and quotient
of an intertwiner by a change to a basis adapted to the kernel, instead of
`yangian.intertwine.kernel_quotient`'s echelon form.  The rest is the
term-by-term interpreter of the operator realization that the compiled
suites of `yangian.hd` are compared against, each suite compiled on a
table of its own, whose witness text the shared tables must print, and
last the series identities checked one pair of orders at a time.
"""
import copy
import itertools
import math
from fractions import Fraction

import numpy as np

from yangian.compiled import MAX_FAILURES, CompiledOperators, IdentityReport
from yangian.fock import apply_word, block_dim
from yangian.hd import (
    _SUITES,
    _check_work,
    _series_identities,
    alpha_coefficient,
)
from yangian.intertwine import (
    NonGenericStepError,
    QuotientModule,
    _swap_fraction,
    _swap_sign,
    hom_space,
    zeta_factor,
)
from yangian.linalg import (MatPoly, RatMatrix, _ratmatrix, int_matmul,
                            poly_gcd)
from yangian.modules import (
    YangianModule,
    coefficient_pairs,
    distinguished_vector,
    fock_module,
    source_pattern,
    tensor_module,
)


def storage_rule(ints):
    """The dtype and largest |entry| that `yangian.linalg.stored_ints`
    keeps an integer array with, read off its entries as Python ints: int64
    when every |entry| is below 2^53, else object."""
    top = max((abs(int(x)) for x in np.asarray(ints).flat), default=0)
    return (np.int64 if top < 2 ** 53 else object), top


def assert_stored(ints, top=None):
    """ints is stored by `storage_rule`: read-only, of its dtype, Python
    ints when object, and top, when given, its largest |entry|."""
    dtype, want = storage_rule(ints)
    assert ints.dtype == dtype and not ints.flags.writeable
    assert dtype is np.int64 or all(type(x) is int for x in ints.flat)
    assert top is None or top == want


def ref_rref(a):
    """Fraction Gauss-Jordan: the reduced rows and the pivot columns."""
    m = [list(r) for r in a]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def lowest_terms(rows):
    """The integer numerators and the denominator of a matrix of Fractions
    in lowest terms, as nested lists of Python ints and an int."""
    den = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (den // x.denominator) for x in r]
            for r in rows], den


def module_ints(low, scale):
    """The (n, n, 2, dim, dim) Python-int numerators of a module over a
    monic linear denominator: low at u^0, scale I at u^1."""
    n, dim = len(low), len(low[0][0])
    num = np.zeros((n, n, 2, dim, dim), dtype=object)
    num[:, :, 0] = np.array(low, dtype=object).reshape(n, n, dim, dim)
    for i in range(n):
        num[i, i, 1] = np.diag([scale] * dim).astype(object)
    return num


def _convolve(num, cofactor):
    """The u-coefficients of P_ij(u) cofactor(u) on Python ints, for num
    nested as [i][j][k][r][s] and cofactor a list of ints, low first."""
    powers = len(num[0][0]) + len(cofactor) - 1
    dim = len(num[0][0][0])
    return [[[[[sum(c * row[k - t][r][s] for t, c in enumerate(cofactor)
                    if 0 <= k - t < len(row))
                for s in range(dim)] for r in range(dim)]
              for k in range(powers)] for row in side] for side in num]


def tensor_ints(a, b):
    """The numerators, lowest-terms scale and denominator of
    tensor_module(a, b), by the coproduct sum_l P_il (x) Q_lj over the u
    powers on Python ints, row-major Kronecker."""
    x, y = a.num.tolist(), b.num.tolist()
    n, da, db = a.n, a.dim, b.dim
    ka, kb = len(x[0][0]), len(y[0][0])
    num = [[[[[sum(x[i][l][s][r // db][c // db] * y[l][j][k - s][r % db][c % db]
                   for l in range(n) for s in range(ka) if 0 <= k - s < kb)
               for c in range(da * db)] for r in range(da * db)]
             for k in range(ka + kb - 1)] for j in range(n)] for i in range(n)]
    scale = a.scale * b.scale
    g = math.gcd(scale, *np.array(num, dtype=object).flat)
    return (np.array(num, dtype=object) // g).tolist(), scale // g, a.den * b.den


def cleared_pairs(m1, m2):
    """(keys, B, C) of `yangian.modules.coefficient_pairs` as lists of
    Python ints: the u^k coefficients of P1_ij (d2/g) and P2_ij (d1/g), g =
    gcd(d1, d2), by convolution loops, each side over its scale times its
    cofactor's denominator and both brought to the least common one."""
    g = poly_gcd(m1.den, m2.den)
    sides = [(_convolve(mod.num.tolist(), list((other.den // g).num)),
              mod.scale * (other.den // g).den)
             for mod, other in ((m1, m2), (m2, m1))]
    common = math.lcm(*(s for _, s in sides))
    (b, sb), (c, sc) = sides
    keys, bs, cs = [], [], []
    for i, j in itertools.product(range(m1.n), repeat=2):
        for k in range(len(b[i][j])):
            if any(map(any, b[i][j][k])) or any(map(any, c[i][j][k])):
                keys.append((i, j, k))
                bs.append([[x * (common // sb) for x in r] for r in b[i][j][k]])
                cs.append([[x * (common // sc) for x in r] for r in c[i][j][k]])
    return keys, bs, cs


def same_action(m1, m2):
    """Whether two modules act alike entry by entry, cross-multiplied on
    Python ints: P1 d1.den s2 d2.num = P2 d2.den s1 d1.num."""
    if (m1.n, m1.dim) != (m2.n, m2.dim):
        return False
    left = _convolve(m1.num.tolist(), [x * m1.den.den * m2.scale
                                       for x in m2.den.num])
    right = _convolve(m2.num.tolist(), [x * m2.den.den * m1.scale
                                        for x in m1.den.num])
    return left == right


def pair_witness(a, keys, bs, cs):
    """The first (i, j, k, r, s), pair by pair and row-major, where the
    Python-int lists A B_p and C_p A differ, summed term by term, or None."""
    rows, cols = len(a), len(a[0])
    for key, b, c in zip(keys, bs, cs):
        for r in range(rows):
            for s in range(cols):
                left = sum(a[r][t] * b[t][s] for t in range(cols))
                if left != sum(c[r][t] * a[t][s] for t in range(rows)):
                    return (*key, r, s)
    return None


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


def bareiss_gauss_jordan(m):
    """Fraction-free Gauss-Jordan elimination of an integer object array.

    Zero rows are dropped and the others made primitive, which changes no
    row space and keeps the entries small.  Bareiss's one-step update then
    runs on every row except the pivot row, so each division by the
    previous pivot is exact and every earlier pivot becomes the current one
    (Nakos, Turner & Williams 1997).  Returns the nonzero rows R, the pivot
    columns and the last pivot d: R / d is the nonzero part of the reduced
    row echelon form.
    """
    m = m[m.any(axis=1)]
    m = m // np.array([math.gcd(*r) for r in m], dtype=object).reshape(-1, 1)
    rows, cols = m.shape
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i, c]), None)
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        # left of column c the pivot row is zero, so there the update only
        # scales the rows above it (the rows below are zero)
        p, row = m[r, c], m[r, c:].copy()
        m[:, c:] = (m[:, c:] * p - np.outer(m[:, c], row)) // prev
        m[r, c:] = row
        m[:r, :c] = m[:r, :c] * p // prev
        prev = p
        pivots.append(c)
    return m[:len(pivots)], pivots, prev


# ---------------------------------------------------------------------------
# polynomials over Fractions: coefficient tuples, low degree first, with no
# trailing zero


def ref_poly(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_poly((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                    for k in range(n))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_poly(out)


def ref_eval(a, u):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * u + c
    return acc


def ref_divmod(a, b):
    """Quotient and remainder by long division over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    d, lead = len(b) - 1, b[-1]
    while len(rem) - 1 >= d and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        k = len(rem) - 1 - d
        f = rem[-1] / lead
        quo[k] = f
        for i in range(len(b)):
            rem[k + i] -= f * b[i]
        rem.pop()
    return ref_poly(quo), ref_poly(rem)


def ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def ref_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_shift(a, c):
    """a(u + c), by Horner's rule in u + c."""
    out = ()
    for k in reversed(range(len(a))):
        out = ref_add(ref_mul(out, (Fraction(c), Fraction(1))), (a[k],))
    return out


def ref_from_roots(roots):
    out = (Fraction(1),)
    for r in roots:
        out = ref_mul(out, (-Fraction(r), Fraction(1)))
    return out


def ref_normalize(num, den):
    """num / den in lowest terms with monic denominator; zero is 0 / 1."""
    if not num:
        return (), (Fraction(1),)
    g = ref_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), ref_monic(den)


def _divisors(n):
    """The positive divisors of the nonzero integer n, by trial division."""
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def divisor_rational_roots(coeffs):
    """The rational roots, with multiplicity and sorted, and the cofactor of
    the nonzero integer polynomial `coeffs`, by the rational root theorem:
    past the roots at 0, every rational root is +-a/b with a dividing the
    constant and b the leading coefficient, and each such candidate is
    divided out over the rationals while it is a root."""
    poly = ref_poly(coeffs)
    roots = []
    while poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    candidates = {Fraction(s * a, b) for a in _divisors(int(poly[0]))
                  for b in _divisors(int(poly[-1])) for s in (1, -1)}
    for r in sorted(candidates):
        while len(poly) > 1 and ref_eval(poly, r) == 0:
            roots.append(r)
            poly = ref_divmod(poly, (-r, Fraction(1)))[0]
    return sorted(roots), poly


# ---------------------------------------------------------------------------
# hom spaces by one dense system


def whole_denominator_hom_space(m1, m2):
    """hom_space by the whole-denominator system: A P1 d2 = P2 d1 A, every
    u^k coefficient as the Kronecker block I ⊗ B^T - C ⊗ I on the d2 x d1
    row-major entries of A, solved as one canonical nullspace."""
    d1, d2 = m1.dim, m2.dim
    eye1, eye2 = RatMatrix.identity(d1), RatMatrix.identity(d2)
    blocks = []
    for i in range(m1.n):
        for j in range(m1.n):
            q1 = entry_matpoly(m1, i, j) * m2.den
            q2 = entry_matpoly(m2, i, j) * m1.den
            for k in range(max(q1.degree, q2.degree) + 1):
                blocks.append([eye2.kron(q1.coeff(k).transpose())
                               - q2.coeff(k).kron(eye1)])
    basis = RatMatrix.stack(blocks).nullspace()
    return [RatMatrix([[basis[r * d1 + s, t] for s in range(d1)]
                       for r in range(d2)]) for t in range(basis.ncols)]


# ---------------------------------------------------------------------------
# swap intertwiners from the hom solver


def swap_word_matrix(params, word):
    """The matrix of compose_word(params, word) on the source pattern.

    Each letter's pair map is the one-dimensional hom space between its two
    pair modules, scaled so the pair's distinguished vector goes to the
    closed-form zeta factor of the two origins times the block-reordering
    sign times the swapped distinguished vector; it acts as the identity on
    the other slots, and the letters multiply left to right.
    """
    theta, n = params.theta, params.n
    factors = source_pattern(params)
    dims = [block_dim(theta, n, f.degree) for f in factors]
    total = RatMatrix.identity(math.prod(dims))
    for a in word:
        fa, fb = factors[a - 1], factors[a]
        mod_a = fock_module(theta, n, fa.kind, fa.param, fa.degree)
        mod_b = fock_module(theta, n, fb.kind, fb.param, fb.degree)
        basis = hom_space(tensor_module(mod_a, mod_b),
                          tensor_module(mod_b, mod_a))
        assert len(basis) == 1
        sign = -1 if theta == -1 and fa.degree * fb.degree % 2 else 1
        want = (distinguished_vector(params, [fb, fa])
                * (zeta_factor(params, (fa.origin, fb.origin)).value * sign))
        image = basis[0] * distinguished_vector(params, [fa, fb])
        row = next(r for r in range(want.nrows) if want[r, 0])
        pair_map = basis[0] * (want[row, 0] / image[row, 0])
        assert pair_map * distinguished_vector(params, [fa, fb]) == want
        left = RatMatrix.identity(math.prod(dims[:a - 1]))
        right = RatMatrix.identity(math.prod(dims[a + 1:]))
        total = left.kron(pair_map).kron(right) * total
        factors[a - 1], factors[a] = fb, fa
        dims[a - 1], dims[a] = dims[a], dims[a - 1]
    return total


def kept_columns(gens, start):
    """Breadth-first span of a start column under words in the generators.

    Each generator is a tuple of RatMatrix, one per side, and start holds
    one column per side.  A layer applies every generator to the frontier
    and orders the candidates word-major (frontier column first, generator
    second); the pivots of the rref of [kept | candidates] on side 0 pick
    the candidates that enlarge its span, so the kept columns are the first
    independent ones in breadth-first order.  Every other side keeps the
    same columns, built by the same words.  Stops when side 0's span is the
    whole space or a layer adds nothing; returns the kept columns per side.
    """
    dim = start[0].nrows
    kept = tuple(col[:, :0] for col in start)
    cands = start
    while True:
        width = kept[0].ncols
        _, pivots = RatMatrix.stack([[kept[0], cands[0]]]).rref()
        new = [c - width for c in pivots[width:]]
        if not new:
            return kept
        frontier = tuple(c[:, new] for c in cands)
        kept = tuple(RatMatrix.stack([[k, f]]) for k, f in zip(kept, frontier))
        if kept[0].ncols == dim or not gens:
            return kept
        f, g = len(new), len(gens)
        order = [i * f + j for j in range(f) for i in range(g)]
        cands = tuple(
            RatMatrix.stack([[gen[side] * frontier[side] for gen in gens]])[:, order]
            for side in range(len(start)))


def lowering_pairs(params, fa, fb):
    """The coefficient pairs (keys, B, C) of the pair modules fa (x) fb and
    fb (x) fa below the diagonal with B nonzero: the swap's generators."""
    theta, n = params.theta, params.n
    mods = [fock_module(theta, n, f.kind, f.param, f.degree) for f in (fa, fb)]
    keys, (bs, _), (cs, _) = coefficient_pairs(tensor_module(*mods),
                                               tensor_module(*mods[::-1]))
    low = [p for p, (i, j, _) in enumerate(keys.tolist())
           if i > j and bs[p].any()]
    return keys[low], bs[low], cs[low]


def reference_swap_pair(params, fa, fb):
    """The normalized swap of the pair module fa (x) fb and its fraction,
    as b_tgt . b_src^-1 with b_src and b_tgt the kept columns of the two
    distinguished vectors under the lowering coefficients, times the
    closed-form fraction and the block sign.  Raises NonGenericStepError
    when the source vector is not cyclic."""
    frac = _swap_fraction(params, fa, fb)
    _, bs, cs = lowering_pairs(params, fa, fb)
    gens = [(_ratmatrix(b, 1), _ratmatrix(c, 1)) for b, c in zip(bs, cs)]
    b_src, b_tgt = kept_columns(gens, (distinguished_vector(params, [fa, fb]),
                                       distinguished_vector(params, [fb, fa])))
    if b_src.ncols < b_src.nrows:
        raise NonGenericStepError(
            "non-generic step: the distinguished vector is not cyclic in the pair")
    sign = _swap_sign(params.theta, fa.degree, fb.degree)
    return b_tgt * b_src.inverse() * (frac * sign), frac


def verify_intertwiner(mat, src, tgt):
    """Exact check of mat . T_src(u) = T_tgt(u) . mat: None or the witness
    (i, j, k, r, s) of `yangian.intertwine._verify_intertwiner`, from the
    two whole products mat [B_1 B_2 ...] and [C_1; C_2; ...] mat compared
    on every pair at once."""
    keys, (bs, _), (cs, _) = coefficient_pairs(src, tgt)
    if not len(keys):
        return None
    rows, cols = mat.shape
    left = int_matmul(mat.data, np.hstack(list(bs)))
    right = int_matmul(np.vstack(list(cs)), mat.data)
    diff = (left.reshape(rows, len(keys), cols).transpose(1, 0, 2)
            - right.reshape(len(keys), rows, cols))
    bad = np.argwhere(diff)
    if not len(bad):
        return None
    p, r, s = (int(x) for x in bad[0])
    return tuple(int(x) for x in keys[p]) + (r, s)


def two_product_loop(mat, src, tgt):
    """The witness (i, j, k, r, s) of `verify_intertwiner`, or None, from
    the entries of A B_p and C_p A summed term by term on Python ints, pair
    by pair and row-major."""
    keys, (bs, _), (cs, _) = coefficient_pairs(src, tgt)
    return pair_witness(mat.data.tolist(), [tuple(k) for k in keys.tolist()],
                        bs.tolist(), cs.tolist())


def reference_kernel_quotient(intw):
    """Kernel and quotient of an intertwiner in a basis adapted to the kernel.

    The adapted basis is the kernel basis, then the standard coordinates
    away from the pivots of its transposed rref.  Every numerator
    coefficient of the source action must be block upper triangular there:
    the lower-left block is the stability test, the lower-right block the
    quotient action.  The quotient is certified with the intertwiner's
    columns at the complement coordinates.  Raises the ValueErrors of
    `yangian.intertwine.kernel_quotient`, naming the same (i, j, k) for an
    unstable kernel.
    """
    src, mat = intw.source, intw.matrix
    kernel = mat.nullspace()
    k, dim = kernel.ncols, src.dim
    if k == dim:
        raise ValueError("intertwiner is zero; the quotient would be the zero module")
    complement = list(range(dim))
    change = RatMatrix.identity(dim)
    if k:
        pivot_coords = set(kernel.transpose().rref()[1])
        complement = [c for c in complement if c not in pivot_coords]
        change = RatMatrix.stack([[kernel, change[:, complement]]])
    change_inv = change.inverse()
    adapted = change_inv.data @ src.num @ change.data
    unstable = np.argwhere((adapted[..., k:, :k] != 0).any(axis=(3, 4)))
    if len(unstable):
        raise ValueError("kernel is not stable under the module action at "
                         f"(i, j, k) = {tuple(int(x) for x in unstable[0])}")
    quotient = YangianModule(src.den, adapted[..., k:, k:],
                             src.scale * change_inv.den * change.den)
    witness = verify_intertwiner(mat[:, complement], quotient, intw.target)
    if witness is not None:
        raise ValueError("quotient is not isomorphic to the image module: "
                         f"fails at (i, j, k, r, s) = {witness}")
    return QuotientModule(parent=src,
                          kernel_basis=tuple(
                              tuple(Fraction(x, kernel.den) for x in col)
                              for col in kernel.data.T),
                          quotient=quotient)


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


def per_suite_compile(real, check):
    """check(real), with the suite on a table of its own operators and the
    unit alone, as each suite compiled before the suites of one window
    shared a table: the text its witnesses print must not change."""
    alone = copy.copy(real)

    def operators(suite):
        return CompiledOperators(real, _SUITES[suite][0], 1, {
            suite: real.suite_ops(suite), "unit": [[(1, None, ())]]}, 4)

    alone.operators = operators
    return check(alone)


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


# ---------------------------------------------------------------------------
# the series identities one (r, s) at a time, each product x(k)_ab x(l)_cd
# formed once per call and kept in a dict; yangian.hd.check_x_identities
# must agree with it on the verdict, the checked count and every failure.


def x_identities(series):
    """Exchange identity (u-v) X(u)X(v) = X(v) - X(u) and the induced
    generator relation, coefficient-by-coefficient through the order.

    All products x(k)_ab x(l)_cd of two coefficient blocks come from one
    stacked product per pair of orders (k, l), formed once per call.
    """
    th, m, K = series.theta, series.m, series.order
    dim = series.rep_dim
    _check_work("appendix-x-identities", _series_identities(m, K),
                rep_dim=dim)
    blocks = series.coeffs
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
                hits = np.flatnonzero(bad)[:MAX_FAILURES - len(failures)]
                for flat in hits:
                    idx = np.unravel_index(flat, bad.shape)
                    failures.append({"identity": identity, "rs": (r, s),
                                     label: tuple(int(x) for x in idx)})
                if len(failures) >= MAX_FAILURES:
                    return IdentityReport("series-identities", False,
                                          checked + int(hits[-1]) + 1, None,
                                          failures)
                checked += bad.size
    return IdentityReport("series-identities", not failures, checked, None,
                          failures)
