"""Intertwining operators between tensor patterns and their consequences.

A pattern (see `modules`) is a tensor product of fixed-degree coordinate
components.  Swapping two adjacent slots of a generic pattern changes the
module to an isomorphic one, and the isomorphism is unique up to a scalar.
This module constructs those swap operators as exact matrices, fixes their
scale by closed-form normalization fractions evaluated on the distinguished
highest-weight vectors, composes them along reduced words in the adjacent
transpositions, and verifies the resulting scalar against the independent
per-inversion closed forms (`zeta_factor`).

It also provides the generic machinery the degenerate (resonant) cases need:
an honest solver for the full space of intertwiners between two modules
(`hom_space`, on the entries that the diagonal coefficient pairs allow:
the span is the answer; each chunk's rows restrict it once), kernels and
quotient modules of a given intertwiner (`kernel_quotient`, which reads
the quotient off the column-row factorization A = A[:, pivots] . rref(A)
and certifies quotient = image with the pivot columns), and an
irreducibility test combining endomorphism count with cyclicity of the
highest-weight vector.  Swap operators and the cyclicity test grow one
span under the coefficient matrices, kept as its own echelon form; a
swap's pair map is the right block of that form.  Both certificates
check every identity A B = C A of `coefficient_pairs` on one map, in
`_verify_intertwiner`.

Conventions.  Words are tuples of positions a with 1 <= a <= m-1; position a
swaps tensor slots a and a+1 (slots counted from 1).  A word is applied left
to right.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .fock import PLAIN, TILDE, block_dim
from .linalg import (RatMatrix, ZeroTest, _lifted, _modular_rref,
                     _nullspace_from_rref, _ratmatrix, _top, int_matmul,
                     stored_ints)
from .modules import (
    ModuleParams,
    PatternFactor,
    YangianModule,
    check_pattern_size,
    coefficient_pairs,
    distinguished_vector,
    factor_module,
    memoized,
    pattern_module,
    source_pattern,
    tensor_module,
)
from .verify import highest_weight_vectors


class StepError(ValueError):
    """A swap operator could not be built for the given data."""


class NonGenericStepError(StepError):
    """Non-generic step: the swap operator is not pinned down uniquely."""


class ResonanceError(StepError):
    """Resonant parameters: a normalization fraction hits a pole."""


# ---------------------------------------------------------------------------
# words and inversions


def word_permutation(m: int, word: Sequence[int]) -> list[int]:
    """The permutation realized by a word; entry b is the final slot of b.

    Slots are 0-based here; word letters are 1-based positions as everywhere
    else in this module.
    """
    arr = list(range(m))          # arr[slot] = original slot sitting there
    for a in word:
        if not 1 <= a <= m - 1:
            raise ValueError(f"position {a} out of range for {m} slots")
        arr[a - 1], arr[a] = arr[a], arr[a - 1]
    sigma = [0] * m
    for slot, b in enumerate(arr):
        sigma[b] = slot
    return sigma


def inversion_set(sigma: Sequence[int]) -> list[tuple[int, int]]:
    """Ordered pairs (b, c), b < c, whose images appear out of order."""
    m = len(sigma)
    return [(b, c) for b in range(m) for c in range(b + 1, m)
            if sigma[b] > sigma[c]]


def is_reduced_word(m: int, word: Sequence[int]) -> bool:
    return len(word) == len(inversion_set(word_permutation(m, word)))


# ---------------------------------------------------------------------------
# closed-form scalars


@dataclass(frozen=True)
class ZetaFactor:
    """The closed-form scalar attached to one inversion (b, c), b < c."""

    eta: tuple[int, int]
    value: Fraction
    case: str


def _checked_ratio(num: Fraction, den: Fraction, context: str) -> Fraction:
    if den == 0:
        raise ResonanceError(f"resonant parameters: zero denominator in {context}")
    return num / den


def zeta_factor(params: ModuleParams, eta: tuple[int, int]) -> ZetaFactor:
    """Closed-form scalar for the inversion eta = (b, c) of the source order.

    The case split depends only on whether the two original slots are tilde
    (index < p) or plain, on the rank n, and for anticommuting variables on
    the complemented degrees nu'.
    """
    b, c = eta
    if not 0 <= b < c < params.m:
        raise ValueError(f"eta must be 0-based with b < c < m, got {eta}")
    mu_star, lam_star, nu = params.mu_star, params.lam_star, params.nu
    if params.theta == 1:
        tilde_b, tilde_c = b < params.p, c < params.p
        if tilde_b and tilde_c:
            case, reps = "both-tilde", nu[b]
        elif not tilde_b and not tilde_c:
            case, reps = "both-plain", nu[c]
        elif tilde_b and not tilde_c:
            if params.n == 1:
                value = Fraction(1)
                for r in range(1, min(nu[b], nu[c]) + 1):
                    value *= _checked_ratio(mu_star[b] - mu_star[c] - r + 1,
                                            lam_star[b] - lam_star[c] + r - 1,
                                            f"zeta factor for {eta}")
                return ZetaFactor(eta, value, "mixed-rank-one")
            return ZetaFactor(eta, Fraction(1), "mixed")
        else:
            raise ValueError("plain slot cannot precede a tilde slot in the source order")
        value = Fraction(1)
        for r in range(1, reps + 1):
            value *= _checked_ratio(mu_star[b] - mu_star[c] - r,
                                    lam_star[b] - lam_star[c] + r,
                                    f"zeta factor for {eta}")
        return ZetaFactor(eta, value, case)
    nu_prime = params.nu_prime
    if nu_prime[b] < nu_prime[c]:
        value = _checked_ratio(lam_star[b] - lam_star[c],
                               mu_star[b] - mu_star[c],
                               f"zeta factor for {eta}")
        return ZetaFactor(eta, value, "swap")
    return ZetaFactor(eta, Fraction(1), "unit")


def zeta_factors_for_word(params: ModuleParams,
                          word: Sequence[int]) -> tuple[ZetaFactor, ...]:
    sigma = word_permutation(params.m, word)
    return tuple(zeta_factor(params, eta) for eta in inversion_set(sigma))


def zeta_product(params: ModuleParams, word: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for zf in zeta_factors_for_word(params, word):
        out *= zf.value
    return out


def _swap_fraction(params: ModuleParams, fa: PatternFactor,
                   fb: PatternFactor) -> Fraction:
    """Normalization scalar of the swap of two adjacent slots.

    fa and fb are the factors currently at the swapped slots; their origins
    b < c select the substituted value h = -mu*_b + mu*_c - 1, and the kinds
    select which product formula applies.  Prime factors normalize exactly
    like their tilde companions (the two differ by a scalar character that
    cancels between source and target).
    """
    b, c = fa.origin, fb.origin
    if b >= c:
        raise ValueError("non-reduced word: swapped factors are out of source order")
    mu_star = params.mu_star
    h = -mu_star[b] + mu_star[c] - 1
    s, t = fa.degree, fb.degree
    kind_a = TILDE if fa.kind != PLAIN else PLAIN
    kind_b = TILDE if fb.kind != PLAIN else PLAIN
    context = f"swap of origins ({b}, {c})"
    value = Fraction(1)
    if params.theta == 1:
        if kind_a == TILDE and kind_b == TILDE:
            for r in range(1, s + 1):
                value *= _checked_ratio(h + r + 1, h + r - t, context)
        elif kind_a == PLAIN and kind_b == PLAIN:
            for r in range(1, t + 1):
                value *= _checked_ratio(h + r + 1, h + r - s, context)
        elif kind_a == TILDE and kind_b == PLAIN:
            if params.n == 1:
                for r in range(1, s + 1):
                    value *= _checked_ratio(h + r, h + r + t, context)
        else:
            raise ValueError("plain slot cannot precede a tilde slot in the source order")
        return value
    if kind_a == TILDE and kind_b == TILDE:
        if s > t:
            value = _checked_ratio(h + s - t + 1, h + 1, context)
    elif kind_a == PLAIN and kind_b == PLAIN:
        if s < t:
            value = _checked_ratio(h + t - s + 1, h + 1, context)
    elif kind_a == TILDE and kind_b == PLAIN:
        if s + t > params.n:
            value = _checked_ratio(h + s + t - params.n + 1, h + 1, context)
    else:
        raise ValueError("plain slot cannot precede a tilde slot in the source order")
    return value


def _swap_sign(theta: int, deg_a: int, deg_b: int) -> Fraction:
    """Sign from reordering the two swapped monomial blocks.

    For anticommuting variables, moving a block of deg_b letters past a block
    of deg_a letters costs (-1)^(deg_a * deg_b); commuting variables cost
    nothing.  This relates the swapped image of a distinguished monomial to
    the target pattern's own distinguished vector.
    """
    if theta == -1 and (deg_a * deg_b) % 2 == 1:
        return Fraction(-1)
    return Fraction(1)


# ---------------------------------------------------------------------------
# cyclic spans


def _cyclic_span(gens: Sequence[np.ndarray], start: Sequence[np.ndarray]
                 ) -> tuple[np.ndarray, list[int], int]:
    """The span of a start vector under words in the generators, kept as
    its own reduced row echelon form R / d (R is d I at its pivots).

    gens holds one (G, dim, dim) stack of integer matrices per side and
    start one integer column per side; a vector of the span is one word
    applied on every side, as one integer row.  Each layer applies every
    generator to the rows the last layer added, in one product per side
    against [g_1^T g_2^T ...] (candidate rows generator-major), clears the
    span's pivots from them (cands . d - cands[:, pivots] . R), eliminates
    only what remains and folds the new rows into R, every array stored by
    `stored_ints` and each term in int64 only under its bound below 2^63.
    Returns (R, pivots, d) once side 0 has full rank or a layer adds no
    pivot.
    """
    sides, dim = len(start), len(start[0])
    count = len(gens[0])
    # [g_1^T g_2^T ...], one dim x (G dim) block row per side
    moves = [g.transpose(2, 0, 1).reshape(dim, count * dim) for g in gens]
    red, top_r, pivots, d = np.zeros((0, sides * dim), dtype=np.int64), 0, [], 1
    cands = np.concatenate(start).reshape(1, -1)
    while True:
        cands, top = stored_ints(cands)
        rows = _lifted(cands, max(top, 1) * (d + len(pivots) * top_r)) * d
        new, added, e = _modular_rref(stored_ints(
            rows - int_matmul(stored_ints(cands[:, pivots])[0], red))[0])
        if not added:
            break
        top_n = _top(new)
        # the new rows vanish at the old pivots; clear theirs from R
        bound = max(top_r * (e + len(added) * top_n), top_n * d)
        red = np.vstack([_lifted(red, bound) * e
                         - int_matmul(stored_ints(red[:, added])[0], new),
                         _lifted(new, bound) * d])
        pivots, d = pivots + added, d * e
        g = math.gcd(d, *red.flat)
        (red, top_r), d = stored_ints(red // g), d // g
        if not count or sum(c < dim for c in pivots) == dim:
            break
        cands = np.hstack([
            int_matmul(stored_ints(side)[0], move).reshape(len(new), count, dim)
            .transpose(1, 0, 2).reshape(count * len(new), dim)
            for side, move in zip(np.hsplit(new, sides), moves)])
    order = np.argsort(pivots)
    return red[order], [pivots[r] for r in order], d


# ---------------------------------------------------------------------------
# intertwiners


@dataclass(frozen=True)
class Intertwiner:
    """An exact module map: matrix . T_source = T_target . matrix.

    hw_scalar is the coefficient by which the source distinguished vector
    lands on the image of that vector under the slot permutation; for
    anticommuting variables that image differs from the target pattern's own
    distinguished vector by the block-reordering sign (see _swap_sign).  It
    is None for maps not built from swap steps.  word lists the 1-based swap
    positions, applied left to right.
    """

    source: YangianModule
    target: YangianModule
    matrix: RatMatrix
    hw_scalar: Fraction | None
    word: tuple[int, ...]
    source_factors: tuple[PatternFactor, ...] = ()
    target_factors: tuple[PatternFactor, ...] = ()


def _verify_intertwiner(mat: RatMatrix, src: YangianModule,
                        tgt: YangianModule) -> tuple[int, ...] | None:
    """Exact check of mat . T_src(u) = T_tgt(u) . mat: None or a witness.

    The witness of the first failing pair p of
    `coefficient_pairs(src, tgt)` is keys[p] + (r, s) = (i, j, k, r, s),
    k indexing u^k in the cleared identity and (r, s) the first nonzero
    entry of A B_p - C_p A in row-major order, A the integer numerator of
    mat (the pairs share its denominator).  Each chunk of pairs takes one
    product per side, and one `linalg.ZeroTest` finds the nonzero entries
    of the defects, differences of two products, told that a partial sum
    of A B_p is at most d1 max|A| max|B| and of C_p A d2 max|C| max|A|.  A
    is prepared for it once and each chunk's B and C stacks once.
    """
    keys, (bs, top_b), (cs, top_c) = coefficient_pairs(src, tgt)
    d2, d1 = mat.shape
    top_a = mat.top
    test = ZeroTest(max(top_a, top_b, top_c), max(d1, d2),
                    max(d1 * top_b, d2 * top_c) * top_a, 2)

    def defect(a, b, c):
        # defect[p, s, r] = (A B_p - C_p A)[s, r]
        yield (test.product(a, b).reshape(d2, -1, d1).transpose(1, 0, 2)
               - test.product(c, a).reshape(-1, d2, d1))

    a = test.operand(mat.data, top_a)
    per = max(1, _DEFECT_CHUNK // (d2 * d1))
    for c0 in range(0, len(keys), per):
        # [B_1 B_2 ...] and [C_1; C_2; ...]
        b = bs[c0:c0 + per].transpose(1, 0, 2).reshape(d1, -1)
        c = cs[c0:c0 + per].reshape(-1, d2)
        bad = np.argwhere(test.nonzero(defect, a, test.operand(b, top_b),
                                       test.operand(c, top_c))[0])
        if len(bad):
            p, r, s = bad[0]
            return tuple(int(v) for v in (*keys[c0 + p], r, s))
    return None


# Largest work a swap step takes on, pair_dim^3 x n, counted before any
# module is built (span, hw spaces and certificate all grow with it).  CLI
# hw-scalar on a 2-core x86 VM, (n, degrees) dim work: (2, 9 9) 100 2.0e6
# 0.57 s; (3, 3 3) 100 3.0e6 0.53 s; (2, 10 10) 121 3.5e6 1.05 s; (4, 2 2)
# 100 4.0e6 0.31 s; refused: (2, 11 11) 144 6.0e6 1.6 s; (10, 1 1) 100 1e7
# 0.9 s.  The budget was set when Bareiss elimination made these 1.2-5.3 s,
# and has not been raised since.
STEP_MAX_WORK = 4_000_000


def _check_step_work(params: ModuleParams, fa: PatternFactor,
                     fb: PatternFactor) -> None:
    """Refuse a swap of fa and fb whose pair module is over MODULE_MAX_SIZE
    or whose work exceeds STEP_MAX_WORK, counting without building."""
    check_pattern_size(params, [fa, fb])
    theta, n = params.theta, params.n
    dim = block_dim(theta, n, fa.degree) * block_dim(theta, n, fb.degree)
    work = dim ** 3 * n
    if work > STEP_MAX_WORK:
        raise ValueError(f"swap step on a pair of dim {dim} at n = {n}: "
                         f"work {work}, over the budget of {STEP_MAX_WORK}")


def _swap_pair(params: ModuleParams, fa: PatternFactor,
               fb: PatternFactor) -> tuple[RatMatrix, Fraction]:
    """The normalized swap of the pair module fa (x) fb and its fraction.

    A pair map M sends the source distinguished vector to the target one
    and commutes with the generators, so the cyclic span of the two (one
    word on both sides) is its graph, rows [x | M x]: the span is its own
    rref [d I | d M^T] and the pair map is its right block.  M is unique
    because the source vector is cyclic, so no basis choice shows.  Scaled
    by the closed-form fraction and the block sign.  Raises ResonanceError
    at a pole of the fraction and NonGenericStepError on a degenerate pair.
    """
    frac = _swap_fraction(params, fa, fb)
    mod_a, mod_b = factor_module(params, fa), factor_module(params, fb)
    pair_src = tensor_module(mod_a, mod_b)
    pair_tgt = tensor_module(mod_b, mod_a)
    if highest_weight_vectors(pair_src).ncols != 1 \
            or highest_weight_vectors(pair_tgt).ncols != 1:
        raise NonGenericStepError(
            "non-generic step: a swapped pair has a degenerate highest-weight space")
    # lowering coefficients generate everything from the (integer) hw vectors
    keys, (bs, _), (cs, _) = coefficient_pairs(pair_src, pair_tgt)
    lowering = (keys[:, 0] > keys[:, 1]) & (bs != 0).any(axis=(1, 2))
    red, pivots, d = _cyclic_span((bs[lowering], cs[lowering]), tuple(
        distinguished_vector(params, f).data[:, 0] for f in ([fa, fb], [fb, fa])))
    dim = pair_src.dim
    if pivots[:dim] != list(range(dim)):
        raise NonGenericStepError(
            "non-generic step: the distinguished vector is not cyclic in the pair")
    if len(pivots) > dim:
        raise NonGenericStepError(
            "non-generic step: the span has a pivot on the target side, so no "
            "pair map sends the source vector to the target one")
    sign = _swap_sign(params.theta, fa.degree, fb.degree)
    return _ratmatrix(red[:, dim:].T, d) * (frac * sign), frac


def step(params: ModuleParams, a: int,
         factors: Sequence[PatternFactor] | None = None) -> Intertwiner:
    """The normalized swap of tensor slots a and a+1 (1-based position a):
    the one-letter compose_word."""
    return compose_word(params, (a,), factors)


def compose_word(params: ModuleParams, word: Sequence[int],
                 factors: Sequence[PatternFactor] | None = None) -> Intertwiner:
    """Compose swap steps along word, applied left to right.

    The word must be reduced: every step must swap factors that are still in
    source order, equivalently the word's length equals the inversion count
    of the permutation it realizes.  The source module's MODULE_MAX_SIZE
    budget and then every step's STEP_MAX_WORK budget are checked before
    anything is built.  Each letter applies its pair map (`_swap_pair`,
    which refuses non-generic data at that letter, built once per
    `modules.run_memo` for each pair of factors) to the two slots it
    swaps: one stacked product over the rows of the running matrix grouped
    as (slots before, the pair, slots after), so the other slots are never
    touched; the product is then verified exactly once, on the source and
    target pattern modules.
    """
    factors = list(factors) if factors is not None else source_pattern(params)
    m = len(factors)
    arr = list(factors)
    pairs = []
    for a in word:
        if not 1 <= a <= m - 1:
            raise ValueError(f"position {a} out of range for {m} slots")
        if arr[a - 1].origin > arr[a].origin:
            raise ValueError("non-reduced word")
        pairs.append((arr[a - 1], arr[a]))
        arr[a - 1], arr[a] = arr[a], arr[a - 1]
    check_pattern_size(params, factors)
    for fa, fb in pairs:
        _check_step_work(params, fa, fb)

    dims = [block_dim(params.theta, params.n, f.degree) for f in factors]
    size = math.prod(dims)
    total = RatMatrix.identity(size)
    scalar = Fraction(1)
    for a, (fa, fb) in zip(word, pairs):
        pair_map, frac = memoized(("swap", fa, fb),
                                  partial(_swap_pair, params, fa, fb))
        # rows of total as (left, pair, rest): the letter acts on the pair
        left, pair = math.prod(dims[:a - 1]), dims[a - 1] * dims[a]
        rows = total.data.reshape(left, pair, -1)
        total = _ratmatrix(int_matmul(pair_map.data, rows).reshape(size, size),
                           total.den * pair_map.den)
        scalar *= frac
        dims[a - 1], dims[a] = dims[a], dims[a - 1]

    src_mod = pattern_module(params, factors)
    tgt_mod = pattern_module(params, arr)
    witness = _verify_intertwiner(total, src_mod, tgt_mod)
    if witness is not None:
        raise NonGenericStepError(
            "non-generic step: the candidate map fails the exact module "
            f"identity at (i, j, k, r, s) = {witness}")
    return Intertwiner(source=src_mod, target=tgt_mod, matrix=total,
                       hw_scalar=scalar, word=tuple(word),
                       source_factors=tuple(factors),
                       target_factors=tuple(arr))


@dataclass(frozen=True)
class HwImageReport:
    """Comparison of an intertwiner's highest-weight scalar with closed forms.

    computed is the scalar s with matrix . v_source = s * (sign * v_target),
    where sign is the block-reordering sign of the realized permutation; None
    when the image is not proportional to the target distinguished vector.
    closed_form is the product of the per-inversion closed-form scalars.
    """

    ok: bool
    computed: Fraction | None
    closed_form: Fraction
    factors: tuple[ZetaFactor, ...]


def check_hw_image(intw: Intertwiner, params: ModuleParams) -> HwImageReport:
    """Compare matrix . v_source against the closed-form prediction."""
    if not intw.source_factors or not intw.target_factors:
        raise ValueError("check_hw_image needs an intertwiner built from patterns")
    v_src = distinguished_vector(params, intw.source_factors)
    v_tgt = distinguished_vector(params, intw.target_factors)
    pos_src = {f.origin: slot for slot, f in enumerate(intw.source_factors)}
    pos_tgt = {f.origin: slot for slot, f in enumerate(intw.target_factors)}
    origins = sorted(pos_src)
    delta = [(b, c) for bi, b in enumerate(origins) for c in origins[bi + 1:]
             if (pos_src[b] < pos_src[c]) != (pos_tgt[b] < pos_tgt[c])]
    zetas = tuple(zeta_factor(params, eta) for eta in delta)
    closed = Fraction(1)
    for zf in zetas:
        closed *= zf.value
    sign = Fraction(1)
    if params.theta == -1:
        nu = params.nu
        for b, c in delta:
            sign *= _swap_sign(-1, nu[b], nu[c])

    image = intw.matrix * v_src
    ref = v_tgt * sign
    idx = int(np.flatnonzero(ref.data)[0])
    scale = image[idx, 0] / ref[idx, 0]
    proportional = image == ref * scale
    computed = scale if proportional else None
    return HwImageReport(ok=proportional and scale == closed,
                         computed=computed, closed_form=closed, factors=zetas)


# ---------------------------------------------------------------------------
# hom spaces, kernels, quotients

# Largest number of graded unknowns that hom_space solves for: the entries
# of A that the diagonal coefficient pairs leave free, counted before the
# first elimination.  Time grows faster than the count, with the rows of
# each pair.  hom_space between a pattern and its reversal on a 2-core x86
# VM (p = 0 or 1), (n, degrees) dim graded: resonant (3, 1 1 1) 27 93
# 0.02 s; (2, 5 5) 36 146 0.06-0.15 s; (2, 1 1 1 3) 32 196 0.05-0.12 s;
# refused: (3, 2 3) 60 204 0.05-0.06 s; (2, 1 1 1 1 1) 32 252 0.21-0.25
# s; resonant (3, 1 1 1 1) 81 639 0.57-0.64 s.  The budget was set when
# Bareiss elimination took 0.05-0.64 s, 0.47-4.0 s and 21 s on these
# shapes, and has not been raised since.
HOM_SPACE_MAX_UNKNOWNS = 200

# The one chunk bound: rows x unknowns of the equations that hom_space
# restricts its span by at once, and entries of the defects that one
# certificate product forms (pairs x d2 x d1), at least one pair's worth.
_DEFECT_CHUNK = 1 << 16


def hom_space(m1: YangianModule, m2: YangianModule) -> list[RatMatrix]:
    """Deterministic basis of all A with A . T1_ij(u) = T2_ij(u) . A.

    The unknowns are the row-major entries of the d2 x d1 matrix A that the
    diagonal coefficient pairs (B, C) of `coefficient_pairs(m1, m2)` allow:
    such a pair forces A[s, r] = 0 wherever B[r, r] != C[s, s] and holds
    on every other entry (on modules graded by weight, the weight blocks).
    The span is the answer; each chunk's rows restrict it once.  It starts
    as the identity on the unknowns.  For each chunk of the other pairs the
    nonzero rows of A B_p - C_p A are assembled from the nonzeros of B_p
    and C_p (row (p, s', r') holds B_p[r, r'] at A[s', r] and -C_p[s', s]
    at A[s, r']), and span becomes span . K, K the canonical nullspace of
    rows . span.  The span stays the canonical nullspace basis of the rows
    read so far, whatever their order: the identity on its free unknowns F
    with each column zero past its own free unknown, which span . K keeps
    since K's free columns come in F's order.  Its columns are the basis
    maps.  Raises ValueError when the allowed entries exceed
    HOM_SPACE_MAX_UNKNOWNS.
    """
    d1, d2 = m1.dim, m2.dim
    _, (bs, _), (cs, _) = coefficient_pairs(m1, m2)
    diagonal = ~((bs[:, ~np.eye(d1, dtype=bool)] != 0).any(axis=1)
                 | (cs[:, ~np.eye(d2, dtype=bool)] != 0).any(axis=1))
    allowed = (np.diagonal(cs[diagonal], axis1=1, axis2=2)[:, :, None]
               == np.diagonal(bs[diagonal], axis1=1, axis2=2)[:, None, :]
               ).all(axis=0)
    unknowns = np.flatnonzero(allowed)
    if len(unknowns) > HOM_SPACE_MAX_UNKNOWNS:
        raise ValueError(
            f"hom_space: {d1} x {d2} maps give {d1 * d2} unknowns, "
            f"{len(unknowns)} after the diagonal pairs, over the budget of "
            f"{HOM_SPACE_MAX_UNKNOWNS}")
    if not len(unknowns):
        return []
    # the unknown that is A[s, r], or -1
    col = np.full((d2, d1), -1)
    col[allowed] = range(len(unknowns))
    span = RatMatrix.identity(len(unknowns))
    pairs = np.flatnonzero(~diagonal)
    per = max(1, _DEFECT_CHUNK // (d2 * d1 * len(unknowns)))
    for c0 in range(0, len(pairs), per):
        chunk = pairs[c0:c0 + per]
        b, c = bs[chunk], cs[chunk]
        # B_p[r, r'] at A[s', r] in row (p, s', r'), for every allowed s'
        p, r, r2 = np.nonzero(b)
        s2, e = np.nonzero(col[:, r] >= 0)
        b_rows = (p[e] * d2 + s2) * d1 + r2[e]
        b_at, b_val = col[s2, r[e]], b[p[e], r[e], r2[e]]
        # -C_p[s', s] at A[s, r'] in row (p, s', r'), for every allowed r'
        p, s2, s = np.nonzero(c)
        e, r2 = np.nonzero(col[s] >= 0)
        c_rows = (p[e] * d2 + s2[e]) * d1 + r2
        c_at, c_val = col[s[e], r2], c[p[e], s2[e], s[e]]
        ids, row = np.unique(np.concatenate([b_rows, c_rows]),
                             return_inverse=True)
        # entries at most max|B| + max|C| < 2^54 when B and C are int64
        rows = np.zeros((len(ids), len(unknowns)), dtype=np.result_type(bs, cs))
        rows[row[:len(b_rows)], b_at] = b_val
        np.subtract.at(rows, (row[len(b_rows):], c_at), c_val)
        defect = int_matmul(stored_ints(rows)[0], span.data)
        if not defect.any():
            continue
        kept = _nullspace_from_rref(*_modular_rref(stored_ints(defect)[0]),
                                    span.ncols)
        if not kept.ncols:
            return []
        span = span * kept
    maps = np.zeros((d2 * d1, span.ncols), dtype=span.data.dtype)
    maps[unknowns] = span.data
    return [_ratmatrix(m.reshape(d2, d1), span.den) for m in maps.T]


def hom_intertwiner(m1: YangianModule, m2: YangianModule) -> Intertwiner:
    """The unique-up-to-scale intertwiner m1 -> m2, from the honest solver.

    Raises when the hom space does not have dimension exactly 1.  The scale
    is the solver's canonical one; hw_scalar is left unset.
    """
    basis = hom_space(m1, m2)
    if len(basis) != 1:
        raise NonGenericStepError(
            f"non-generic step: hom space has dimension {len(basis)}, not 1")
    return Intertwiner(source=m1, target=m2, matrix=basis[0],
                       hw_scalar=None, word=())


def modules_isomorphic(m1: YangianModule,
                       m2: YangianModule) -> Intertwiner | None:
    """An invertible intertwiner m1 -> m2, or None when there is none.

    Returns the first basis element of the hom space of full rank.  A hom
    space of dimension at most 1 (every use in this package) settles the
    question; one of larger dimension without an invertible basis element
    may still hold an invertible combination, so that case raises
    ValueError naming the dimension.
    """
    if m1.n != m2.n or m1.dim != m2.dim:
        return None
    basis = hom_space(m1, m2)
    for cand in basis:
        if cand.rank() == m1.dim:
            return Intertwiner(source=m1, target=m2, matrix=cand,
                               hw_scalar=None, word=())
    if len(basis) > 1:
        raise ValueError(
            f"modules_isomorphic: no basis element of the {len(basis)}-"
            "dimensional hom space is invertible; isomorphism undecided")
    return None


@dataclass(frozen=True)
class QuotientModule:
    """A parent module, an exact kernel basis, and the induced quotient.

    The kernel is verified to be stable under every coefficient matrix of
    the parent action before the quotient matrices are formed; kernel_basis
    is a tuple of coordinate vectors (empty for a zero kernel, in which case
    the quotient carries the parent action unchanged).
    """

    parent: YangianModule
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    quotient: YangianModule


def kernel_quotient(intw: Intertwiner) -> QuotientModule:
    """Exact kernel of the intertwiner and the quotient action, read off
    its echelon form.

    With R the nonzero rows of rref(A) and C = A[:, pivots], A = C . R
    (column-row factorization), so ker A = ker R, R maps the source onto
    the quotient coordinates and C embeds the quotient onto the image.
    The kernel K is stable under a numerator coefficient N_k exactly when
    R . N_k . K = 0, and then R . N_k = Q_k . R with
    Q_k = (R . N_k)[:, pivots], since R is the identity at its pivot
    columns.  The quotient is certified with C:
    C . T_quotient(u) = T_target(u) . C is checked exactly on every
    coefficient pair (`coefficient_pairs`), so the quotient is isomorphic
    to the image, a submodule of the target.  The errors name the failing
    (i, j, k) of an unstable kernel, or the failing (i, j, k, r, s) of the
    certificate.
    """
    src, mat = intw.source, intw.matrix
    red, pivots, d = _modular_rref(mat.data)
    if not pivots:
        raise ValueError("intertwiner is zero; the quotient would be the zero module")
    kernel = _nullspace_from_rref(red, pivots, d, mat.ncols)
    # R . N_k for every coefficient, over scale * d, as (row, i, j, k,
    # column): one product against the coefficients side by side
    n, _, powers, dim, _ = src.num.shape
    shape = (len(pivots), n, n, powers)
    moved = int_matmul(red, src.num.transpose(
        3, 0, 1, 2, 4).reshape(dim, -1)).reshape(*shape, dim)
    unstable = np.argwhere((int_matmul(moved.reshape(-1, dim), kernel.data) != 0)
                           .reshape(*shape, kernel.ncols).any(axis=(0, 4)))
    if len(unstable):
        raise ValueError("kernel is not stable under the module action at "
                         f"(i, j, k) = {tuple(int(x) for x in unstable[0])}")
    quotient = YangianModule(src.den, moved.transpose(1, 2, 3, 0, 4)[..., pivots],
                             src.scale * d)

    witness = _verify_intertwiner(mat[:, pivots], quotient, intw.target)
    if witness is not None:
        raise ValueError("quotient is not isomorphic to the image module: "
                         f"fails at (i, j, k, r, s) = {witness}")
    return QuotientModule(parent=src,
                          kernel_basis=tuple(
                              tuple(Fraction(int(x), kernel.den) for x in col)
                              for col in kernel.data.T),
                          quotient=quotient)


@dataclass(frozen=True)
class IrreducibilityReport:
    """Evidence-backed verdict: endomorphism count and hw-vector cyclicity."""

    irreducible: bool
    dim: int
    endo_dim: int
    hw_dim: int
    cyclic_dim: int


def irreducibility_test(mod: YangianModule) -> IrreducibilityReport:
    """Verdict: one-dimensional endomorphism space and a cyclic hw vector.

    Any nonzero invariant subspace contains a highest-weight vector (apply
    raising coefficients to a maximal-weight vector in it), so a module with
    a one-dimensional highest-weight space whose vector generates everything
    under the coefficient matrices has no proper nonzero invariant subspace;
    the endomorphism count is reported as independent corroboration.
    """
    endo_dim = len(hom_space(mod, mod))
    hw = highest_weight_vectors(mod)
    hw_dim = hw.ncols
    cyclic_dim = 0
    if hw_dim >= 1:
        gens = mod.num[:, :, :-1].reshape(-1, mod.dim, mod.dim)
        gens = gens[(gens != 0).any(axis=(1, 2))]
        cyclic_dim = len(_cyclic_span((gens,), (hw.data[:, 0],))[1])
    verdict = endo_dim == 1 and hw_dim == 1 and cyclic_dim == mod.dim
    return IrreducibilityReport(irreducible=verdict, dim=mod.dim,
                                endo_dim=endo_dim, hw_dim=hw_dim,
                                cyclic_dim=cyclic_dim)
