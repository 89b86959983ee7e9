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
(`hom_space`), kernels and quotient modules of a given intertwiner
(`kernel_quotient`, which certifies quotient = image with the intertwiner's
own columns at the coordinates complementary to the kernel), and an
irreducibility test combining endomorphism count with cyclicity of the
highest-weight vector.  Swap operators and the cyclicity test share one
breadth-first span of exact columns under the coefficient matrices.

Conventions.  Words are tuples of positions a with 1 <= a <= m-1; position a
swaps tensor slots a and a+1 (slots counted from 1).  A word is applied left
to right.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fock import PLAIN, TILDE, block_dim
from .linalg import RatMatrix, _ratmatrix, int_matmul
from .modules import (
    ModuleParams,
    PatternFactor,
    YangianModule,
    check_pattern_size,
    coefficient_pairs,
    distinguished_vector,
    fock_module,
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


def _cyclic_span(gens: Sequence[tuple[RatMatrix, ...]],
                 start: tuple[RatMatrix, ...]) -> tuple[RatMatrix, ...]:
    """Breadth-first span of a start column under words in the generators.

    Each generator is a tuple of matrices, one per side, and start holds one
    column per side.  A layer applies every generator to the frontier and
    orders the candidates word-major (frontier column first, generator
    second); the pivots of the rref of [kept | candidates] on side 0 pick the
    candidates that enlarge its span, so the kept columns are the first
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

    The witness of the first failing pair ((i, j, k), B, C) of
    `coefficient_pairs(src, tgt)` is (i, j, k, r, s), k indexing u^k in the
    cleared identity and (r, s) the first nonzero entry of mat B - C mat
    in row-major order.
    """
    pairs = list(coefficient_pairs(src, tgt))
    if not pairs:
        return None
    # B and C are integer matrices, so both sides share mat's denominator:
    # mat [B_1 B_2 ...] and [C_1; C_2; ...] mat are the two products
    rows, cols = mat.shape
    left = int_matmul(mat.data, np.hstack([b.data for _, b, _ in pairs]))
    right = int_matmul(np.vstack([c.data for _, _, c in pairs]), mat.data)
    diff = (left.reshape(rows, len(pairs), cols).transpose(1, 0, 2)
            - right.reshape(len(pairs), rows, cols))
    bad = np.argwhere(diff)
    if not len(bad):
        return None
    p, r, s = (int(x) for x in bad[0])
    return pairs[p][0] + (r, s)


# Largest cyclic-span work a swap step takes on, counted before any module
# is built as pair_dim^3 x generators: each of the at most pair_dim kept
# columns spawns one candidate per generator (T_ij, i > j, at u^0 and u^1),
# and each candidate is reduced against at most pair_dim pivots of pair_dim
# rows.  The tests and the benchmark reach 35k (pair dim 18, n = 3).  On a
# 2-core x86 VM, hw-scalar on two factors of degree d took: n = 2, d = 7
# (dim 64, 5.2e5) 1.0 s; n = 3, d = 2 (dim 36, 2.8e5) 0.1 s; refused now:
# n = 2, d = 9 (dim 100, 2.0e6) 8.6 s; n = 3, d = 3 (dim 100, 6.0e6) 2.5 s;
# n = 3, d = 4 (dim 225) over 60 s; n = 2, d = 15 (dim 256) over 290 s.
STEP_MAX_WORK = 1_000_000


def _check_step_work(params: ModuleParams, fa: PatternFactor,
                     fb: PatternFactor) -> None:
    """Refuse a swap of fa and fb whose pair module is over MODULE_MAX_SIZE
    or whose cyclic span exceeds STEP_MAX_WORK, counting without building."""
    check_pattern_size(params, [fa, fb])
    theta, n = params.theta, params.n
    dim = block_dim(theta, n, fa.degree) * block_dim(theta, n, fb.degree)
    gens = n * (n - 1)
    work = dim ** 3 * gens
    if work > STEP_MAX_WORK:
        raise ValueError(f"swap step on a pair of dim {dim} with {gens} "
                         f"generators: cyclic-span work {work}, over the "
                         f"budget of {STEP_MAX_WORK}")


def step(params: ModuleParams, a: int,
         factors: Sequence[PatternFactor] | None = None,
         source: YangianModule | None = None) -> Intertwiner:
    """The normalized swap of tensor slots a and a+1 (1-based position a).

    The operator is found on the two swapped factors alone (it acts as the
    identity on the others), by matching the images of spanning generator
    words on the two distinguished vectors; this pins it uniquely because
    both two-factor modules have one-dimensional highest-weight spaces and
    the source one is cyclic.  The scale is fixed so the distinguished
    vector maps to the swapped monomial times the closed-form normalization
    fraction, and the full matrix identity is re-verified exactly.  source,
    when given, is the already built pattern_module(params, factors).
    Raises ValueError, before any module is built, when the pair module is
    over MODULE_MAX_SIZE or its cyclic-span work exceeds STEP_MAX_WORK.
    """
    factors = list(factors) if factors is not None else source_pattern(params)
    m = len(factors)
    if not 1 <= a <= m - 1:
        raise ValueError(f"position {a} out of range for {m} slots")
    fa, fb = factors[a - 1], factors[a]
    frac = _swap_fraction(params, fa, fb)   # also rejects out-of-order origins
    _check_step_work(params, fa, fb)
    theta, n = params.theta, params.n

    mod_a = fock_module(theta, n, fa.kind, fa.param, fa.degree)
    mod_b = fock_module(theta, n, fb.kind, fb.param, fb.degree)
    pair_src = tensor_module(mod_a, mod_b)
    pair_tgt = tensor_module(mod_b, mod_a)
    if pair_src.den != pair_tgt.den:
        raise StepError("swapped pair changed the denominator; factors corrupted")

    if highest_weight_vectors(pair_src).ncols != 1 \
            or highest_weight_vectors(pair_tgt).ncols != 1:
        raise NonGenericStepError(
            "non-generic step: a swapped pair has a degenerate highest-weight space")

    # below-diagonal coefficients generate everything from a highest-weight vector
    gens = [(b, c) for (i, j, _), b, c in coefficient_pairs(pair_src, pair_tgt)
            if i > j and not b.is_zero()]
    b_src, b_tgt = _cyclic_span(gens, (distinguished_vector(params, [fa, fb]),
                                       distinguished_vector(params, [fb, fa])))
    if b_src.ncols < pair_src.dim:
        raise NonGenericStepError(
            "non-generic step: the distinguished vector is not cyclic in the pair")
    pair_map = b_tgt * b_src.inverse() * (frac * _swap_sign(theta, fa.degree, fb.degree))

    dims = [block_dim(theta, n, f.degree) for f in factors]
    left = 1
    for d in dims[:a - 1]:
        left *= d
    right = 1
    for d in dims[a + 1:]:
        right *= d
    full = pair_map
    if left > 1:
        full = RatMatrix.identity(left).kron(full)
    if right > 1:
        full = full.kron(RatMatrix.identity(right))

    target_factors = list(factors)
    target_factors[a - 1], target_factors[a] = fb, fa
    src_mod = source if source is not None else pattern_module(params, factors)
    tgt_mod = pattern_module(params, target_factors)
    witness = _verify_intertwiner(full, src_mod, tgt_mod)
    if witness is not None:
        raise NonGenericStepError(
            "non-generic step: the candidate map fails the exact module "
            f"identity at (i, j, k, r, s) = {witness}")
    return Intertwiner(source=src_mod, target=tgt_mod, matrix=full,
                       hw_scalar=frac, word=(a,),
                       source_factors=tuple(factors),
                       target_factors=tuple(target_factors))


def compose_word(params: ModuleParams, word: Sequence[int],
                 factors: Sequence[PatternFactor] | None = None) -> Intertwiner:
    """Compose swap steps along word, applied left to right.

    The word must be reduced: every step must swap factors that are still in
    source order, equivalently the word's length equals the inversion count
    of the permutation it realizes.  The source module's MODULE_MAX_SIZE
    budget and then every step's STEP_MAX_WORK budget are checked before
    anything is built.
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

    src_mod = pattern_module(params, factors)
    total = RatMatrix.identity(src_mod.dim)
    scalar = Fraction(1)
    cur_factors = list(factors)
    cur_mod = src_mod
    for a in word:
        st = step(params, a, cur_factors, cur_mod)
        total = st.matrix * total
        scalar *= st.hw_scalar
        cur_factors = list(st.target_factors)
        cur_mod = st.target
    return Intertwiner(source=src_mod, target=cur_mod, matrix=total,
                       hw_scalar=scalar, word=tuple(word),
                       source_factors=tuple(factors),
                       target_factors=tuple(cur_factors))


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

# Largest number of unknowns d1 * d2 that hom_space solves for.  Its first
# defect block has (d1 d2)^2 exact entries, so dim-81 patterns (6561
# unknowns) would need gigabytes.  The tests reach 100 unknowns and the
# benchmark 64; at 144 (a dim-12 pattern mapped to itself) one solve takes
# about 0.3 s on a 2-core x86 VM.
HOM_SPACE_MAX_UNKNOWNS = 144


def hom_space(m1: YangianModule, m2: YangianModule) -> list[RatMatrix]:
    """Deterministic basis of all A with A . T1_ij(u) = T2_ij(u) . A.

    The unknowns are the row-major entries of the d2 x d1 matrix A.  The
    columns of span solve the coefficient pairs (B, C) of
    `coefficient_pairs(m1, m2)` so far; for the next pair, column t of
    span, reshaped to A_t, has the defect A_t B - C A_t, whose row-major
    entries are (I ⊗ Bᵀ - C ⊗ I) vec(A_t), and span is restricted to the
    nullspace of the defects.  The free columns of the whole system are the
    last coordinates independent on its solutions, so the rref of span
    with reversed rows is the system's canonical echelon nullspace basis,
    one basis map per row.  Raises ValueError when d1 d2 exceeds
    HOM_SPACE_MAX_UNKNOWNS.
    """
    d1, d2 = m1.dim, m2.dim
    if d1 * d2 > HOM_SPACE_MAX_UNKNOWNS:
        raise ValueError(
            f"hom_space: {d1} x {d2} maps give {d1 * d2} unknowns, over the "
            f"budget of {HOM_SPACE_MAX_UNKNOWNS}")
    span = RatMatrix.identity(d1 * d2)
    for _, b, c in coefficient_pairs(m1, m2):
        # span's numerators as k stacked d2 x d1 maps; its den drops out
        k = span.ncols
        maps = span.data.T.reshape(k, d2, d1)
        ab = int_matmul(maps.reshape(k * d2, d1), b.data).reshape(k, d2, d1)
        ca = int_matmul(c.data, maps.transpose(1, 0, 2).reshape(d2, k * d1))
        defect = ab - ca.reshape(d2, k, d1).transpose(1, 0, 2)
        kept = _ratmatrix(defect.reshape(k, d2 * d1).T, 1).nullspace()
        if not kept.ncols:
            return []
        span = span * kept
    red, pivots = span[::-1, :].transpose().rref()
    return [_ratmatrix(red.data[r, ::-1].reshape(d2, d1), red.den)
            for r in reversed(range(len(pivots)))]


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
    """Exact kernel of the intertwiner and the quotient action beside it.

    In the adapted basis (the kernel basis, then the standard coordinates
    away from its pivot positions) every numerator coefficient of the
    source action must be block upper triangular: the lower-left block is
    the kernel's stability test, and the lower-right block is the quotient
    action Q_k.  The quotient is then certified with the intertwiner
    itself: its columns at the complement coordinates form an injective map
    emb onto the image, and emb . T_quotient(u) = T_target(u) . emb is
    checked exactly on every coefficient pair (`coefficient_pairs`), so the
    quotient is isomorphic to the image, a submodule of the target.  The
    errors name the failing (i, j, k) of an unstable kernel, or the failing
    (i, j, k, r, s) of the certificate.
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

    # every coefficient in the adapted basis, over scale * change dens
    adapted = change_inv.data @ src.num @ change.data
    unstable = np.argwhere((adapted[..., k:, :k] != 0).any(axis=(3, 4)))
    if len(unstable):
        raise ValueError("kernel is not stable under the module action at "
                         f"(i, j, k) = {tuple(int(x) for x in unstable[0])}")
    quotient = YangianModule(src.den, adapted[..., k:, k:],
                             src.scale * change_inv.den * change.den)

    witness = _verify_intertwiner(mat[:, complement], quotient, intw.target)
    if witness is not None:
        raise ValueError("quotient is not isomorphic to the image module: "
                         f"fails at (i, j, k, r, s) = {witness}")
    return QuotientModule(parent=src,
                          kernel_basis=tuple(
                              tuple(Fraction(x, kernel.den) for x in col)
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
        gens = [(b,) for (_, _, k), b, _ in coefficient_pairs(mod, mod)
                if k < mod.den.degree and not b.is_zero()]
        cyclic_dim = _cyclic_span(gens, (hw[:, :1],))[0].ncols
    verdict = endo_dim == 1 and hw_dim == 1 and cyclic_dim == mod.dim
    return IrreducibilityReport(irreducible=verdict, dim=mod.dim,
                                endo_dim=endo_dim, hw_dim=hw_dim,
                                cyclic_dim=cyclic_dim)
