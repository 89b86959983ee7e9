"""Verification engine: defining relations, highest weights, Drinfeld data.

The defining-relation check works with cleared numerators.  Writing the
action as T_ij(u) = P_ij(u)/d(u), the relation R(u-v) T1(u) T2(v) =
T2(v) T1(u) R(u-v) reads, component by component (Molev 2007),

    (u-v) [P_ij(u), P_kl(v)] = P_kj(u) P_il(v) - P_kj(v) P_il(u)

for all i, j, k, l; the scalar d(u) d(v) cancels.  Each side is a
polynomial in (u, v) of degree at most (deg d + 1) in each variable, so
checking it on a (deg d + 2) x (deg d + 2) grid of points that avoid the
poles proves it identically.  Both sides vanish on the diagonal u = v for
every module, so only the pairs u0 != v0 need a comparison.  One
contraction of the coefficient array with the Vandermonde matrix of the
grid evaluates every block P_ij at every point, each point's blocks
stacked as integer numerators over one common denominator; both sides are
bilinear in the blocks at u0 and v0, so the denominators cancel, and the
two products that compare (u0, v0) also compare (v0, u0).

The two sides are compared exactly in one of two tiers.  With M the
largest absolute numerator of any stack and spread the largest |u0 - v0|,
every entry of every product of two blocks is at most dim M^2, so every
entry of lhs - rhs is at most D = 2 (spread + 1) dim M^2.  When D < 2^63
(the int64 tier) every compared entry fits int64, so each is tested for
zero directly.  The products are formed with float64 matrix products,
exact because every partial sum is an integer below 2^53 (Dumas, Giorgi &
Pernet, FFLAS-FFPACK, ACM TOMS 35(3), 2008): in one piece when dim M^2 <
2^53, else from two limbs per stack, X = hi 2^h + lo, whose four limb
products are each exact and are combined in int64 (the error-free product
of Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012).  When D >=
2^63 the stacks are reduced modulo the fewest word-size primes whose
product exceeds D (the residue tier).  An entry of lhs - rhs that
vanishes modulo every prime is 0 by the Chinese remainder theorem, and one
that does not vanish is nonzero, so the entries that fail modulo some
prime are exactly the entries that fail.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fock import PLAIN, PRIME, TILDE
from .linalg import (FLOAT64_EXACT_LIMIT, Poly, RatFunc, RatMatrix,
                     _as_float64, _poly, _ratfunc, _ratmatrix, int_matmul,
                     poly_rational_roots, residue_primes)
from .modules import (ModuleParams, PatternFactor, YangianModule,
                      scalar_module, source_pattern, tensor_module)

# Largest n^2 dim that check_rtt takes on.  Each unordered grid pair
# {u, v}, u != v, forms two (n^2 dim)-square products per modulus and pair
# of limbs, which serve both (u, v) and (v, u), so the work per pair grows
# as (n^2 dim)^2 dim.  On a 2-core x86 VM the 4-factor n = 3 pattern (dim
# 81, 729) takes 0.2 s on the int64 tier in one piece (mu = 1/2, 1/3, 1/5,
# 1/7), 0.47-0.55 s in two limbs (mu = 1/3, 2/3, 1/5, 1/7) and 0.65-0.70 s
# on three residue primes (mu = 1/7, 2/7, 3/7, 5/7); n = 2, nu = (12, 12)
# (676) takes 0.1 s in one piece.  A 5-factor pattern (dim 243, 2187)
# would need 9x the memory and 27x the work per pair.
RTT_MAX_SIZE = 729

# The grid's sample points are the first integers from GRID_START on that
# are not roots of the denominator.
GRID_START = 10


@dataclass
class RttReport:
    """Verdict of the grid proof; failure names the first failing grid pair
    (u, v) and entry (i, j, k, l, r, s): matrix element (r, s) of the
    component relation for the generators T_ij(u), T_kl(v), scanning pairs
    and then entries in that order.

    bound is the proven bound D on |lhs - rhs| over every entry of every
    grid pair, and primes are the residue primes, largest first, whose
    product exceeds it; primes is empty on the int64 tier, where D < 2^63
    and the grid is compared without residues."""

    ok: bool
    n: int
    dim: int
    den_degree: int
    points_u: list = field(default_factory=list)
    points_v: list = field(default_factory=list)
    failure: dict | None = None
    bound: int = 0
    primes: list = field(default_factory=list)


def _grid_points(den: Poly, count: int) -> list[int]:
    pts = []
    u0 = GRID_START
    while len(pts) < count:
        if den(u0) != 0:
            pts.append(u0)
        u0 += 1
    return pts


def _grid_stacks(mod: YangianModule, pts: list[int]) -> tuple[np.ndarray, int]:
    """The numerators of the blocks P_ij(u0) at every grid point, each point
    over the one common denominator of its lowest terms, as one array of
    vertical stacks (points, rows (i, j, r), columns s), and their largest
    absolute value M: one contraction of the numerators with the
    Vandermonde matrix.

    A module with `num64` is contracted with an int64 Vandermonde matrix,
    and `int_matmul` returns int64 whenever its float64 gate passes, so no
    Python int is made; a module without it, or a Vandermonde entry at or
    past FLOAT64_EXACT_LIMIT (which fails that gate anyway), takes the
    Python-int numerators.  The values are int64 when every entry is below
    the limit (a Python-int result is cast exactly through float64), else
    Python ints; M is exact either way."""
    powers = mod.den.degree + 1
    num = mod.num64
    if num is not None and pts[-1] ** (powers - 1) < FLOAT64_EXACT_LIMIT:
        vander = np.vander(np.array(pts, dtype=np.int64), powers, True)
    else:
        num, vander = mod.num, np.vander(np.array(pts, dtype=object), powers,
                                         True)
    values = int_matmul(vander, np.moveaxis(num, 2, 0).reshape(
        powers, -1)).reshape(len(pts), -1, mod.dim)
    if values.dtype != np.int64:
        cast = _as_float64(values)
        if cast is not None and np.abs(cast).max() < FLOAT64_EXACT_LIMIT:
            values = cast.astype(np.int64)
    if values.dtype == np.int64:
        gcds = np.gcd.reduce(values.reshape(len(pts), -1), axis=1)
        values //= np.array([math.gcd(mod.scale, int(g)) for g in gcds],
                            dtype=np.int64)[:, None, None]
        return values, int(np.abs(values).max())
    for vals in values:
        g = math.gcd(mod.scale, *vals.flat)
        if g > 1:
            vals //= g
    return values, int(np.abs(values).max())


# (i, j, r, k, l, s) -> (k, l, r, i, j, s): swaps the two generators
_SWAP = (3, 4, 2, 0, 1, 5)


def _pair_failures(stacks, moduli, a: int, b: int, w: int, n: int,
                   dim: int) -> tuple[tuple | None, tuple | None]:
    """The first failing entries (i, j, k, l, r, s) of the grid pairs
    (u0, v0) and (v0, u0), points a and b with w = u0 - v0, or None.

    Per modulus p, with A = P(u0) and B = P(v0) as held by its stacks,
    ab[i, j, r, k, l, s] = (A_ij B_kl)[r, s] and ba[i, j, r, k, l, s] =
    (B_ij A_kl)[r, s] are formed in int64 from exact float64 products of
    the limbs (see _rtt_grid).  With C = ab - ba with the generators
    swapped and S = ab - ba with axes 0 and 3 exchanged, the pair (u0, v0)
    needs w C - S = 0 and the pair (v0, u0) needs w C' + S = 0, C' being C
    with the generators swapped; so one ab and one ba serve both pairs.
    The products, C and the two differences, in turn, go to the grid's
    work buffers, so a pair allocates only its failure masks.

    For p None (the int64 tier) both tests are exact, every entry of ab and
    ba being at most dim M^2 and every difference at most D < 2^63.  With
    one limb the float64 products are ab and ba themselves.  With two
    limbs of shift h, hi and lo, ab = (hi hi) 2^2h + (hi lo + lo hi) 2^h +
    lo lo, and every intermediate is at most 4 dim M^2 < 2^63 (see
    _rtt_grid).  For a prime p the stacks hold residues in [0, p), one
    limb, so ab and ba are below 2^53; the tests are modulo p, and C is
    reduced to [0, p) before it is scaled by w, |w| < p, so the sums stay
    below 2^54.
    """
    shape = (n, n, dim, n, n, dim)
    bad: list[np.ndarray | None] = [None, None]
    for p, (vert, horiz, shift, (flt, prods)) in zip(moduli, stacks):
        # per limb, the rows of A and B and the columns of B and A
        rows, cols = vert[:, [a, b]], horiz[:, [b, a]]
        # the last float64 slot, read as int64, takes what is cast out of
        # the first, and then C
        spare = flt[-1].view(np.int64)
        np.copyto(prods, np.matmul(rows[0], cols[0], out=flt[0]),
                  casting="unsafe")
        if shift:
            prods <<= 2 * shift
            np.add(np.matmul(rows[0], cols[1], out=flt[0]),
                   np.matmul(rows[1], cols[0], out=flt[1]), out=flt[0])
            np.copyto(spare, flt[0], casting="unsafe")
            spare <<= shift
            prods += spare
            np.copyto(spare, np.matmul(rows[1], cols[1], out=flt[0]),
                      casting="unsafe")
            prods += spare
        ab, ba = prods.reshape(2, *shape)
        comm, mult = spare.reshape(2, *shape)
        np.subtract(ab, ba.transpose(_SWAP), out=comm)
        # x - x // p * p is x % p; numpy divides by a scalar much faster
        # than it takes remainders
        if p is not None:
            np.floor_divide(comm, p, out=mult)
            mult *= p
            comm -= mult
        comm *= w
        ab -= ba
        cross = ab.swapaxes(0, 3)
        for k, (op, left) in enumerate(((np.subtract, comm),
                                        (np.add, comm.transpose(_SWAP)))):
            diff = op(left, cross, out=ba)
            if p is None:
                test = diff != 0
            else:
                np.floor_divide(diff, p, out=mult)
                mult *= p
                test = mult != diff
            if bad[k] is None:
                bad[k] = test
            else:
                bad[k] |= test
    return _first_entry(bad[0]), _first_entry(bad[1])


def _first_entry(bad: np.ndarray) -> tuple | None:
    """The first set entry in (i, j, k, l, r, s) order, or None."""
    if not bad.any():
        return None
    return tuple(int(x) for x in np.argwhere(bad.transpose(0, 1, 3, 4, 2, 5))[0])


def _rtt_grid(mod: YangianModule) -> tuple[list[int], int, list, list]:
    """The grid points, the bound D, the moduli and, per modulus, the
    vertical (limbs, points, rows (i, j, r), s) and horizontal (limbs,
    points, r, columns (i, j, s)) float64 stacks with their limb shift h
    and the work buffers that every pair reuses.

    When D < 2^63 (the int64 tier) the moduli are [None], and the stacks
    hold the numerators X themselves, in one limb (h = 0) when dim M^2 <
    2^53, else in two, hi = X >> h and lo = X - hi 2^h, with h = ceil(b/2)
    for b the bit length of M.  Then 0 <= lo < 2^h and |hi| <= 2^(b-h) <=
    2^h, so every partial sum of a limb product is at most dim 2^2h <=
    dim 2^(b+1) <= 4 dim M.  D < 2^63 and spread >= 1 give dim M^2 < 2^61,
    so (4 dim M)^2 < 2^65 dim, below 2^106 as dim < 2^41 (a block, an
    array, has dim^2 < 2^63 entries): the limb products are exact in
    float64, and so is their sum hi lo + lo hi, below 2 dim 2^b <= 4 dim M.
    In int64, hi hi 2^2h and (hi lo + lo hi) 2^h are each at most dim 2^2b
    <= 4 dim M^2 < 2^63, as b + h <= 2b - 1 (here M^2 > 2^53 / dim > 2^12),
    and their sum is ab - lo lo, at most dim M^2 + 4 dim M.

    When D >= 2^63 (the residue tier) the moduli are the residue primes,
    largest first, and the stacks the residues in one limb.  The residues
    come from one int64 cast of the numerators when M < 2^63."""
    n, dim = mod.n, mod.dim
    pts = _grid_points(mod.den, mod.den.degree + 2)
    ints, top = _grid_stacks(mod, pts)
    bound = 2 * (pts[-1] - pts[0] + 1) * dim * top * top
    if top < 2 ** 63:
        ints = ints.astype(np.int64, copy=False)
    if bound < 2 ** 63:
        moduli = [None]
        shift = (0 if dim * top * top < FLOAT64_EXACT_LIMIT
                 else (top.bit_length() + 1) // 2)
        limbs = [[ints >> shift, ints & ((1 << shift) - 1)] if shift
                 else [ints]]
    else:
        moduli = residue_primes(bound, dim)
        shift = 0
        limbs = [[ints % p] for p in moduli]
    # every pair reuses these buffers, one float64 slot per limb for the
    # limb products and int64 for ab and ba: a fresh array past malloc's
    # mmap threshold costs a page fault per page each time it is touched
    size = n * n * dim
    work = (np.empty((2 if shift else 1, 2, size, size)),
            np.empty((2, size, size), dtype=np.int64))
    stacks = []
    for parts in limbs:
        vert = np.array(parts, dtype=np.float64)
        horiz = vert.reshape(len(parts), len(pts), n, n, dim, dim).transpose(
            0, 1, 4, 2, 3, 5).reshape(len(parts), len(pts), dim, -1)
        stacks.append((vert, horiz, shift, work))
    return pts, bound, moduli, stacks


def check_rtt(mod: YangianModule) -> RttReport:
    """Prove the defining relation for the module by grid evaluation.

    The relation holds identically on the diagonal u0 = v0, so only the
    pairs u0 != v0 are compared, each unordered pair once per modulus.
    Raises ValueError when n^2 dim exceeds RTT_MAX_SIZE.
    """
    n, dim = mod.n, mod.dim
    if n * n * dim > RTT_MAX_SIZE:
        raise ValueError(f"rtt check on n^2 * dim = {n * n * dim}, over the "
                         f"budget of {RTT_MAX_SIZE}")
    pts, bound, moduli, stacks = _rtt_grid(mod)
    report = RttReport(True, n, dim, mod.den.degree, list(pts), list(pts),
                       bound=bound, primes=[p for p in moduli if p])
    # pairs (a, b) with a > b were settled with (b, a), earlier in the scan
    later: dict[tuple[int, int], tuple | None] = {}
    for a, u0 in enumerate(pts):
        for b, v0 in enumerate(pts):
            if a == b:
                continue
            if a < b:
                entry, later[b, a] = _pair_failures(stacks, moduli, a, b,
                                                    u0 - v0, n, dim)
            else:
                entry = later.pop((a, b))
            if entry is not None:
                report.ok = False
                report.failure = {"u": u0, "v": v0, "entry": entry}
                return report
    return report


# ---------------------------------------------------------------------------
# highest weight vectors and eigenvalues


def highest_weight_vectors(mod: YangianModule) -> RatMatrix:
    """Basis of the space killed by every T_ij(u) with i < j, one column
    per vector."""
    upper = mod.ints[np.triu_indices(mod.n, 1)]
    return _ratmatrix(upper.reshape(-1, mod.dim).astype(object, copy=False),
                      1).nullspace()


def eigenvalue_of(mod: YangianModule, i: int, vec: RatMatrix) -> RatFunc:
    """T_ii(u) eigenvalue on a column vec as a rational function; raises
    if vec is not an eigenvector."""
    ints = vec.data[:, 0]
    support = np.flatnonzero(ints)
    if not len(support):
        raise ValueError("zero vector")
    pivot = support[0]
    # imgs[k] = scale * c_k * ints, c_k the eigenvalue's u^k coefficient
    imgs = int_matmul(mod.ints[i, i][:, :, support].reshape(-1, len(support)),
                      ints[support, None]).reshape(-1, mod.dim)
    if (imgs * ints[pivot] != np.outer(imgs[:, pivot], ints)).any():
        raise ValueError(f"vector is not an eigenvector of entry {i}")
    return RatFunc(_poly(imgs[:, pivot].tolist(),
                         mod.scale * int(ints[pivot])), mod.den)


def hw_eigenvalues(mod: YangianModule, vec: RatMatrix) -> list[RatFunc]:
    return [eigenvalue_of(mod, i, vec) for i in range(mod.n)]


def is_highest_weight(mod: YangianModule, vec: RatMatrix) -> bool:
    upper = mod.ints[np.triu_indices(mod.n, 1)]
    return not int_matmul(upper.reshape(-1, mod.dim), vec.data).any()


# ---------------------------------------------------------------------------
# Drinfeld polynomials


class DrinfeldError(ValueError):
    pass


@dataclass
class DrinfeldData:
    polys: list[Poly]           # monic, one per i = 1..n-1
    eigenvalues: list[RatFunc]  # all n diagonal eigenvalues on the hw vector


def _coset_key(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def ratio_to_drinfeld_poly(ratio: RatFunc) -> Poly:
    """Recover monic P with P(u + 1/2) / P(u - 1/2) = ratio.

    The numerator and denominator roots are paired inside each translation
    class of the rationals; the result is verified by direct recomputation,
    so a wrong pairing cannot slip through.
    """
    if ratio.is_one():
        return Poly([1])
    num_roots, num_rest = poly_rational_roots(ratio.num)
    den_roots, den_rest = poly_rational_roots(ratio.den)
    if num_rest.degree != 0 or den_rest.degree != 0:
        raise DrinfeldError("eigenvalue ratio has irrational roots")
    by_coset: dict[Fraction, tuple[list, list]] = {}
    for r in num_roots:
        by_coset.setdefault(_coset_key(r), ([], []))[0].append(r)
    for r in den_roots:
        by_coset.setdefault(_coset_key(r), ([], []))[1].append(r)
    roots = []
    for _, (ns, ds) in sorted(by_coset.items()):
        if len(ns) != len(ds):
            raise DrinfeldError("unbalanced root strings in eigenvalue ratio")
        for a, b in zip(sorted(ns), sorted(ds)):
            steps = b - a
            if steps.denominator != 1 or steps < 1:
                raise DrinfeldError("root string does not descend by integers")
            half = Fraction(1, 2)
            roots.extend(a + half + t for t in range(int(steps)))
    poly = Poly.from_roots(roots)
    check = RatFunc(poly.shift(Fraction(1, 2)), poly.shift(Fraction(-1, 2)))
    if check != ratio:
        raise DrinfeldError("recovered polynomial fails verification")
    return poly


def drinfeld_data(mod: YangianModule) -> DrinfeldData:
    """Drinfeld polynomials and diagonal eigenvalues of the hw vector."""
    basis = highest_weight_vectors(mod)
    if basis.ncols != 1:
        raise DrinfeldError(
            f"highest weight space has dimension {basis.ncols}, need 1")
    eigen = hw_eigenvalues(mod, basis)
    return DrinfeldData(drinfeld_polynomials(eigen), eigen)


def drinfeld_polynomials(eigen: list[RatFunc]) -> list[Poly]:
    """The monic P_i with P_i(u + 1/2) / P_i(u - 1/2) = eigen[i] / eigen[i+1]."""
    return [ratio_to_drinfeld_poly(eigen[i] / eigen[i + 1])
            for i in range(len(eigen) - 1)]


# ---------------------------------------------------------------------------
# module comparisons


def scalar_twist_between(m1: YangianModule, m2: YangianModule) -> RatFunc | None:
    """g with T1 = g T2 entrywise, or None; g = 1 means equal actions.

    P_00 is monic, so the (0, 0) matrix element of T_00(u) is nonzero in
    both modules and its ratio is the only candidate g; T1 = g T2 exactly
    when m1 equals the tensor product of the one-dimensional module
    T_ij(u) = delta_ij g(u) with m2.
    """
    if (m1.n, m1.dim) != (m2.n, m2.dim):
        return None
    g = m1.entry_ratfunc(0, 0, 0, 0) / m2.entry_ratfunc(0, 0, 0, 0)
    twisted = tensor_module(scalar_module(m1.n, g.num, g.den), m2)
    return g if m1.equal_entrywise(twisted) else None


# ---------------------------------------------------------------------------
# closed-form eigenvalue products


def _factor_shifts(theta: int, n: int, factor: PatternFactor,
                   i: int) -> tuple[Fraction, Fraction] | None:
    """The shifts (a, b) of one pattern factor's closed-form T_ii(u)
    eigenvalue (u + a) / (u + b) (0-based i), or None where it is 1.

    The eigenvector is the factor's extreme monomial: the top-variable
    monomial for tilde/prime kinds and the bottom-variable monomial for the
    plain kind.  Degree-zero factors are trivial and contribute 1.
    """
    nu, z = factor.degree, factor.param
    if nu == 0:
        return None
    if theta == 1:
        if factor.kind == PLAIN:
            return (z + nu, z) if i == 0 else None
        if factor.kind == TILDE:
            return (z - nu - 1 if i == n - 1 else z - 1), z
        if factor.kind == PRIME:
            return (z - 1 - nu, z - 1) if i == n - 1 else None
    else:
        if factor.kind == PLAIN:
            return (1 - z, -z) if i < nu else None
        if factor.kind == TILDE:
            return (1 - z, -z) if i < n - nu else None
        if factor.kind == PRIME:
            return (-z, 1 - z) if i >= n - nu else None
    raise ValueError(f"unknown factor kind {factor.kind!r}")


def closed_form_eigenvalues(params: ModuleParams,
                            factors: list[PatternFactor] | None = None
                            ) -> list[RatFunc]:
    """Product over factors of the per-slot diagonal eigenvalue formulas.

    These are the eigenvalues of T_ii(u) on the distinguished vector of the
    pattern module; with the default factor list they describe the source
    pattern itself.  Each is one product of linear factors u + a over
    u + b: equal factors on the two sides cancel, and the rest are
    distinct, so the product is already in lowest terms.
    """
    if factors is None:
        factors = source_pattern(params)
    out = []
    for i in range(params.n):
        tops: Counter[Fraction] = Counter()
        bottoms: Counter[Fraction] = Counter()
        for f in factors:
            shifts = _factor_shifts(params.theta, params.n, f, i)
            if shifts is not None:
                tops[shifts[0]] += 1
                bottoms[shifts[1]] += 1
        common = tops & bottoms
        tops, bottoms = tops - common, bottoms - common
        out.append(_ratfunc(Poly.from_roots(-a for a in tops.elements()),
                            Poly.from_roots(-b for b in bottoms.elements())))
    return out
