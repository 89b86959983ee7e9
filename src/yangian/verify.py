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

The stacks are stored by `linalg.stored_ints`, which keeps M, their
largest |numerator|, and one `linalg.ZeroTest` per grid compares the two
sides exactly, in float64 in one piece, two limbs or residue primes by the
bound D = 2 (spread + 1) dim M^2 on lhs - rhs, spread the largest |u0 - v0|.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .fock import PLAIN, PRIME, TILDE
from .linalg import (Poly, RatFunc, RatMatrix, ZeroTest, _poly, _ratfunc,
                     _ratmatrix, int_matmul, poly_rational_roots, stored_ints)
from .modules import (ModuleParams, PatternFactor, YangianModule,
                      scalar_module, source_pattern, tensor_module)

# Largest n^2 dim that check_rtt takes on.  Each unordered grid pair
# {u, v}, u != v, forms two (n^2 dim)-square products per modulus and pair
# of limbs, which serve both (u, v) and (v, u), so the work per pair grows
# as (n^2 dim)^2 dim.  On a 2-core x86 VM the 4-factor n = 3 pattern (dim
# 81, 729) takes 0.1 s on the int64 tier in one piece (mu = 1/2, 1/3, 1/5,
# 1/7), 0.25-0.3 s in two limbs (mu = 1/3, 2/3, 1/5, 1/7) and 0.37-0.45 s
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


def _grid_stacks(mod: YangianModule, pts: list[int]) -> tuple[np.ndarray, int]:
    """The numerators of the blocks P_ij(u0) at every grid point, each point
    over the one common denominator of its lowest terms, as one array of
    vertical stacks (points, rows (i, j, r), columns s), and their largest
    absolute value M: one contraction of the numerators with the
    Vandermonde matrix.

    With the Vandermonde matrix stored by `stored_ints` and int64
    numerators, `int_matmul` returns int64 whenever its float64 gate
    passes.  Each point is divided by its gcd with the scale; M is exact."""
    powers = mod.den.degree + 1
    vander = stored_ints(np.vander(np.array(pts, dtype=object), powers,
                                   True))[0]
    values = int_matmul(vander, np.moveaxis(mod.num, 2, 0).reshape(
        powers, -1)).reshape(len(pts), -1, mod.dim)
    gcds = np.gcd.reduce(values.reshape(len(pts), -1), axis=1)
    values //= np.array([math.gcd(mod.scale, int(g)) for g in gcds],
                        dtype=values.dtype)[:, None, None]
    return stored_ints(values)


# (i, j, r, k, l, s) -> (k, l, r, i, j, s): swaps the two generators
_SWAP = (3, 4, 2, 0, 1, 5)


def _first_entry(bad: np.ndarray) -> tuple | None:
    """The first set entry in (i, j, k, l, r, s) order, or None."""
    if not bad.any():
        return None
    return tuple(int(x) for x in np.argwhere(bad.transpose(0, 1, 3, 4, 2, 5))[0])


def _rtt_grid(mod: YangianModule) -> tuple[list[int], ZeroTest, Callable]:
    """The grid points, the zero test of the grid and the check of one grid
    pair, `pair(a, b)`: the first failing entries (i, j, k, l, r, s) of the
    pairs (u0, v0) and (v0, u0), points a < b, or None.

    With A = P(u0) and B = P(v0), one product of the vertical (points, rows
    (i, j, r), s) and horizontal (points, r, columns (i, j, s)) stacks
    forms ab[i, j, r, k, l, s] = (A_ij B_kl)[r, s] and ba, A and B
    exchanged.  With C = ab - ba, generators swapped, and S = ab - ba, axes
    0 and 3 exchanged, (u0, v0) needs w C - S = 0 and (v0, u0) w C' + S =
    0, C' being C with the generators swapped and w = u0 - v0: sums of at
    most 2 (spread + 1) products of entries at most dim M^2, all formed in
    work buffers."""
    n, dim = mod.n, mod.dim
    pts = list(itertools.islice((u0 for u0 in itertools.count(GRID_START)
                                 if mod.den(u0) != 0), mod.den.degree + 2))
    ints, top = _grid_stacks(mod, pts)
    test = ZeroTest(top, dim, dim * top * top, 2 * (pts[-1] - pts[0] + 1))
    vert = test.operand(ints, top)
    horiz = test.operand(ints.reshape(len(pts), n, n, dim, dim).transpose(
        0, 3, 1, 2, 4).reshape(len(pts), dim, -1), top)
    shape = (n, n, dim, n, n, dim)
    prods = np.empty((2, n * n * dim, n * n * dim), dtype=np.int64)
    comm = np.empty(shape, dtype=np.int64)

    def pair(a: int, b: int) -> tuple[tuple | None, tuple | None]:
        def combine(vert, horiz):
            # the rows of A and B against the columns of B and A
            ab, ba = test.product(vert[:, [a, b]], horiz[:, [b, a]],
                                  prods).reshape(2, *shape)
            np.subtract(ab, ba.transpose(_SWAP), out=comm)
            np.multiply(comm, pts[a] - pts[b], out=comm)
            ab -= ba
            cross = ab.swapaxes(0, 3)
            yield np.subtract(comm, cross, out=ba)
            yield np.add(comm.transpose(_SWAP), cross, out=ba)

        return tuple(map(_first_entry, test.nonzero(combine, vert, horiz)))

    return pts, test, pair


def check_rtt(mod: YangianModule) -> RttReport:
    """Prove the defining relation for the module by grid evaluation.

    The relation holds identically on the diagonal u0 = v0, so only the
    pairs u0 != v0 are compared, each unordered pair once.
    Raises ValueError when n^2 dim exceeds RTT_MAX_SIZE.
    """
    n, dim = mod.n, mod.dim
    if n * n * dim > RTT_MAX_SIZE:
        raise ValueError(f"rtt check on n^2 * dim = {n * n * dim}, over the "
                         f"budget of {RTT_MAX_SIZE}")
    pts, test, pair = _rtt_grid(mod)
    report = RttReport(True, n, dim, mod.den.degree, list(pts), list(pts),
                       bound=test.bound, primes=[p for p in test.moduli if p])
    # pairs (a, b) with a > b were settled with (b, a), earlier in the scan
    found: dict[tuple[int, int], tuple | None] = {}
    for a, u0 in enumerate(pts):
        for b, v0 in enumerate(pts):
            if a < b:
                found[a, b], found[b, a] = pair(a, b)
            entry = found.get((a, b))
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
    upper = mod.num[np.triu_indices(mod.n, 1)]
    return _ratmatrix(upper.reshape(-1, mod.dim), 1).nullspace()


def eigenvalue_of(mod: YangianModule, i: int, vec: RatMatrix) -> RatFunc:
    """T_ii(u) eigenvalue on a column vec as a rational function; raises
    if vec is not an eigenvector."""
    ints = vec.data[:, 0]
    support = np.flatnonzero(ints)
    if not len(support):
        raise ValueError("zero vector")
    pivot = support[0]
    # imgs[k] = scale * c_k * ints (c_k its u^k coefficient), in Python ints
    imgs = int_matmul(mod.num[i, i][:, :, support].reshape(-1, len(support)),
                      ints[support, None]).reshape(-1, mod.dim).astype(object)
    if (imgs * int(ints[pivot]) != np.outer(imgs[:, pivot], ints)).any():
        raise ValueError(f"vector is not an eigenvector of entry {i}")
    return RatFunc(_poly(imgs[:, pivot].tolist(),
                         mod.scale * int(ints[pivot])), mod.den)


def hw_eigenvalues(mod: YangianModule, vec: RatMatrix) -> list[RatFunc]:
    return [eigenvalue_of(mod, i, vec) for i in range(mod.n)]


def is_highest_weight(mod: YangianModule, vec: RatMatrix) -> bool:
    upper = mod.num[np.triu_indices(mod.n, 1)]
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
